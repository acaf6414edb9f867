#include "embed/gae.h"

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

Matrix Gae::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  Options opt = options_;
  if (eo.dim > 1) opt.dim = eo.dim;
  if (eo.epochs > 0) opt.epochs = eo.epochs;
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);

  const SparseMatrix s_norm = graph.NormalizedAdjacency();
  const SparseMatrix x_sparse = graph.Features();

  auto w1 = ag::MakeParameter(
      Matrix::GlorotUniform(x_sparse.cols(), opt.hidden_dim, rng));
  auto w_mu = ag::MakeParameter(
      Matrix::GlorotUniform(opt.hidden_dim, opt.dim, rng));
  auto w_logstd = ag::MakeParameter(
      Matrix::GlorotUniform(opt.hidden_dim, opt.dim, rng));

  std::vector<VarPtr> params = {w1, w_mu};
  if (opt.variational) params.push_back(w_logstd);
  ag::Adam::Options adam;
  adam.lr = opt.lr;
  ag::Adam optimizer(params, adam);

  // Decoder targets: every edge is a positive; sampled non-edges negatives.
  auto sample_pairs = [&]() {
    std::vector<ag::PairTarget> pairs;
    pairs.reserve(graph.num_edges() *
                  static_cast<size_t>(1 + opt.negatives_per_edge));
    for (const Edge& e : graph.edges()) {
      pairs.push_back({e.u, e.v, 1.0});
      for (int k = 0; k < opt.negatives_per_edge; ++k) {
        const int a = static_cast<int>(rng.NextInt(n));
        const int b = static_cast<int>(rng.NextInt(n));
        if (a == b || graph.HasEdge(a, b)) continue;
        pairs.push_back({a, b, 0.0});
      }
    }
    return ag::PairSet::Build(std::move(pairs), n);
  };

  Matrix final_z;
  for (int epoch = 0; epoch < opt.epochs; ++epoch) {
    optimizer.ZeroGrad();
    VarPtr h1 = ag::Relu(ag::SpMM(&s_norm, ag::SpMM(&x_sparse, w1)));
    VarPtr mu = ag::SpMM(&s_norm, ag::MatMul(h1, w_mu));

    VarPtr z = mu;
    VarPtr loss;
    if (opt.variational) {
      VarPtr logstd = ag::SpMM(&s_norm, ag::MatMul(h1, w_logstd));
      // Reparameterise: z = mu + eps (.) exp(logstd).
      Matrix eps = Matrix::RandomNormal(n, opt.dim, 1.0, rng);
      z = ag::Add(mu, ag::Hadamard(ag::MakeConstant(std::move(eps)),
                                   ag::Exp(logstd)));
      // KL(q||N(0,I)) = -0.5 sum(1 + 2 logstd - mu^2 - exp(2 logstd)).
      VarPtr kl = ag::Scale(
          ag::Sub(ag::Add(ag::SumSquares(mu),
                          ag::SumAll(ag::Exp(ag::Scale(logstd, 2.0)))),
                  ag::Add(ag::Scale(ag::SumAll(logstd), 2.0),
                          ag::SumAll(ag::MakeConstant(
                              Matrix(n, opt.dim, 1.0))))),
          0.5 * opt.kl_weight / n);
      loss = ag::Add(ag::InnerProductPairBce(z, sample_pairs()), kl);
    } else {
      loss = ag::InnerProductPairBce(z, sample_pairs());
    }

    ag::Backward(loss);
    optimizer.Step();
    if (eo.observer != nullptr) eo.observer->OnEpoch(epoch, loss->value()(0, 0));
    if (epoch == opt.epochs - 1) final_z = mu->value();
  }
  return final_z;
}

}  // namespace aneci
