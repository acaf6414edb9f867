#include "embed/gae.h"

#include "autograd/ops.h"
#include "core/losses.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

Matrix Gae::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  const Options opt = WithOverrides(options_, eo);
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

  VarPtr mu;
  TrainLoop(params, LoopOptions(opt, eo)).RunOrDie([&](int) -> EpochLoss {
    VarPtr h1 = ag::Relu(ag::SpMM(&s_norm, ag::SpMM(&x_sparse, w1)));
    mu = ag::SpMM(&s_norm, ag::MatMul(h1, w_mu));
    if (!opt.variational)
      return ag::InnerProductPairBce(
          mu, SampleEdgePairs(graph, opt.negatives_per_edge, rng));

    VarPtr logstd = ag::SpMM(&s_norm, ag::MatMul(h1, w_logstd));
    // Reparameterise: z = mu + eps (.) exp(logstd).
    Matrix eps = Matrix::RandomNormal(n, opt.dim, 1.0, rng);
    VarPtr z = ag::Add(mu, ag::Hadamard(ag::MakeConstant(std::move(eps)),
                                        ag::Exp(logstd)));
    // KL(q||N(0,I)) = -0.5 sum(1 + 2 logstd - mu^2 - exp(2 logstd)).
    VarPtr kl = ag::Scale(
        ag::Sub(ag::Add(ag::SumSquares(mu),
                        ag::SumAll(ag::Exp(ag::Scale(logstd, 2.0)))),
                ag::Add(ag::Scale(ag::SumAll(logstd), 2.0),
                        ag::SumAll(ag::MakeConstant(Matrix(n, opt.dim, 1.0))))),
        0.5 * opt.kl_weight / n);
    auto pairs = SampleEdgePairs(graph, opt.negatives_per_edge, rng);
    return ag::Add(ag::InnerProductPairBce(z, pairs), kl);
  });
  return mu->value();
}

}  // namespace aneci
