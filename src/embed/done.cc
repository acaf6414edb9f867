#include "embed/done.h"

#include <cmath>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "core/losses.h"
#include "embed/decoder_errors.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

namespace {

// Normalises errors to outlier weights: w_i = log(1 / o_i) where o_i is the
// error share (DONE's formulation); rescaled to mean 1.
std::vector<double> ErrorsToWeights(const std::vector<double>& errors) {
  double total = 0.0;
  for (double e : errors) total += e;
  const int n = static_cast<int>(errors.size());
  std::vector<double> w(n, 1.0);
  if (total <= 0.0) return w;
  double mean_w = 0.0;
  for (int i = 0; i < n; ++i) {
    const double o = std::max(errors[i] / total, 1e-9);
    w[i] = std::log(1.0 / o);
    mean_w += w[i];
  }
  mean_w /= n;
  for (double& v : w) v = std::max(v / mean_w, 0.0);
  return w;
}

}  // namespace

void Done::Run(const Graph& graph, const EmbedOptions& eo, Matrix* embedding,
               std::vector<double>* scores) const {
  Options opt = options_;
  if (eo.dim > 1) opt.dim = eo.dim;
  if (eo.epochs > 0) opt.epochs = eo.epochs;
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);
  const int half = std::max(2, opt.dim / 2);

  const SparseMatrix a_norm = graph.Adjacency(true).RowNormalizedL1();
  const SparseMatrix x_sparse = graph.Features();
  const Matrix features = graph.FeaturesOrIdentity();

  auto ws1 =
      ag::MakeParameter(Matrix::GlorotUniform(n, opt.hidden_dim, rng));
  auto ws2 =
      ag::MakeParameter(Matrix::GlorotUniform(opt.hidden_dim, half, rng));
  auto wa1 = ag::MakeParameter(
      Matrix::GlorotUniform(features.cols(), opt.hidden_dim, rng));
  auto wa2 =
      ag::MakeParameter(Matrix::GlorotUniform(opt.hidden_dim, half, rng));
  auto wdec =
      ag::MakeParameter(Matrix::GlorotUniform(half, features.cols(), rng));
  // ADONE discriminator: logistic direction separating the two views.
  auto wdisc = ag::MakeParameter(Matrix::GlorotUniform(half, 1, rng));

  std::vector<VarPtr> enc_params = {ws1, ws2, wa1, wa2, wdec};
  ag::Adam::Options adam;
  adam.lr = opt.lr;
  ag::Adam optimizer(enc_params, adam);
  ag::Adam disc_optimizer({wdisc}, adam);

  const auto pairs = ag::PairSet::Build(
      SampleReconstructionPairs(a_norm, opt.negatives_per_node, rng,
                                /*binarize=*/true),
      n);
  std::vector<ag::PairTarget> edge_list;
  edge_list.reserve(graph.num_edges());
  for (const Edge& e : graph.edges()) edge_list.push_back({e.u, e.v, 1.0});
  const auto edge_pairs = ag::PairSet::Build(std::move(edge_list), n);
  std::vector<double> weights(n, 1.0);

  Matrix zs_final, za_final, xhat_final;
  for (int epoch = 0; epoch < opt.epochs; ++epoch) {
    optimizer.ZeroGrad();

    VarPtr zs = ag::MatMul(ag::LeakyRelu(ag::SpMM(&a_norm, ws1), 0.01), ws2);
    VarPtr za = ag::MatMul(ag::LeakyRelu(ag::SpMM(&x_sparse, wa1), 0.01), wa2);

    // Structure reconstruction (outlier-weighted through the pair targets is
    // approximated by node weights on the homophily + attribute terms).
    VarPtr l_struct = ag::InnerProductPairBce(zs, pairs);
    const double per_node = static_cast<double>(pairs->size()) / n;

    // Attribute reconstruction, weighted per node by the outlier weights.
    VarPtr xhat = ag::MatMul(za, wdec);
    Matrix weight_rows(n, features.cols());
    for (int i = 0; i < n; ++i) {
      double* row = weight_rows.RowPtr(i);
      for (int c = 0; c < features.cols(); ++c) row[c] = weights[i];
    }
    VarPtr weighted_residual = ag::Hadamard(
        ag::Sub(xhat, ag::MakeConstant(features)),
        ag::MakeConstant(std::move(weight_rows)));
    VarPtr l_attr = ag::Scale(
        ag::SumSquares(weighted_residual),
        per_node * n / static_cast<double>(features.size()));

    // Homophily: neighbours should embed closely in both views.
    VarPtr l_hom = ag::Scale(
        ag::Add(ag::InnerProductPairBce(zs, edge_pairs),
                ag::InnerProductPairBce(za, edge_pairs)),
        opt.homophily_weight);

    VarPtr loss = ag::Add(ag::Add(l_struct, l_attr), l_hom);

    if (opt.adversarial) {
      // Generator step: both views should fool the discriminator toward 0.5;
      // implemented as minimising the squared discriminator margin.
      VarPtr margin = ag::Sub(ag::MatMul(zs, wdisc), ag::MatMul(za, wdisc));
      loss = ag::Add(loss, ag::Scale(ag::SumSquares(margin), 0.1 / n));
    }

    ag::Backward(loss);
    optimizer.Step();
    if (eo.observer != nullptr) eo.observer->OnEpoch(epoch, loss->value()(0, 0));

    if (opt.adversarial) {
      // Discriminator step: separate the (detached) views.
      disc_optimizer.ZeroGrad();
      VarPtr zs_c = ag::MakeConstant(zs->value());
      VarPtr za_c = ag::MakeConstant(za->value());
      Matrix ones(n, 1, 1.0), zeros(n, 1, 0.0);
      VarPtr d_loss = ag::Scale(
          ag::Add(ag::BinaryCrossEntropySum(
                      ag::Sigmoid(ag::MatMul(zs_c, wdisc)), ones),
                  ag::BinaryCrossEntropySum(
                      ag::Sigmoid(ag::MatMul(za_c, wdisc)), zeros)),
          1.0 / (2.0 * n));
      ag::Backward(d_loss);
      disc_optimizer.Step();
    }

    // Refresh outlier weights from the current per-node errors.
    if (opt.reweight_every > 0 &&
        (epoch + 1) % opt.reweight_every == 0) {
      const DecoderErrors err = ComputeDecoderErrors(
          zs->value(), pairs->pairs(), xhat->value(), features);
      std::vector<double> combined(n);
      for (int i = 0; i < n; ++i)
        combined[i] = err.attribute[i] + err.structure[i];
      weights = ErrorsToWeights(combined);
    }

    if (epoch == opt.epochs - 1) {
      zs_final = zs->value();
      za_final = za->value();
      xhat_final = xhat->value();
    }
  }

  if (embedding != nullptr)
    *embedding = Matrix::ConcatColumns(zs_final, za_final);
  if (scores != nullptr) {
    // Anomaly score: mean of the max-normalised structure + attribute errors.
    *scores = MixDecoderErrors(
        ComputeDecoderErrors(zs_final, pairs->pairs(), xhat_final, features),
        0.5);
  }
}

Matrix Done::EmbedImpl(const Graph& graph, const EmbedOptions& options) {
  Matrix embedding;
  Run(graph, options, &embedding, nullptr);
  return embedding;
}

std::vector<double> Done::ScoreAnomaliesImpl(const Graph& graph,
                                             const EmbedOptions& options) {
  std::vector<double> scores;
  Run(graph, options, nullptr, &scores);
  return scores;
}

}  // namespace aneci
