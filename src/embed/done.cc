#include "embed/done.h"

#include <cmath>

#include "autograd/ops.h"
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
  const Options opt = WithOverrides(options_, eo);
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

  std::vector<VarPtr> params = {ws1, ws2, wa1, wa2, wdec};
  if (opt.adversarial) params.push_back(wdisc);

  const auto pairs = ag::PairSet::Build(
      SampleReconstructionPairs(a_norm, opt.negatives_per_node, rng,
                                /*binarize=*/true),
      n);
  std::vector<ag::PairTarget> edge_list;
  edge_list.reserve(graph.num_edges());
  for (const Edge& e : graph.edges()) edge_list.push_back({e.u, e.v, 1.0});
  const auto edge_pairs = ag::PairSet::Build(std::move(edge_list), n);
  std::vector<double> weights(n, 1.0);

  VarPtr zs, za, xhat;
  auto loss_fn = [&](int) {
    zs = ag::MatMul(ag::LeakyRelu(ag::SpMM(&a_norm, ws1), 0.01), ws2);
    za = ag::MatMul(ag::LeakyRelu(ag::SpMM(&x_sparse, wa1), 0.01), wa2);

    // Structure reconstruction (outlier-weighted through the pair targets is
    // approximated by node weights on the homophily + attribute terms).
    VarPtr l_struct = ag::InnerProductPairBce(zs, pairs);
    const double per_node = static_cast<double>(pairs->size()) / n;

    // Attribute reconstruction, weighted per node by the outlier weights.
    xhat = ag::MatMul(za, wdec);
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
    if (!opt.adversarial) return loss;

    // Generator term: both views should fool the discriminator toward 0.5;
    // implemented as minimising the squared discriminator margin. It sees
    // the discriminator as a constant, so only the encoders move.
    VarPtr wdisc_c = ag::MakeConstant(wdisc->value());
    VarPtr margin = ag::Sub(ag::MatMul(zs, wdisc_c), ag::MatMul(za, wdisc_c));
    loss = ag::Add(loss, ag::Scale(ag::SumSquares(margin), 0.1 / n));
    // Discriminator term: separate the views, seen as constants, so only
    // the discriminator moves.
    VarPtr zs_c = ag::MakeConstant(zs->value());
    VarPtr za_c = ag::MakeConstant(za->value());
    Matrix ones(n, 1, 1.0), zeros(n, 1, 0.0);
    VarPtr d_loss = ag::Scale(
        ag::Add(ag::BinaryCrossEntropySum(
                    ag::Sigmoid(ag::MatMul(zs_c, wdisc)), ones),
                ag::BinaryCrossEntropySum(
                    ag::Sigmoid(ag::MatMul(za_c, wdisc)), zeros)),
        1.0 / (2.0 * n));
    return ag::Add(loss, d_loss);
  };
  // Refresh outlier weights from the current per-node errors.
  auto reweight = [&](const EpochStatBlob& stats) {
    if (opt.reweight_every <= 0 || (stats.epoch + 1) % opt.reweight_every != 0)
      return;
    const DecoderErrors err = ComputeDecoderErrors(
        zs->value(), pairs->pairs(), xhat->value(), features);
    std::vector<double> combined(n);
    for (int i = 0; i < n; ++i)
      combined[i] = err.attribute[i] + err.structure[i];
    weights = ErrorsToWeights(combined);
  };
  TrainLoop(params, LoopOptions(opt, eo, SnapshotByCopy(&weights)))
      .RunOrDie(loss_fn, reweight);

  if (embedding != nullptr)
    *embedding = Matrix::ConcatColumns(zs->value(), za->value());
  if (scores != nullptr) {
    // Anomaly score: mean of the max-normalised structure + attribute errors.
    *scores = MixDecoderErrors(
        ComputeDecoderErrors(zs->value(), pairs->pairs(), xhat->value(),
                             features),
        0.5);
  }
}

}  // namespace aneci
