#include "embed/dane.h"

#include "autograd/ops.h"
#include "core/losses.h"
#include "graph/proximity.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

Matrix Dane::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  const Options opt = WithOverrides(options_, eo);
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);
  const int half = std::max(2, opt.dim / 2);

  ProximityOptions prox;
  prox.order = 2;
  const SparseMatrix proximity = HighOrderProximity(graph, prox);
  const SparseMatrix x_sparse = graph.Features();
  const Matrix features = graph.FeaturesOrIdentity();

  // Structure branch: encode rows of the proximity matrix.
  auto ws1 =
      ag::MakeParameter(Matrix::GlorotUniform(n, opt.hidden_dim, rng));
  auto ws2 =
      ag::MakeParameter(Matrix::GlorotUniform(opt.hidden_dim, half, rng));
  // Attribute branch.
  auto wa1 = ag::MakeParameter(
      Matrix::GlorotUniform(features.cols(), opt.hidden_dim, rng));
  auto wa2 =
      ag::MakeParameter(Matrix::GlorotUniform(opt.hidden_dim, half, rng));
  // Attribute decoder back to feature space.
  auto wdec = ag::MakeParameter(
      Matrix::GlorotUniform(half, features.cols(), rng));

  auto pairs = ag::PairSet::Build(
      SampleReconstructionPairs(proximity, opt.negatives_per_node, rng,
                                /*binarize=*/true),
      n);

  VarPtr zs, za;
  TrainLoop loop({ws1, ws2, wa1, wa2, wdec},
                 LoopOptions(opt, eo, SnapshotByCopy(&pairs)));
  loop.RunOrDie([&](int epoch) {
    if (epoch % 25 == 24)
      pairs = ag::PairSet::Build(
          SampleReconstructionPairs(proximity, opt.negatives_per_node, rng),
          n);

    zs = ag::MatMul(ag::LeakyRelu(ag::SpMM(&proximity, ws1), 0.01), ws2);
    za = ag::MatMul(ag::LeakyRelu(ag::SpMM(&x_sparse, wa1), 0.01), wa2);

    // Structure reconstruction via inner product on the structure view.
    // Kept as a raw sum (GAE-style) so gradients are strong enough to train
    // within the epoch budget; the attribute and consistency terms are
    // scaled to the same per-node magnitude.
    VarPtr l_struct = ag::InnerProductPairBce(zs, pairs);
    const double per_node = static_cast<double>(pairs->size()) / n;
    VarPtr xhat = ag::MatMul(za, wdec);
    VarPtr l_attr = ag::Scale(
        ag::SumSquares(ag::Sub(xhat, ag::MakeConstant(features))),
        per_node * n / static_cast<double>(features.size()));
    // Cross-view consistency.
    VarPtr l_cons = ag::Scale(ag::SumSquares(ag::Sub(zs, za)),
                              opt.consistency_weight * per_node);
    return ag::Add(ag::Add(l_struct, l_attr), l_cons);
  });
  return Matrix::ConcatColumns(zs->value(), za->value());
}

}  // namespace aneci
