#include "embed/dominant.h"

#include "autograd/ops.h"
#include "core/losses.h"
#include "embed/decoder_errors.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

void Dominant::Run(const Graph& graph, const EmbedOptions& eo,
                   Matrix* embedding, std::vector<double>* scores) const {
  const Options opt = WithOverrides(options_, eo);
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);

  const SparseMatrix s_norm = graph.NormalizedAdjacency();
  const SparseMatrix a_target = graph.Adjacency(true).RowNormalizedL1();
  const SparseMatrix x_sparse = graph.Features();
  const Matrix features = graph.FeaturesOrIdentity();

  auto w1 = ag::MakeParameter(
      Matrix::GlorotUniform(features.cols(), opt.hidden_dim, rng));
  auto w2 = ag::MakeParameter(
      Matrix::GlorotUniform(opt.hidden_dim, opt.dim, rng));
  // Attribute decoder: one GCN layer back to the feature dimension.
  auto w3 = ag::MakeParameter(
      Matrix::GlorotUniform(opt.dim, features.cols(), rng));

  const auto pairs = ag::PairSet::Build(
      SampleReconstructionPairs(a_target, opt.negatives_per_node, rng,
                                /*binarize=*/true),
      n);

  VarPtr z, xhat;
  TrainLoop({w1, w2, w3}, LoopOptions(opt, eo)).RunOrDie([&](int) {
    VarPtr h1 = ag::Relu(ag::SpMM(&s_norm, ag::SpMM(&x_sparse, w1)));
    z = ag::SpMM(&s_norm, ag::MatMul(h1, w2));
    xhat = ag::SpMM(&s_norm, ag::MatMul(z, w3));

    VarPtr l_struct = ag::Scale(ag::InnerProductPairBce(z, pairs),
                                1.0 / static_cast<double>(pairs->size()));
    VarPtr l_attr = ag::Scale(
        ag::SumSquares(ag::Sub(xhat, ag::MakeConstant(features))),
        1.0 / static_cast<double>(features.size()));
    return ag::Add(ag::Scale(l_struct, opt.alpha),
                   ag::Scale(l_attr, 1.0 - opt.alpha));
  });

  if (embedding != nullptr) *embedding = z->value();
  if (scores != nullptr) {
    *scores = MixDecoderErrors(
        ComputeDecoderErrors(z->value(), pairs->pairs(), xhat->value(),
                             features),
        opt.alpha);
  }
}

}  // namespace aneci
