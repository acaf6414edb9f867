#include "embed/anomaly_dae.h"

#include "autograd/ops.h"
#include "core/losses.h"
#include "embed/decoder_errors.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

void AnomalyDae::Run(const Graph& graph, const EmbedOptions& eo,
                     Matrix* embedding, std::vector<double>* scores) const {
  const Options opt = WithOverrides(options_, eo);
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);

  const SparseMatrix a_norm = graph.Adjacency(true).RowNormalizedL1();
  const SparseMatrix x_sparse = graph.Features();
  const Matrix features = graph.FeaturesOrIdentity();

  // Structure encoder consumes [adjacency row || attributes] jointly, as the
  // original concatenates both modalities before embedding.
  auto ws_a =
      ag::MakeParameter(Matrix::GlorotUniform(n, opt.hidden_dim, rng));
  auto ws_x = ag::MakeParameter(
      Matrix::GlorotUniform(features.cols(), opt.hidden_dim, rng));
  auto ws2 = ag::MakeParameter(
      Matrix::GlorotUniform(opt.hidden_dim, opt.dim, rng));
  // Attribute decoder weight V_a (reconstructs X from the structure view).
  auto wa = ag::MakeParameter(
      Matrix::GlorotUniform(opt.dim, features.cols(), rng));

  const auto pairs = ag::PairSet::Build(
      SampleReconstructionPairs(a_norm, opt.negatives_per_node, rng,
                                /*binarize=*/true),
      n);

  VarPtr z, xhat;
  TrainLoop({ws_a, ws_x, ws2, wa}, LoopOptions(opt, eo)).RunOrDie([&](int) {
    VarPtr h = ag::LeakyRelu(
        ag::Add(ag::SpMM(&a_norm, ws_a), ag::SpMM(&x_sparse, ws_x)), 0.01);
    z = ag::MatMul(h, ws2);
    xhat = ag::MatMul(z, wa);

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
