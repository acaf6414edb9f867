#include "embed/dominant.h"

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "core/losses.h"
#include "embed/decoder_errors.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

void Dominant::Run(const Graph& graph, const EmbedOptions& eo,
                   Matrix* embedding, std::vector<double>* scores) const {
  Options opt = options_;
  if (eo.dim > 1) opt.dim = eo.dim;
  if (eo.epochs > 0) opt.epochs = eo.epochs;
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

  ag::Adam::Options adam;
  adam.lr = opt.lr;
  ag::Adam optimizer({w1, w2, w3}, adam);

  const auto pairs = ag::PairSet::Build(
      SampleReconstructionPairs(a_target, opt.negatives_per_node, rng,
                                /*binarize=*/true),
      n);

  Matrix z_final, xhat_final;
  for (int epoch = 0; epoch < opt.epochs; ++epoch) {
    optimizer.ZeroGrad();
    VarPtr h1 = ag::Relu(ag::SpMM(&s_norm, ag::SpMM(&x_sparse, w1)));
    VarPtr z = ag::SpMM(&s_norm, ag::MatMul(h1, w2));
    VarPtr xhat = ag::SpMM(&s_norm, ag::MatMul(z, w3));

    VarPtr l_struct = ag::Scale(ag::InnerProductPairBce(z, pairs),
                                1.0 / static_cast<double>(pairs->size()));
    VarPtr l_attr = ag::Scale(
        ag::SumSquares(ag::Sub(xhat, ag::MakeConstant(features))),
        1.0 / static_cast<double>(features.size()));
    VarPtr loss = ag::Add(ag::Scale(l_struct, opt.alpha),
                          ag::Scale(l_attr, 1.0 - opt.alpha));
    ag::Backward(loss);
    optimizer.Step();
    if (eo.observer != nullptr) eo.observer->OnEpoch(epoch, loss->value()(0, 0));

    if (epoch == opt.epochs - 1) {
      z_final = z->value();
      xhat_final = xhat->value();
    }
  }

  if (embedding != nullptr) *embedding = z_final;
  if (scores != nullptr) {
    *scores = MixDecoderErrors(
        ComputeDecoderErrors(z_final, pairs->pairs(), xhat_final, features),
        opt.alpha);
  }
}

Matrix Dominant::EmbedImpl(const Graph& graph, const EmbedOptions& options) {
  Matrix embedding;
  Run(graph, options, &embedding, nullptr);
  return embedding;
}

std::vector<double> Dominant::ScoreAnomaliesImpl(const Graph& graph,
                                                 const EmbedOptions& options) {
  std::vector<double> scores;
  Run(graph, options, nullptr, &scores);
  return scores;
}

}  // namespace aneci
