#include "embed/anomaly_dae.h"

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "core/losses.h"
#include "embed/decoder_errors.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

void AnomalyDae::Run(const Graph& graph, const EmbedOptions& eo,
                     Matrix* embedding, std::vector<double>* scores) const {
  Options opt = options_;
  if (eo.dim > 1) opt.dim = eo.dim;
  if (eo.epochs > 0) opt.epochs = eo.epochs;
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

  ag::Adam::Options adam;
  adam.lr = opt.lr;
  ag::Adam optimizer({ws_a, ws_x, ws2, wa}, adam);

  const auto pairs = ag::PairSet::Build(
      SampleReconstructionPairs(a_norm, opt.negatives_per_node, rng,
                                /*binarize=*/true),
      n);

  Matrix z_final, xhat_final;
  for (int epoch = 0; epoch < opt.epochs; ++epoch) {
    optimizer.ZeroGrad();
    VarPtr h = ag::LeakyRelu(
        ag::Add(ag::SpMM(&a_norm, ws_a), ag::SpMM(&x_sparse, ws_x)), 0.01);
    VarPtr z = ag::MatMul(h, ws2);
    VarPtr xhat = ag::MatMul(z, wa);

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

Matrix AnomalyDae::EmbedImpl(const Graph& graph, const EmbedOptions& options) {
  Matrix embedding;
  Run(graph, options, &embedding, nullptr);
  return embedding;
}

std::vector<double> AnomalyDae::ScoreAnomaliesImpl(
    const Graph& graph, const EmbedOptions& options) {
  std::vector<double> scores;
  Run(graph, options, nullptr, &scores);
  return scores;
}

}  // namespace aneci
