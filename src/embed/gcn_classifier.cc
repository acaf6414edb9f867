#include "embed/gcn_classifier.h"

#include "autograd/ops.h"
#include "core/train_loop.h"
#include "graph/modularity.h"
#include "util/check.h"
#include "util/trace.h"

namespace aneci {

using ag::VarPtr;

void GcnClassifier::Fit(const Dataset& dataset, Rng& rng) {
  TraceSpan span(options_.robust ? "train/rgcn" : "train/gcn");
  const Graph& graph = dataset.graph;
  const int n = graph.num_nodes();
  const int k = graph.num_classes();
  ANECI_CHECK_GT(k, 1);

  const SparseMatrix s_norm = graph.NormalizedAdjacency();
  const SparseMatrix x_sparse = graph.Features();

  std::vector<int> train_labels;
  for (int i : dataset.train_idx) train_labels.push_back(graph.labels()[i]);

  auto w1 = ag::MakeParameter(
      Matrix::GlorotUniform(x_sparse.cols(), options_.hidden_dim, rng));
  auto w2 =
      ag::MakeParameter(Matrix::GlorotUniform(options_.hidden_dim, k, rng));
  // RGCN variance stream.
  auto w1v = ag::MakeParameter(
      Matrix::GlorotUniform(x_sparse.cols(), options_.hidden_dim, rng));

  std::vector<VarPtr> params = {w1, w2};
  if (options_.robust) params.push_back(w1v);
  VarPtr logits;
  TrainLoop loop(params, {.epochs = options_.epochs,
                          .adam = {.lr = options_.lr,
                                   .weight_decay = options_.weight_decay},
                          .rng = &rng});
  loop.RunOrDie([&](int) {
    if (!options_.robust) {
      VarPtr h1 = ag::Relu(ag::SpMM(&s_norm, ag::SpMM(&x_sparse, w1)));
      logits = ag::SpMM(&s_norm, ag::MatMul(h1, w2));
      return ag::SoftmaxCrossEntropy(logits, dataset.train_idx, train_labels);
    }
    // Gaussian hidden layer: mean mu and variance sigma^2 (softplus-free:
    // sigma = exp of a pre-activation kept small by weight decay).
    VarPtr mu = ag::Relu(ag::SpMM(&s_norm, ag::SpMM(&x_sparse, w1)));
    VarPtr log_sigma = ag::SpMM(&s_norm, ag::SpMM(&x_sparse, w1v));
    VarPtr sigma = ag::Exp(ag::Scale(log_sigma, 0.5));
    // Variance-based attention: alpha = exp(-sigma^2) gates the mean, so
    // high-variance (attacked) dimensions contribute less.
    VarPtr attention = ag::Exp(ag::Scale(ag::Hadamard(sigma, sigma), -1.0));
    VarPtr gated = ag::Hadamard(mu, attention);
    // Sample h = gated + eps (.) sigma during training.
    Matrix eps = Matrix::RandomNormal(n, options_.hidden_dim, 1.0, rng);
    VarPtr h1 =
        ag::Add(gated, ag::Hadamard(ag::MakeConstant(std::move(eps)), sigma));
    logits = ag::SpMM(&s_norm, ag::MatMul(h1, w2));
    // KL-style penalty keeping the Gaussians near N(0, I).
    VarPtr reg =
        ag::Scale(ag::Add(ag::SumSquares(mu), ag::SumSquares(sigma)), 5e-4 / n);
    return ag::Add(
        ag::SoftmaxCrossEntropy(logits, dataset.train_idx, train_labels), reg);
  });
  predictions_ = ArgmaxAssignment(logits->value());
}

double NodeClassifier::Accuracy(const Dataset& dataset,
                                const std::vector<int>& eval_idx) const {
  ANECI_CHECK(!predictions_.empty());
  ANECI_CHECK(!eval_idx.empty());
  int correct = 0;
  for (int i : eval_idx)
    if (predictions_[i] == dataset.graph.labels()[i]) ++correct;
  return static_cast<double>(correct) / eval_idx.size();
}

}  // namespace aneci
