#include "embed/gat.h"

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

void GatClassifier::Fit(const Dataset& dataset, Rng& rng) {
  const Graph& graph = dataset.graph;
  const int n = graph.num_nodes();
  const int k = graph.num_classes();
  ANECI_CHECK_GT(k, 1);

  const SparseMatrix adj = graph.Adjacency(/*add_self_loops=*/true);
  const SparseMatrix x_sparse = graph.Features();

  std::vector<int> train_labels;
  for (int i : dataset.train_idx) train_labels.push_back(graph.labels()[i]);

  auto w1 = ag::MakeParameter(
      Matrix::GlorotUniform(x_sparse.cols(), options_.hidden_dim, rng));
  auto a1_src = ag::MakeParameter(
      Matrix::GlorotUniform(1, options_.hidden_dim, rng));
  auto a1_dst = ag::MakeParameter(
      Matrix::GlorotUniform(1, options_.hidden_dim, rng));
  auto w2 =
      ag::MakeParameter(Matrix::GlorotUniform(options_.hidden_dim, k, rng));
  auto a2_src = ag::MakeParameter(Matrix::GlorotUniform(1, k, rng));
  auto a2_dst = ag::MakeParameter(Matrix::GlorotUniform(1, k, rng));

  ag::Adam::Options adam;
  adam.lr = options_.lr;
  adam.weight_decay = options_.weight_decay;
  ag::Adam optimizer({w1, a1_src, a1_dst, w2, a2_src, a2_dst}, adam);

  Matrix final_logits;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    optimizer.ZeroGrad();
    VarPtr h1 = ag::Relu(ag::GraphAttention(&adj, ag::SpMM(&x_sparse, w1),
                                            a1_src, a1_dst,
                                            options_.attention_slope));
    VarPtr logits = ag::GraphAttention(&adj, ag::MatMul(h1, w2), a2_src,
                                       a2_dst, options_.attention_slope);
    VarPtr loss =
        ag::SoftmaxCrossEntropy(logits, dataset.train_idx, train_labels);
    ag::Backward(loss);
    optimizer.Step();
    if (epoch == options_.epochs - 1) final_logits = logits->value();
  }

  predictions_.assign(n, 0);
  for (int i = 0; i < n; ++i) {
    const double* row = final_logits.RowPtr(i);
    int best = 0;
    for (int c = 1; c < k; ++c)
      if (row[c] > row[best]) best = c;
    predictions_[i] = best;
  }
}

double GatClassifier::Accuracy(const Dataset& dataset,
                               const std::vector<int>& eval_idx) const {
  ANECI_CHECK(!predictions_.empty());
  ANECI_CHECK(!eval_idx.empty());
  int correct = 0;
  for (int i : eval_idx)
    if (predictions_[i] == dataset.graph.labels()[i]) ++correct;
  return static_cast<double>(correct) / eval_idx.size();
}

Matrix Gate::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  Options opt = options_;
  if (eo.dim > 1) opt.dim = eo.dim;
  if (eo.epochs > 0) opt.epochs = eo.epochs;
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);

  const SparseMatrix adj = graph.Adjacency(/*add_self_loops=*/true);
  const SparseMatrix x_sparse = graph.Features();

  auto w1 = ag::MakeParameter(
      Matrix::GlorotUniform(x_sparse.cols(), opt.hidden_dim, rng));
  auto a1_src = ag::MakeParameter(
      Matrix::GlorotUniform(1, opt.hidden_dim, rng));
  auto a1_dst = ag::MakeParameter(
      Matrix::GlorotUniform(1, opt.hidden_dim, rng));
  auto w2 = ag::MakeParameter(
      Matrix::GlorotUniform(opt.hidden_dim, opt.dim, rng));
  auto a2_src = ag::MakeParameter(Matrix::GlorotUniform(1, opt.dim, rng));
  auto a2_dst = ag::MakeParameter(Matrix::GlorotUniform(1, opt.dim, rng));

  ag::Adam::Options adam;
  adam.lr = opt.lr;
  ag::Adam optimizer({w1, a1_src, a1_dst, w2, a2_src, a2_dst}, adam);

  auto sample_pairs = [&]() {
    std::vector<ag::PairTarget> pairs;
    for (const Edge& e : graph.edges()) {
      pairs.push_back({e.u, e.v, 1.0});
      for (int kk = 0; kk < opt.negatives_per_edge; ++kk) {
        const int a = static_cast<int>(rng.NextInt(n));
        const int b = static_cast<int>(rng.NextInt(n));
        if (a != b && !graph.HasEdge(a, b)) pairs.push_back({a, b, 0.0});
      }
    }
    return ag::PairSet::Build(std::move(pairs), n);
  };

  Matrix final_z;
  for (int epoch = 0; epoch < opt.epochs; ++epoch) {
    optimizer.ZeroGrad();
    VarPtr h1 = ag::Relu(ag::GraphAttention(&adj, ag::SpMM(&x_sparse, w1),
                                            a1_src, a1_dst,
                                            opt.attention_slope));
    VarPtr z = ag::GraphAttention(&adj, ag::MatMul(h1, w2), a2_src, a2_dst,
                                  opt.attention_slope);
    VarPtr loss = ag::InnerProductPairBce(z, sample_pairs());
    ag::Backward(loss);
    optimizer.Step();
    if (eo.observer != nullptr) eo.observer->OnEpoch(epoch, loss->value()(0, 0));
    if (epoch == opt.epochs - 1) final_z = z->value();
  }
  return final_z;
}

}  // namespace aneci
