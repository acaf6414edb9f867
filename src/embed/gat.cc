#include "embed/gat.h"

#include "autograd/ops.h"
#include "core/losses.h"
#include "graph/modularity.h"
#include "util/check.h"
#include "util/trace.h"

namespace aneci {

using ag::VarPtr;

void GatClassifier::Fit(const Dataset& dataset, Rng& rng) {
  TraceSpan span("train/gat");
  const Graph& graph = dataset.graph;
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

  VarPtr logits;
  TrainLoop loop({w1, a1_src, a1_dst, w2, a2_src, a2_dst},
                 {.epochs = options_.epochs,
                  .adam = {.lr = options_.lr,
                           .weight_decay = options_.weight_decay},
                  .rng = &rng});
  loop.RunOrDie([&](int) {
    VarPtr h1 = ag::Relu(ag::GraphAttention(&adj, ag::SpMM(&x_sparse, w1),
                                            a1_src, a1_dst,
                                            options_.attention_slope));
    logits = ag::GraphAttention(&adj, ag::MatMul(h1, w2), a2_src, a2_dst,
                                options_.attention_slope);
    return ag::SoftmaxCrossEntropy(logits, dataset.train_idx, train_labels);
  });
  predictions_ = ArgmaxAssignment(logits->value());
}

Matrix Gate::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  const Options opt = WithOverrides(options_, eo);
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

  VarPtr z;
  TrainLoop loop({w1, a1_src, a1_dst, w2, a2_src, a2_dst},
                 LoopOptions(opt, eo));
  loop.RunOrDie([&](int) {
    VarPtr h1 = ag::Relu(ag::GraphAttention(&adj, ag::SpMM(&x_sparse, w1),
                                            a1_src, a1_dst,
                                            opt.attention_slope));
    z = ag::GraphAttention(&adj, ag::MatMul(h1, w2), a2_src, a2_dst,
                           opt.attention_slope);
    return ag::InnerProductPairBce(
        z, SampleEdgePairs(graph, opt.negatives_per_edge, rng));
  });
  return z->value();
}

}  // namespace aneci
