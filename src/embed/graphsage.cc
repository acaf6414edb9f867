#include "embed/graphsage.h"

#include "autograd/ops.h"
#include "core/sage_encoder.h"
#include "embed/deepwalk.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

Matrix GraphSage::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  const Options opt = WithOverrides(options_, eo);
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);

  const SparseMatrix x_sparse = graph.Features();

  auto w1 = ag::MakeParameter(
      Matrix::GlorotUniform(x_sparse.cols(), opt.hidden_dim, rng));
  auto w2 = ag::MakeParameter(
      Matrix::GlorotUniform(opt.hidden_dim, opt.dim, rng));

  SageSamplerOptions sampler;
  sampler.fanout = opt.fanout;

  RandomWalkOptions walk_opt;
  walk_opt.walk_length = opt.walk_length;
  walk_opt.walks_per_node = opt.walks_per_node;

  // This epoch's sampled aggregation operators (two-layer depth); they
  // must outlive the loop's Backward.
  SparseMatrix s1, s2;
  TrainLoop({w1, w2}, LoopOptions(opt, eo)).RunOrDie([&](int) {
    s1 = SampleSageOperator(graph, sampler, rng);
    s2 = SampleSageOperator(graph, sampler, rng);
    VarPtr h1 = ag::Relu(ag::SpMM(&s1, ag::SpMM(&x_sparse, w1)));
    VarPtr h = ag::SpMM(&s2, ag::MatMul(h1, w2));

    // Positive pairs from short random walks; uniform negatives.
    std::vector<ag::PairTarget> pairs;
    for (int w = 0; w < opt.walks_per_node; ++w) {
      for (int start = 0; start < n; ++start) {
        const std::vector<int> walk = RandomWalk(graph, start, walk_opt, rng);
        for (size_t pos = 1; pos < walk.size(); ++pos) {
          pairs.push_back({walk[0], walk[pos], 1.0});
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      for (int s = 0; s < opt.negatives_per_node; ++s) {
        const int j = static_cast<int>(rng.NextInt(n));
        if (j != i && !graph.HasEdge(i, j)) pairs.push_back({i, j, 0.0});
      }
    }
    return ag::InnerProductPairBce(h, ag::PairSet::Build(std::move(pairs), n));
  });

  // Deterministic full-neighbourhood forward for the final embedding.
  const SparseMatrix full = graph.Adjacency(true).RowNormalizedL1();
  VarPtr h1_full = ag::Relu(ag::SpMM(&full, ag::SpMM(&x_sparse, w1)));
  return ag::SpMM(&full, ag::MatMul(h1_full, w2))->value();
}

}  // namespace aneci
