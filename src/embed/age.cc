#include "embed/age.h"

#include <algorithm>
#include <numeric>

#include "autograd/ops.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

Matrix Age::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  const Options opt = WithOverrides(options_, eo);
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 0);

  // Laplacian smoothing: X' = (0.5 I + 0.5 S)^t X with S the symmetric
  // normalised adjacency. This is AGE's low-pass filter with k = 2/3
  // replaced by the 1/2 used in its released configuration.
  const SparseMatrix s_norm = graph.NormalizedAdjacency();
  Matrix smoothed = graph.FeaturesOrIdentity();
  for (int t = 0; t < opt.filter_hops; ++t) {
    Matrix propagated = s_norm.Multiply(smoothed);
    propagated *= 0.5;
    smoothed *= 0.5;
    smoothed += propagated;
  }
  const SparseMatrix x_sparse = SparseMatrix::FromDense(smoothed);

  auto w = ag::MakeParameter(
      Matrix::GlorotUniform(smoothed.cols(), opt.dim, rng));
  // Initial training pairs: edges positive, random non-edges negative.
  std::shared_ptr<const ag::PairSet> pairs;
  {
    std::vector<ag::PairTarget> seed;
    for (const Edge& e : graph.edges()) seed.push_back({e.u, e.v, 1.0});
    for (int i = 0; i < n; ++i) {
      const int j = static_cast<int>(rng.NextInt(n));
      if (i != j && !graph.HasEdge(i, j)) seed.push_back({i, j, 0.0});
    }
    pairs = ag::PairSet::Build(std::move(seed), n);
  }

  VarPtr z;
  auto loss_fn = [&](int) {
    z = ag::SpMM(&x_sparse, w);
    return ag::Scale(ag::InnerProductPairBce(z, pairs),
                     1.0 / static_cast<double>(pairs->size()));
  };
  // Adaptive relabelling: rank candidate pairs by current cosine
  // similarity; the most similar become positives, the least negatives.
  auto relabel = [&](const EpochStatBlob& stats) {
    if (opt.adaptive_every <= 0 || (stats.epoch + 1) % opt.adaptive_every != 0)
      return;
    const Matrix& zm = z->value();
    struct Cand {
      int u, v;
      double sim;
    };
    std::vector<Cand> cands;
    cands.reserve(static_cast<size_t>(n) * opt.candidates_per_node);
    for (int i = 0; i < n; ++i) {
      for (int c = 0; c < opt.candidates_per_node; ++c) {
        const int j = static_cast<int>(rng.NextInt(n));
        if (i == j) continue;
        cands.push_back(
            {i, j, CosineSimilarity(zm.RowPtr(i), zm.RowPtr(j), zm.cols())});
      }
    }
    std::sort(cands.begin(), cands.end(),
              [](const Cand& a, const Cand& b) { return a.sim > b.sim; });
    const size_t take = static_cast<size_t>(cands.size() * opt.select_fraction);
    std::vector<ag::PairTarget> relabelled;
    for (const Edge& e : graph.edges()) relabelled.push_back({e.u, e.v, 1.0});
    for (size_t i = 0; i < take && i < cands.size(); ++i)
      relabelled.push_back({cands[i].u, cands[i].v, 1.0});
    for (size_t i = 0; i < take && i < cands.size(); ++i) {
      const Cand& c = cands[cands.size() - 1 - i];
      relabelled.push_back({c.u, c.v, 0.0});
    }
    pairs = ag::PairSet::Build(std::move(relabelled), n);
  };
  TrainLoop({w}, LoopOptions(opt, eo, SnapshotByCopy(&pairs)))
      .RunOrDie(loss_fn, relabel);
  return z->value();
}

}  // namespace aneci
