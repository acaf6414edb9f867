#include "embed/age.h"

#include <algorithm>
#include <numeric>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "util/check.h"

namespace aneci {

using ag::VarPtr;

Matrix Age::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  Options opt = options_;
  if (eo.dim > 1) opt.dim = eo.dim;
  if (eo.epochs > 0) opt.epochs = eo.epochs;
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
  ag::Adam::Options adam;
  adam.lr = opt.lr;
  ag::Adam optimizer({w}, adam);

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

  Matrix final_z;
  for (int epoch = 0; epoch < opt.epochs; ++epoch) {
    optimizer.ZeroGrad();
    VarPtr z = ag::SpMM(&x_sparse, w);
    VarPtr loss = ag::Scale(ag::InnerProductPairBce(z, pairs),
                            1.0 / static_cast<double>(pairs->size()));
    ag::Backward(loss);
    optimizer.Step();
    if (eo.observer != nullptr) eo.observer->OnEpoch(epoch, loss->value()(0, 0));

    // Adaptive relabelling: rank candidate pairs by current cosine
    // similarity; the most similar become positives, the least negatives.
    if (opt.adaptive_every > 0 &&
        (epoch + 1) % opt.adaptive_every == 0) {
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
      const size_t take =
          static_cast<size_t>(cands.size() * opt.select_fraction);
      std::vector<ag::PairTarget> relabelled;
      for (const Edge& e : graph.edges()) relabelled.push_back({e.u, e.v, 1.0});
      for (size_t i = 0; i < take && i < cands.size(); ++i)
        relabelled.push_back({cands[i].u, cands[i].v, 1.0});
      for (size_t i = 0; i < take && i < cands.size(); ++i) {
        const Cand& c = cands[cands.size() - 1 - i];
        relabelled.push_back({c.u, c.v, 0.0});
      }
      pairs = ag::PairSet::Build(std::move(relabelled), n);
    }
    if (epoch == opt.epochs - 1) final_z = z->value();
  }
  return final_z;
}

}  // namespace aneci
