#include "embed/spectral.h"

#include "linalg/eigen.h"
#include "linalg/kmeans.h"
#include "util/check.h"

namespace aneci {
namespace {

// L = I - D^{-1/2} A D^{-1/2} (self-loop-free adjacency).
SparseMatrix NormalizedLaplacian(const Graph& graph) {
  const SparseMatrix norm =
      graph.Adjacency(false).SymmetricallyNormalized();
  SparseMatrix identity = SparseMatrix::Identity(graph.num_nodes());
  return identity.AddScaled(norm, -1.0);
}

}  // namespace

Matrix LaplacianEigenmaps::EmbedImpl(const Graph& graph,
                                     const EmbedOptions& eo) {
  const Options opt = WithOverrides(options_, eo);
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 1);
  const int dim = std::min(opt.dim, n - 1);

  const SparseMatrix laplacian = NormalizedLaplacian(graph);
  // Request one extra pair: the smallest eigenvector (constant within each
  // connected component, eigenvalue 0) carries no discriminative signal.
  EigenResult eig =
      LanczosSmallest(laplacian, dim + 1, rng, opt.lanczos_steps);

  const int available = static_cast<int>(eig.values.size());
  const int take = std::max(1, std::min(dim, available - 1));
  Matrix embedding(n, take);
  for (int c = 0; c < take; ++c)
    for (int i = 0; i < n; ++i) embedding(i, c) = eig.vectors(i, c + 1);
  return embedding;
}

std::vector<int> SpectralClustering(const Graph& graph, int k, Rng& rng) {
  LaplacianEigenmaps::Options opt;
  opt.dim = k;
  LaplacianEigenmaps eigenmaps(opt);
  EmbedOptions eo;
  eo.rng = &rng;
  Matrix embedding = RowNormalizeL2(eigenmaps.Embed(graph, eo));
  KMeansOptions km;
  km.restarts = 3;
  return KMeans(embedding, k, rng, km).assignment;
}

}  // namespace aneci
