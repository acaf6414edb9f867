#include "embed/hope.h"

#include <cmath>

#include "linalg/eigen.h"
#include "util/check.h"

namespace aneci {

Matrix Hope::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  const Options opt = WithOverrides(options_, eo);
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  ANECI_CHECK_GT(n, 1);
  const int dim = std::min(opt.dim, n - 1);

  // Truncated Katz proximity K = sum_{l=1..order} beta^l A^l (symmetric for
  // undirected graphs, so an eigendecomposition doubles as the SVD).
  const SparseMatrix a = graph.Adjacency(false);
  SparseMatrix power = a;
  SparseMatrix katz(n, n);
  double coeff = opt.beta;
  katz = katz.AddScaled(a, coeff);
  for (int l = 2; l <= opt.order; ++l) {
    power = power.MultiplySparse(a, /*drop_tol=*/1e-9);
    coeff *= opt.beta;
    katz = katz.AddScaled(power, coeff);
  }

  // Largest-magnitude eigenpairs of K = smallest of -K.
  SparseMatrix neg = SparseMatrix(n, n).AddScaled(katz, -1.0);
  EigenResult eig = LanczosSmallest(neg, dim, rng);

  Matrix z(n, static_cast<int>(eig.values.size()));
  for (size_t c = 0; c < eig.values.size(); ++c) {
    const double scale = std::sqrt(std::abs(eig.values[c]));
    for (int i = 0; i < n; ++i)
      z(i, static_cast<int>(c)) = eig.vectors(i, static_cast<int>(c)) * scale;
  }
  return z;
}

}  // namespace aneci
