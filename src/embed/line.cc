#include "embed/line.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace aneci {
namespace {

class DegreeSampler {
 public:
  explicit DegreeSampler(const Graph& graph) {
    cum_.resize(graph.num_nodes());
    double acc = 0.0;
    for (int i = 0; i < graph.num_nodes(); ++i) {
      acc += std::pow(graph.Degree(i) + 1.0, 0.75);
      cum_[i] = acc;
    }
  }
  int Sample(Rng& rng) const {
    const double t = rng.NextDouble() * cum_.back();
    const auto it = std::lower_bound(cum_.begin(), cum_.end(), t);
    return static_cast<int>(std::min<size_t>(it - cum_.begin(),
                                             cum_.size() - 1));
  }

 private:
  std::vector<double> cum_;
};

inline void PairUpdate(double* u, double* v, int dim, double label, double lr,
                       bool update_u) {
  double dot = 0.0;
  for (int i = 0; i < dim; ++i) dot += u[i] * v[i];
  const double s = 1.0 / (1.0 + std::exp(-dot));
  const double g = lr * (label - s);
  for (int i = 0; i < dim; ++i) {
    const double uu = u[i];
    if (update_u) u[i] += g * v[i];
    v[i] += g * uu;
  }
}

}  // namespace

Matrix Line::EmbedImpl(const Graph& graph, const EmbedOptions& eo) {
  const Options opt = WithOverrides(options_, eo);
  Rng& rng = *eo.rng;
  const int n = graph.num_nodes();
  const int m = graph.num_edges();
  ANECI_CHECK_GT(n, 0);
  const int half = std::max(2, opt.dim / 2);
  const int64_t samples =
      opt.samples > 0 ? opt.samples
                           : 200LL * std::max(m, n);

  Matrix first = Matrix::RandomUniform(n, half, 0.5 / half, rng);
  Matrix second = Matrix::RandomUniform(n, half, 0.5 / half, rng);
  Matrix context(n, half);  // Second-order context table.
  DegreeSampler sampler(graph);

  if (m > 0) {
    for (int64_t step = 0; step < samples; ++step) {
      const double lr =
          opt.lr *
          std::max(0.05, 1.0 - static_cast<double>(step) / samples);
      const Edge& e = graph.edges()[rng.NextInt(m)];
      // Undirected edge, random orientation.
      int u = e.u, v = e.v;
      if (rng.NextBool(0.5)) std::swap(u, v);

      // First order: symmetric inner-product on `first`.
      PairUpdate(first.RowPtr(u), first.RowPtr(v), half, 1.0, lr, true);
      for (int k = 0; k < opt.negatives; ++k) {
        const int neg = sampler.Sample(rng);
        if (neg == v || neg == u) continue;
        PairUpdate(first.RowPtr(u), first.RowPtr(neg), half, 0.0, lr, true);
      }

      // Second order: vertex table vs context table.
      PairUpdate(second.RowPtr(u), context.RowPtr(v), half, 1.0, lr, true);
      for (int k = 0; k < opt.negatives; ++k) {
        const int neg = sampler.Sample(rng);
        if (neg == v) continue;
        PairUpdate(second.RowPtr(u), context.RowPtr(neg), half, 0.0, lr, true);
      }
    }
  }

  // Concatenate first- and second-order halves.
  return Matrix::ConcatColumns(first, second);
}

}  // namespace aneci
