#include "defense/jaccard_prune.h"

#include <algorithm>
#include <vector>

namespace aneci {
namespace {

/// Nonzero attribute support of `node`: the sorted columns of its CSR row.
std::vector<int> RowSupport(const Graph& graph, int node) {
  const SparseMatrix& x = graph.attributes();
  return std::vector<int>(x.col_idx().begin() + x.row_ptr()[node],
                          x.col_idx().begin() + x.row_ptr()[node + 1]);
}

/// Support of `node` pooled with its neighbours, excluding `skip` (the other
/// endpoint of the edge under test, so an inserted edge cannot vouch for
/// itself). Sorted.
std::vector<int> PooledSupport(const Graph& graph, int node, int skip) {
  std::vector<int> support = RowSupport(graph, node);
  for (int w : graph.Neighbors(node)) {
    if (w == skip) continue;
    const std::vector<int> other = RowSupport(graph, w);
    support.insert(support.end(), other.begin(), other.end());
  }
  std::sort(support.begin(), support.end());
  support.erase(std::unique(support.begin(), support.end()), support.end());
  return support;
}

double JaccardOfSorted(const std::vector<int>& a, const std::vector<int>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t i = 0, j = 0, both = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++both;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t either = a.size() + b.size() - both;
  return static_cast<double>(both) / either;
}

bool HaveCommonNeighbor(const Graph& graph, int u, int v) {
  // Neighbor lists are small; quadratic scan beats building a set.
  for (int a : graph.Neighbors(u))
    for (int b : graph.Neighbors(v))
      if (a == b) return true;
  return false;
}

}  // namespace

double AttributeJaccard(const Graph& graph, int u, int v) {
  return JaccardOfSorted(RowSupport(graph, u), RowSupport(graph, v));
}

DefenseReport JaccardPrune::Apply(Graph* graph, Rng& rng) const {
  (void)rng;  // Deterministic: no randomness needed.
  DefenseReport report;
  report.defense = name();
  report.edges_before = graph->num_edges();
  if (!graph->has_attributes()) {
    report.note = "no attributes, skipped";
    return report;
  }

  struct Candidate {
    double similarity;
    int u, v;
  };
  std::vector<Candidate> candidates;
  for (const Edge& e : graph->edges()) {
    const double similarity =
        options_.hops > 0
            ? JaccardOfSorted(PooledSupport(*graph, e.u, e.v),
                              PooledSupport(*graph, e.v, e.u))
            : AttributeJaccard(*graph, e.u, e.v);
    if (similarity >= options_.threshold) continue;
    if (options_.protect_common_neighbors &&
        HaveCommonNeighbor(*graph, e.u, e.v))
      continue;
    candidates.push_back({similarity, e.u, e.v});
  }
  // Most dissimilar first; stable so ties keep edge order and the prune is
  // deterministic at any thread count.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.similarity < b.similarity;
                   });

  std::vector<int> degree(graph->num_nodes());
  for (int i = 0; i < graph->num_nodes(); ++i) degree[i] = graph->Degree(i);
  int dropped = 0;
  for (const Candidate& c : candidates) {
    if (degree[c.u] - 1 < options_.min_residual_degree ||
        degree[c.v] - 1 < options_.min_residual_degree)
      continue;
    graph->RemoveEdge(c.u, c.v);
    --degree[c.u];
    --degree[c.v];
    ++dropped;
  }
  report.edges_dropped = dropped;
  return report;
}

}  // namespace aneci
