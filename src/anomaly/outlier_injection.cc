#include "anomaly/outlier_injection.h"

#include <algorithm>

#include "util/check.h"

namespace aneci {
namespace {

// Rewires all of `node`'s edges to random nodes of other communities,
// preserving its degree.
void MakeStructuralOutlier(Graph* graph, int node, Rng& rng) {
  const std::vector<int> old_neighbors = graph->Neighbors(node);
  for (int v : old_neighbors) graph->RemoveEdge(node, v);
  const int n = graph->num_nodes();
  const bool labeled = graph->has_labels();
  const int own = labeled ? graph->labels()[node] : -1;
  int added = 0;
  int attempts = 0;
  while (added < static_cast<int>(old_neighbors.size()) && attempts++ < 50 * n) {
    const int v = static_cast<int>(rng.NextInt(n));
    if (v == node || graph->HasEdge(node, v)) continue;
    if (labeled && graph->labels()[v] == own) continue;
    graph->AddEdge(node, v);
    ++added;
  }
}

// Replaces row `node` of the dense attributes `x` of `graph` with that of a
// random node of a different community.
void MakeAttributeOutlier(const Graph& graph, Matrix* x, int node, Rng& rng) {
  const int n = graph.num_nodes();
  const bool labeled = graph.has_labels();
  const int own = labeled ? graph.labels()[node] : -1;
  for (int attempt = 0; attempt < 50 * n; ++attempt) {
    const int src = static_cast<int>(rng.NextInt(n));
    if (src == node) continue;
    if (labeled && graph.labels()[src] == own) continue;
    std::copy(x->RowPtr(src), x->RowPtr(src) + x->cols(), x->RowPtr(node));
    return;
  }
}

}  // namespace

const char* OutlierKindName(OutlierKind kind) {
  switch (kind) {
    case OutlierKind::kStructural:
      return "S";
    case OutlierKind::kAttribute:
      return "A";
    case OutlierKind::kCombined:
      return "S&A";
    case OutlierKind::kMix:
      return "Mix";
  }
  return "?";
}

OutlierInjectionResult InjectOutliers(const Graph& graph, OutlierKind kind,
                                      double fraction, Rng& rng) {
  ANECI_CHECK(fraction > 0.0 && fraction < 1.0);
  OutlierInjectionResult result;
  result.graph = graph;
  const int n = graph.num_nodes();
  result.is_outlier.assign(n, 0);

  const int count = std::max(1, static_cast<int>(n * fraction));
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  for (int i = n - 1; i > 0; --i) std::swap(order[i], order[rng.NextInt(i + 1)]);
  result.outlier_ids.assign(order.begin(), order.begin() + count);

  const bool has_attrs = graph.has_attributes();
  // Attribute outliers edit one dense copy, stored back at the end.
  Matrix x = has_attrs ? graph.attributes().ToDense() : Matrix();
  for (size_t idx = 0; idx < result.outlier_ids.size(); ++idx) {
    const int node = result.outlier_ids[idx];
    result.is_outlier[node] = 1;
    OutlierKind effective = kind;
    if (kind == OutlierKind::kMix) {
      switch (idx % 3) {
        case 0:
          effective = OutlierKind::kStructural;
          break;
        case 1:
          effective = OutlierKind::kAttribute;
          break;
        default:
          effective = OutlierKind::kCombined;
      }
    }
    if (!has_attrs &&
        (effective == OutlierKind::kAttribute ||
         effective == OutlierKind::kCombined)) {
      effective = OutlierKind::kStructural;
    }
    switch (effective) {
      case OutlierKind::kStructural:
        MakeStructuralOutlier(&result.graph, node, rng);
        break;
      case OutlierKind::kAttribute:
        MakeAttributeOutlier(result.graph, &x, node, rng);
        break;
      case OutlierKind::kCombined:
        MakeStructuralOutlier(&result.graph, node, rng);
        MakeAttributeOutlier(result.graph, &x, node, rng);
        break;
      case OutlierKind::kMix:
        break;  // Unreachable; resolved above.
    }
  }
  if (has_attrs) result.graph.SetAttributes(SparseMatrix::FromDense(x));
  return result;
}

}  // namespace aneci
