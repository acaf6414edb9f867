#include "defense/attribute_clip.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "anomaly/isolation_forest.h"

namespace aneci {

DefenseReport AttributeClip::Apply(Graph* graph, Rng& rng) const {
  DefenseReport report;
  report.defense = name();
  report.edges_before = graph->num_edges();
  if (!graph->has_attributes()) {
    report.note = "no attributes, skipped";
    return report;
  }
  const int n = graph->num_nodes();
  const int to_clip =
      std::min(n, static_cast<int>(std::llround(options_.fraction * n)));
  if (to_clip <= 0) return report;

  IsolationForest::Options forest_opt;
  forest_opt.num_trees = options_.num_trees;
  IsolationForest forest(forest_opt);
  Matrix x = graph->attributes().ToDense();  // Clipped in place below.
  forest.Fit(x, rng);
  const std::vector<double> scores = forest.Score(x);

  // Flag the top-scored nodes; ties break by node id for determinism.
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return scores[a] > scores[b]; });
  std::vector<char> flagged(n, 0);
  for (int i = 0; i < to_clip; ++i) flagged[order[i]] = 1;

  // Replace each flagged row with the mean of its unflagged neighbours'
  // rows. Only unflagged rows are read, so each mean sees the original
  // attributes and the result does not depend on the clip order. Flagged
  // nodes without an unflagged neighbour keep their row (no trustworthy
  // local evidence to clip toward).
  const int d = x.cols();
  int clipped = 0;
  for (int i = 0; i < n; ++i) {
    if (!flagged[i]) continue;
    int support = 0;
    std::vector<double> mean(d, 0.0);
    for (int j : graph->Neighbors(i)) {
      if (flagged[j]) continue;
      const double* row = x.RowPtr(j);
      for (int c = 0; c < d; ++c) mean[c] += row[c];
      ++support;
    }
    if (support == 0) continue;
    double* out = x.RowPtr(i);
    for (int c = 0; c < d; ++c) out[c] = mean[c] / support;
    ++clipped;
  }
  graph->SetAttributes(SparseMatrix::FromDense(x));
  report.nodes_clipped = clipped;
  return report;
}

}  // namespace aneci
