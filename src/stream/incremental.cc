#include "stream/incremental.h"

#include <algorithm>
#include <deque>
#include <string>

#include "core/aneci.h"

namespace aneci::stream {

std::vector<int> FrontierRegion(const Graph& graph,
                                const std::vector<int>& seeds, int khops) {
  const int n = graph.num_nodes();
  std::vector<int> depth(n, -1);
  std::deque<int> queue;
  for (int s : seeds) {
    if (s < 0 || s >= n || depth[s] == 0) continue;
    depth[s] = 0;
    queue.push_back(s);
  }
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    if (depth[u] >= khops) continue;
    for (int v : graph.Neighbors(u)) {
      if (depth[v] >= 0) continue;
      depth[v] = depth[u] + 1;
      queue.push_back(v);
    }
  }
  std::vector<int> region;
  for (int u = 0; u < n; ++u)
    if (depth[u] >= 0) region.push_back(u);
  return region;
}

Status ValidateRefreshOptions(const RefreshOptions& options) {
  if (options.khops < 0)
    return Status::InvalidArgument("refresh khops must be >= 0, got " +
                                   std::to_string(options.khops));
  if (options.epochs <= 0)
    return Status::InvalidArgument("refresh epochs must be > 0, got " +
                                   std::to_string(options.epochs));
  if (options.min_region < 2)
    return Status::InvalidArgument("refresh min-region must be >= 2, got " +
                                   std::to_string(options.min_region));
  if (options.hidden_dim <= 0)
    return Status::InvalidArgument("refresh hidden-dim must be > 0, got " +
                                   std::to_string(options.hidden_dim));
  return Status::OK();
}

StatusOr<RefreshOutcome> RefreshRegion(
    const Graph& graph, const std::vector<int>& region,
    const RefreshOptions& options, uint64_t seed, Matrix* z, Matrix* p,
    const std::function<bool(int)>& fault_hook) {
  ANECI_RETURN_IF_ERROR(ValidateRefreshOptions(options));
  if (z->rows() != graph.num_nodes() || p->rows() != graph.num_nodes())
    return Status::InvalidArgument(
        "embedding has " + std::to_string(z->rows()) + " rows but graph has " +
        std::to_string(graph.num_nodes()) + " nodes");

  RefreshOutcome outcome;
  outcome.region_nodes = static_cast<int>(region.size());
  if (static_cast<int>(region.size()) < options.min_region) return outcome;

  // Induced subgraph with a dense local index (region is sorted, so the
  // mapping — and therefore the refresh — is deterministic).
  const int m = static_cast<int>(region.size());
  std::vector<int> local(graph.num_nodes(), -1);
  for (int i = 0; i < m; ++i) local[region[i]] = i;
  std::vector<Edge> edges;
  for (const Edge& e : graph.edges()) {
    if (local[e.u] >= 0 && local[e.v] >= 0)
      edges.push_back({local[e.u], local[e.v]});
  }
  Graph sub = Graph::FromEdges(m, edges);
  outcome.region_edges = sub.num_edges();
  if (sub.num_edges() == 0) return outcome;
  if (graph.has_attributes())
    sub.SetAttributes(graph.attributes().SelectRows(region));

  // The subgraph trainer starts from fresh weights, so its communities come
  // out in an arbitrary column order — a permutation of the global one.
  // Record the region's current assignments so the refreshed columns can be
  // aligned back before write-back; without this, every clean refresh looks
  // like mass membership churn to the drift monitor.
  const int k = z->cols();
  std::vector<int> old_assignment(m, 0);
  for (int i = 0; i < m; ++i) {
    int best = 0;
    for (int c = 1; c < k; ++c)
      if ((*p)(region[i], c) > (*p)(region[i], best)) best = c;
    old_assignment[i] = best;
  }

  AneciConfig config;
  config.hidden_dim = options.hidden_dim;
  config.embed_dim = z->cols();
  config.epochs = options.epochs;
  config.seed = seed;
  config.watchdog = options.watchdog;
  config.divergence_fault_hook = fault_hook;
  Aneci trainer(config);
  ANECI_ASSIGN_OR_RETURN(AneciResult result, trainer.TrainWithResilience(sub));

  // Greedy column alignment: map each refreshed community to the previous
  // community it overlaps most, largest overlaps first. Q~ and P P^T are
  // invariant under a consistent column permutation of (z, p), so this only
  // relabels, never changes the solution.
  std::vector<int> new_assignment(m, 0);
  for (int i = 0; i < m; ++i) {
    int best = 0;
    for (int c = 1; c < k; ++c)
      if (result.p(i, c) > result.p(i, best)) best = c;
    new_assignment[i] = best;
  }
  Matrix overlap(k, k);
  for (int i = 0; i < m; ++i)
    overlap(new_assignment[i], old_assignment[i]) += 1.0;
  std::vector<int> perm(k, -1);
  std::vector<char> old_taken(k, 0);
  for (int round = 0; round < k; ++round) {
    int best_new = -1, best_old = -1;
    double best_count = -1.0;
    for (int nc = 0; nc < k; ++nc) {
      if (perm[nc] >= 0) continue;
      for (int oc = 0; oc < k; ++oc) {
        if (old_taken[oc]) continue;
        if (overlap(nc, oc) > best_count) {
          best_count = overlap(nc, oc);
          best_new = nc;
          best_old = oc;
        }
      }
    }
    perm[best_new] = best_old;
    old_taken[best_old] = 1;
  }

  // Commit only after the trainer succeeded: a vetoed refresh must leave the
  // global embedding untouched.
  for (int i = 0; i < m; ++i) {
    for (int c = 0; c < k; ++c) {
      (*z)(region[i], perm[c]) = result.z(i, c);
      (*p)(region[i], perm[c]) = result.p(i, c);
    }
  }
  outcome.refreshed = true;
  outcome.epochs_run = options.epochs;
  outcome.watchdog_rollbacks = result.watchdog_rollbacks;
  return outcome;
}

}  // namespace aneci::stream
