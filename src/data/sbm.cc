#include "data/sbm.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/check.h"

namespace aneci {
namespace {

// Draws an index from the discrete distribution given by cumulative weights.
int SampleCumulative(const std::vector<double>& cum, Rng& rng) {
  const double target = rng.NextDouble() * cum.back();
  const auto it = std::lower_bound(cum.begin(), cum.end(), target);
  return static_cast<int>(std::min<size_t>(it - cum.begin(), cum.size() - 1));
}

}  // namespace

Graph GenerateSbm(const SbmOptions& options, Rng& rng) {
  const int n = options.num_nodes;
  const int k = options.num_classes;
  ANECI_CHECK(n > 0 && k > 0 && k <= n);
  ANECI_CHECK(options.intra_fraction >= 0.0 && options.intra_fraction <= 1.0);

  // --- Class assignment ------------------------------------------------------
  std::vector<double> proportions = options.class_proportions;
  if (proportions.empty()) proportions.assign(k, 1.0);
  ANECI_CHECK_EQ(static_cast<int>(proportions.size()), k);
  double total_prop = 0.0;
  for (double p : proportions) total_prop += p;

  std::vector<int> labels(n);
  std::vector<std::vector<int>> members(k);
  {
    // Deterministic proportional allocation, then shuffle node ids so class
    // blocks are not contiguous.
    std::vector<int> ids(n);
    for (int i = 0; i < n; ++i) ids[i] = i;
    for (int i = n - 1; i > 0; --i) std::swap(ids[i], ids[rng.NextInt(i + 1)]);
    int pos = 0;
    for (int c = 0; c < k; ++c) {
      int count = static_cast<int>(std::lround(n * proportions[c] / total_prop));
      if (c == k - 1) count = n - pos;
      count = std::min(count, n - pos);
      for (int j = 0; j < count; ++j) {
        labels[ids[pos]] = c;
        members[c].push_back(ids[pos]);
        ++pos;
      }
    }
    // Any rounding remainder goes to the last class.
    for (; pos < n; ++pos) {
      labels[ids[pos]] = k - 1;
      members[k - 1].push_back(ids[pos]);
    }
  }
  for (int c = 0; c < k; ++c) ANECI_CHECK(!members[c].empty());

  // --- Degree propensities ----------------------------------------------------
  std::vector<double> theta(n, 1.0);
  if (options.degree_alpha > 0.0) {
    for (int i = 0; i < n; ++i) {
      // Pareto(alpha) with minimum 1: heavy-tailed like citation in-degrees.
      const double u = std::max(rng.NextDouble(), 1e-12);
      theta[i] = std::pow(u, -1.0 / options.degree_alpha);
    }
  }

  // Cumulative propensity per class and globally, for weighted sampling.
  std::vector<std::vector<double>> class_cum(k);
  for (int c = 0; c < k; ++c) {
    class_cum[c].reserve(members[c].size());
    double acc = 0.0;
    for (int node : members[c]) {
      acc += theta[node];
      class_cum[c].push_back(acc);
    }
  }
  std::vector<double> global_cum(n);
  {
    double acc = 0.0;
    for (int i = 0; i < n; ++i) {
      acc += theta[i];
      global_cum[i] = acc;
    }
  }

  // --- Edge placement ----------------------------------------------------------
  std::set<std::pair<int, int>> edge_set;
  const int target_edges = options.num_edges;
  const int64_t max_attempts = static_cast<int64_t>(target_edges) * 50 + 1000;
  int64_t attempts = 0;
  // Intra-class pair mass ~ (sum_c theta_c_total^2): classes with more mass
  // host more intra edges.
  std::vector<double> class_mass_cum(k);
  {
    double acc = 0.0;
    for (int c = 0; c < k; ++c) {
      const double mass = class_cum[c].back();
      acc += mass * mass;
      class_mass_cum[c] = acc;
    }
  }

  while (static_cast<int>(edge_set.size()) < target_edges &&
         attempts < max_attempts) {
    ++attempts;
    int u, v;
    if (rng.NextBool(options.intra_fraction)) {
      const int c = SampleCumulative(class_mass_cum, rng);
      u = members[c][SampleCumulative(class_cum[c], rng)];
      v = members[c][SampleCumulative(class_cum[c], rng)];
    } else {
      u = SampleCumulative(global_cum, rng);
      v = SampleCumulative(global_cum, rng);
      if (labels[u] == labels[v]) continue;  // Enforce inter-class.
    }
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    edge_set.insert({u, v});
  }

  std::vector<Edge> edges;
  edges.reserve(edge_set.size());
  for (const auto& [u, v] : edge_set) edges.push_back({u, v});
  Graph graph = Graph::FromEdges(n, edges);
  graph.SetLabels(std::move(labels));

  // --- Attributes ---------------------------------------------------------------
  if (options.attribute_dim > 0) {
    const int d = options.attribute_dim;
    const int topic_size = std::min(options.topic_words_per_class, d);
    // Each class gets a random topic vocabulary (subsets may overlap, as real
    // research areas share terminology).
    std::vector<std::vector<int>> topics(k);
    for (int c = 0; c < k; ++c) {
      std::set<int> words;
      while (static_cast<int>(words.size()) < topic_size)
        words.insert(static_cast<int>(rng.NextInt(d)));
      topics[c].assign(words.begin(), words.end());
    }
    std::vector<Triplet> cells;
    for (int i = 0; i < n; ++i) {
      const int c = graph.labels()[i];
      const int words = std::max(1, rng.NextPoisson(options.words_per_node));
      std::set<int> row_words;  // A word drawn twice is still a single 1.
      for (int w = 0; w < words; ++w) {
        int word;
        if (rng.NextBool(options.attribute_homophily)) {
          word = topics[c][rng.NextInt(static_cast<int64_t>(topics[c].size()))];
        } else {
          word = static_cast<int>(rng.NextInt(d));
        }
        row_words.insert(word);
      }
      for (int word : row_words) cells.push_back({i, word, 1.0});
    }
    graph.SetAttributes(SparseMatrix::FromTriplets(n, d, std::move(cells)));
  }
  return graph;
}

}  // namespace aneci
