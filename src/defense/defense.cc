#include "defense/defense.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "defense/attribute_clip.h"
#include "defense/jaccard_prune.h"
#include "defense/lowrank.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace aneci {
namespace {

/// Splits "name:key=v:key=v" into the name and key/value pairs.
struct ParsedSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> options;
};

StatusOr<ParsedSpec> SplitSpec(const std::string& spec) {
  ParsedSpec parsed;
  size_t pos = spec.find(':');
  parsed.name = spec.substr(0, pos);
  if (parsed.name.empty())
    return Status::InvalidArgument("empty defense name in spec '" + spec + "'");
  while (pos != std::string::npos) {
    const size_t next = spec.find(':', pos + 1);
    const std::string item = spec.substr(
        pos + 1, next == std::string::npos ? std::string::npos : next - pos - 1);
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size())
      return Status::InvalidArgument("defense option '" + item + "' in '" +
                                     spec + "' is not key=value");
    parsed.options.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    pos = next;
  }
  return parsed;
}

Status UnknownOption(const ParsedSpec& spec,
                     const std::pair<std::string, std::string>& kv) {
  return Status::InvalidArgument("defense '" + spec.name +
                                 "' does not take option '" + kv.first + "'");
}

}  // namespace

std::string DefenseReport::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "[%s] edges %d -> %d (dropped %d)%s%s%s", defense.c_str(),
                edges_before, edges_before - edges_dropped, edges_dropped,
                rank_used > 0 ? (", rank " + std::to_string(rank_used)).c_str()
                              : "",
                nodes_clipped > 0
                    ? (", clipped " + std::to_string(nodes_clipped) + " nodes")
                          .c_str()
                    : "",
                note.empty() ? "" : (" — " + note).c_str());
  return buf;
}

int PurifiedGraph::total_edges_dropped() const {
  int total = 0;
  for (const DefenseReport& r : reports) total += r.edges_dropped;
  return total;
}

int PurifiedGraph::total_nodes_clipped() const {
  int total = 0;
  for (const DefenseReport& r : reports) total += r.nodes_clipped;
  return total;
}

StatusOr<std::unique_ptr<GraphDefense>> CreateDefense(const std::string& spec) {
  ANECI_ASSIGN_OR_RETURN(const ParsedSpec p, SplitSpec(spec));

  if (p.name == "jaccard") {
    JaccardPruneOptions opt;
    for (const auto& kv : p.options) {
      if (kv.first == "tau") {
        opt.threshold = std::atof(kv.second.c_str());
      } else if (kv.first == "hops") {
        opt.hops = std::atoi(kv.second.c_str());
      } else if (kv.first == "guard") {
        opt.min_residual_degree = std::atoi(kv.second.c_str());
      } else if (kv.first == "cn") {
        opt.protect_common_neighbors = std::atoi(kv.second.c_str()) != 0;
      } else {
        return UnknownOption(p, kv);
      }
    }
    if (opt.hops < 0 || opt.hops > 1)
      return Status::InvalidArgument("jaccard hops must be 0 or 1");
    if (opt.min_residual_degree < 0)
      return Status::InvalidArgument("jaccard guard must be >= 0");
    return std::unique_ptr<GraphDefense>(new JaccardPrune(opt));
  }
  if (p.name == "lowrank") {
    LowRankOptions opt;
    for (const auto& kv : p.options) {
      if (kv.first == "rank") {
        opt.rank = std::atoi(kv.second.c_str());
      } else if (kv.first == "drop") {
        opt.drop_fraction = std::atof(kv.second.c_str());
      } else if (kv.first == "steps") {
        opt.lanczos_steps = std::atoi(kv.second.c_str());
      } else {
        return UnknownOption(p, kv);
      }
    }
    if (opt.rank < 1)
      return Status::InvalidArgument("lowrank rank must be >= 1");
    if (opt.drop_fraction < 0.0 || opt.drop_fraction >= 1.0)
      return Status::InvalidArgument("lowrank drop must be in [0, 1)");
    return std::unique_ptr<GraphDefense>(new LowRankReconstruction(opt));
  }
  if (p.name == "clip") {
    AttributeClipOptions opt;
    for (const auto& kv : p.options) {
      if (kv.first == "fraction") {
        opt.fraction = std::atof(kv.second.c_str());
      } else if (kv.first == "trees") {
        opt.num_trees = std::atoi(kv.second.c_str());
      } else {
        return UnknownOption(p, kv);
      }
    }
    if (opt.fraction < 0.0 || opt.fraction >= 1.0)
      return Status::InvalidArgument("clip fraction must be in [0, 1)");
    return std::unique_ptr<GraphDefense>(new AttributeClip(opt));
  }
  return Status::InvalidArgument(
      "unknown defense '" + p.name + "' (expected jaccard, lowrank or clip)");
}

StatusOr<DefensePipeline> ParseDefensePipeline(const std::string& specs) {
  DefensePipeline pipeline;
  size_t start = 0;
  while (start <= specs.size()) {
    const size_t comma = specs.find(',', start);
    const std::string item = specs.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) {
      ANECI_ASSIGN_OR_RETURN(std::unique_ptr<GraphDefense> defense,
                             CreateDefense(item));
      pipeline.push_back(std::move(defense));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (pipeline.empty())
    return Status::InvalidArgument("empty defense pipeline spec '" + specs +
                                   "'");
  return pipeline;
}

PurifiedGraph RunDefensePipeline(const Graph& graph,
                                 const DefensePipeline& pipeline, Rng& rng) {
  TraceSpan span("defense/pipeline");
  static Counter* runs = MetricsRegistry::Global().GetCounter(
      "defense/pipeline_runs", MetricClass::kDeterministic);
  static Counter* stages = MetricsRegistry::Global().GetCounter(
      "defense/stages_applied", MetricClass::kDeterministic);
  static Counter* edges_dropped = MetricsRegistry::Global().GetCounter(
      "defense/edges_dropped", MetricClass::kDeterministic);
  static Counter* nodes_clipped = MetricsRegistry::Global().GetCounter(
      "defense/nodes_clipped", MetricClass::kDeterministic);
  runs->Increment();
  PurifiedGraph result;
  result.graph = graph;
  result.reports.reserve(pipeline.size());
  for (const std::unique_ptr<GraphDefense>& stage : pipeline) {
    TraceSpan stage_span(stage->name());  // Path: defense/pipeline/<stage>.
    result.reports.push_back(stage->Apply(&result.graph, rng));
    stages->Increment();
  }
  edges_dropped->Add(static_cast<uint64_t>(result.total_edges_dropped()));
  nodes_clipped->Add(static_cast<uint64_t>(result.total_nodes_clipped()));
  return result;
}

PurifiedGraph RunDefensePipelineScoped(const Graph& graph,
                                       const DefensePipeline& pipeline,
                                       Rng& rng,
                                       const std::vector<int>& region) {
  PurifiedGraph full = RunDefensePipeline(graph, pipeline, rng);
  std::vector<char> in_region(graph.num_nodes(), 0);
  for (int u : region)
    if (u >= 0 && u < graph.num_nodes()) in_region[u] = 1;

  // Defenses only remove edges, so the diff against the input is exactly the
  // dropped set; drops with no endpoint in the region are undone.
  int scoped_drops = 0;
  int restored_edges = 0;
  for (const Edge& e : graph.edges()) {
    if (full.graph.HasEdge(e.u, e.v)) continue;
    if (in_region[e.u] || in_region[e.v]) {
      ++scoped_drops;
    } else {
      full.graph.AddEdge(e.u, e.v);
      ++restored_edges;
    }
  }

  int scoped_clips = 0;
  int restored_rows = 0;
  if (graph.has_attributes() && full.graph.has_attributes() &&
      full.graph.attributes().rows() == graph.attributes().rows()) {
    const SparseMatrix& before = graph.attributes();
    Matrix after = full.graph.attributes().ToDense();
    std::vector<double> row(before.cols());  // Row u of the input.
    for (int u = 0; u < graph.num_nodes(); ++u) {
      std::fill(row.begin(), row.end(), 0.0);
      for (int64_t i = before.row_ptr()[u]; i < before.row_ptr()[u + 1]; ++i)
        row[before.col_idx()[i]] = before.values()[i];
      if (std::equal(row.begin(), row.end(), after.RowPtr(u))) continue;
      if (in_region[u]) {
        ++scoped_clips;
      } else {
        std::copy(row.begin(), row.end(), after.RowPtr(u));
        ++restored_rows;
      }
    }
    if (restored_rows > 0)
      full.graph.SetAttributes(SparseMatrix::FromDense(after));
  }

  DefenseReport report;
  report.defense = "scoped-pipeline";
  report.edges_before = graph.num_edges();
  report.edges_dropped = scoped_drops;
  report.nodes_clipped = scoped_clips;
  report.note = "region of " + std::to_string(region.size()) +
                " nodes; restored " + std::to_string(restored_edges) +
                " edges and " + std::to_string(restored_rows) +
                " attribute rows outside it";
  full.reports.clear();
  full.reports.push_back(std::move(report));
  return full;
}

}  // namespace aneci
