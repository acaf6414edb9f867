// Streaming chaos test — the end-to-end acceptance scenario: a seeded event
// stream with (a) injected log corruption that must be detected at load,
// (b) a mid-stream DICE poisoning burst that must drive the monitor into
// SuspectedPoisoning and fire the defense exactly once, and (c) a forced
// refresh-veto whose rollback must restore the last healthy embedding
// snapshot byte-for-byte. The replay-identity leg asserts the per-batch
// JSONL is byte-identical at ANECI_THREADS=1 and 4. Runs under TSan in CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aneci.h"
#include "data/sbm.h"
#include "graph/graph.h"
#include "serve/model_artifact.h"
#include "serve/model_snapshot.h"
#include "serve/service.h"
#include "stream/event_log.h"
#include "stream/scenario.h"
#include "stream/stream_engine.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace aneci::stream {
namespace {

constexpr uint64_t kVetoSequence = 2;    // Forced refresh-veto batch.
constexpr int kPoisonBatch = 5;          // DICE burst batch.

// The shared chaos world: a labelled SBM graph, a converged embedding, and
// the seeded event log with the poison burst. Built once (magic static) so
// each leg replays the identical inputs.
struct ChaosWorld {
  Graph graph{0};
  Matrix z;
  Matrix p;
  std::vector<EventBatch> log;
};

const ChaosWorld& World() {
  static const ChaosWorld* world = [] {
    auto* w = new ChaosWorld();
    // Strongly assortative SBM, trained to convergence: the monitor's
    // signals are only meaningful once P carries real community structure.
    SbmOptions opt;
    opt.num_nodes = 300;
    opt.num_edges = 900;
    opt.num_classes = 3;
    opt.attribute_dim = 16;
    opt.intra_fraction = 0.9;
    Rng rng(11);
    w->graph = GenerateSbm(opt, rng);

    AneciConfig config;
    config.hidden_dim = 32;
    config.embed_dim = 3;
    config.epochs = 150;
    config.seed = 5;
    AneciResult result = Aneci(config).Train(w->graph);
    w->z = std::move(result.z);
    w->p = std::move(result.p);

    StreamScenarioOptions scenario;
    scenario.batches = 9;
    scenario.events_per_batch = 4;
    scenario.seed = 77;
    scenario.poison_batch = kPoisonBatch;
    scenario.poison_rate = 0.35;
    auto log = MakeEventStream(w->graph, scenario);
    if (!log.ok()) std::abort();
    w->log = std::move(log.value());
    return w;
  }();
  return *world;
}

StreamEngineOptions ChaosOptions() {
  StreamEngineOptions options;
  // khops=1 keeps the refresh region a small fraction of the graph; a
  // region that swallows half the nodes degrades global Q~ enough to read
  // as drift on perfectly clean traffic.
  options.refresh.khops = 1;
  options.refresh.epochs = 40;
  options.refresh.hidden_dim = 24;
  options.refresh.watchdog.max_rollbacks = 1;  // Fast budget exhaustion.
  options.seed = 13;
  options.refresh_fault_hook = [](uint64_t sequence) {
    return sequence == kVetoSequence;
  };
  return options;
}

std::unique_ptr<StreamEngine> MakeEngine(StreamEngineOptions options) {
  const ChaosWorld& w = World();
  auto engine =
      StreamEngine::Create(w.graph, w.z, w.p, std::move(options));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine.value());
}

bool SameMatrix(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int64_t i = 0; i < a.size(); ++i)
    if (a.data()[i] != b.data()[i]) return false;
  return true;
}

// --- (a) Log corruption is detected, never replayed -------------------------

TEST(StreamChaosTest, CorruptedLogIsRejectedCleanLogRoundTrips) {
  const std::string path = ::testing::TempDir() + "/chaos.anel";
  const ChaosWorld& w = World();

  FaultInjectingEnv torn;
  torn.plan.bitflip_write = 0;
  torn.plan.bitflip_byte = 40;  // Somewhere inside the payload.
  torn.plan.bitflip_bit = 3;
  ASSERT_TRUE(SaveEventLog(w.log, path, &torn).ok());
  auto corrupt = LoadEventLog(path, &torn);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kInvalidArgument);

  FaultInjectingEnv truncated;
  truncated.plan.truncate_write = 0;
  truncated.plan.truncate_bytes = 30;
  ASSERT_TRUE(SaveEventLog(w.log, path, &truncated).ok());
  EXPECT_FALSE(LoadEventLog(path, &truncated).ok());

  // A clean save round-trips to the byte-identical serialized form.
  ASSERT_TRUE(SaveEventLog(w.log, path).ok());
  auto clean = LoadEventLog(path);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(SerializeEventLog(clean.value()), SerializeEventLog(w.log));
  std::remove(path.c_str());
}

// --- (b)+(c) Poison burst, forced veto, rollback, single defense ------------

TEST(StreamChaosTest, ChaosRunEscalatesOnceAndRollsBackVetoedRefresh) {
  const ChaosWorld& w = World();
  auto initial = std::make_shared<const serve::ModelSnapshot>(
      serve::BuildModelArtifact(w.graph, w.z, w.p), /*version=*/1, "seed");
  serve::EmbedService service(initial);
  StreamEngineOptions options = ChaosOptions();
  options.publish = &service;
  std::unique_ptr<StreamEngine> engine = MakeEngine(std::move(options));

  // Shadow the engine's healthy-snapshot contract: the rollback target is
  // the embedding after the last batch that ended Healthy un-vetoed (or the
  // initial state before any such batch).
  Matrix expected_rollback_z = engine->z();
  int defenses_seen = 0;
  for (const EventBatch& batch : w.log) {
    auto report = engine->ProcessBatch(batch);
    ASSERT_TRUE(report.ok()) << "batch " << batch.sequence << ": "
                             << report.status().ToString();
    const StreamBatchReport& r = report.value();

    if (batch.sequence == kVetoSequence) {
      // The forced fault exhausts the refresh watchdog's budget; the engine
      // must report the veto and restore the last healthy snapshot exactly.
      EXPECT_TRUE(r.refresh_vetoed);
      EXPECT_FALSE(r.refreshed);
      EXPECT_TRUE(SameMatrix(engine->z(), expected_rollback_z));
      EXPECT_EQ(r.published_version, 0u)
          << "a vetoed batch must not publish to serving";
    } else {
      EXPECT_FALSE(r.refresh_vetoed) << "unexpected veto at " << batch.sequence;
    }
    if (static_cast<int>(batch.sequence) < kPoisonBatch) {
      EXPECT_NE(r.state, StreamHealth::kSuspectedPoisoning)
          << "false alarm at clean batch " << batch.sequence;
      EXPECT_FALSE(r.defense_invoked);
    }
    defenses_seen += r.defense_invoked ? 1 : 0;
    if (r.state == StreamHealth::kHealthy && !r.refresh_vetoed)
      expected_rollback_z = engine->z();
  }

  EXPECT_EQ(engine->health(), StreamHealth::kSuspectedPoisoning);
  EXPECT_EQ(defenses_seen, 1) << "defense must fire exactly once";
  EXPECT_EQ(engine->defense_invocations(), 1);
  EXPECT_GE(engine->refresh_vetoes(), 1);

  // Publishing happened (refreshed batches hot-swap the serving snapshot)
  // and the live snapshot came from the stream path.
  auto snapshot = service.engine().snapshot();
  EXPECT_GT(snapshot->version(), 1u);
  EXPECT_NE(snapshot->source().find("stream:batch="), std::string::npos);
}

// --- Replay identity across thread counts -----------------------------------

TEST(StreamChaosTest, ReplayIsByteIdenticalAcrossThreadCounts) {
  const ChaosWorld& w = World();
  std::string jsonl_one, jsonl_four;
  {
    ScopedNumThreads guard(1);
    std::unique_ptr<StreamEngine> engine = MakeEngine(ChaosOptions());
    auto reports = engine->ProcessLog(w.log);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    jsonl_one = engine->SummaryJsonl();
  }
  {
    ScopedNumThreads guard(4);
    std::unique_ptr<StreamEngine> engine = MakeEngine(ChaosOptions());
    auto reports = engine->ProcessLog(w.log);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    jsonl_four = engine->SummaryJsonl();
  }
  ASSERT_FALSE(jsonl_one.empty());
  EXPECT_EQ(jsonl_one, jsonl_four);
  EXPECT_EQ(static_cast<size_t>(std::count(jsonl_one.begin(), jsonl_one.end(),
                                           '\n')),
            w.log.size());
}

// --- Replay identity with attribute updates ----------------------------------

// The scenario generator emits only edge events, so this leg splices
// set-attribute events into every batch of the generated log: the update
// path (dense patch, CSR rebuild, refresh over the new features) must replay
// byte-identically at any thread count too.
std::vector<EventBatch> WithAttributeUpdates(std::vector<EventBatch> log,
                                             const Graph& graph) {
  Rng rng(29);
  for (EventBatch& batch : log) {
    for (int k = 0; k < 3; ++k) {
      const int node = static_cast<int>(rng.NextInt(graph.num_nodes()));
      const int column = static_cast<int>(rng.NextInt(graph.attribute_dim()));
      // Non-binary values, unlike the SBM's bag-of-words attributes.
      const double value = 1.0 / (3.0 + rng.NextInt(9));
      const size_t at = rng.NextInt(batch.events.size() + 1);
      batch.events.insert(batch.events.begin() + at,
                          GraphEvent::SetAttribute(node, column, value));
    }
  }
  return log;
}

struct ReplayOutput {
  std::string jsonl;
  std::string artifact;
  std::vector<double> attributes;
};

ReplayOutput Replay(const std::vector<EventBatch>& log, int threads) {
  ScopedNumThreads guard(threads);
  std::unique_ptr<StreamEngine> engine = MakeEngine(ChaosOptions());
  auto reports = engine->ProcessLog(log);
  EXPECT_TRUE(reports.ok()) << reports.status().ToString();
  return {engine->SummaryJsonl(),
          serve::SerializeModelArtifact(serve::BuildModelArtifact(
              engine->graph(), engine->z(), engine->p())),
          engine->graph().attributes().values()};
}

TEST(StreamChaosTest, ReplayWithAttributeUpdatesIsByteIdentical) {
  const ChaosWorld& w = World();
  // Through the ANEL encoding, as a replayed log file would arrive.
  auto parsed = ParseEventLog(
      SerializeEventLog(WithAttributeUpdates(w.log, w.graph)), "spliced");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<EventBatch>& log = parsed.value();
  const ReplayOutput one = Replay(log, 1);
  const ReplayOutput four = Replay(log, 4);

  // Every batch applied its three updates (attribute edits are never
  // redundant, and no batch was rejected).
  ASSERT_EQ(static_cast<size_t>(
                std::count(one.jsonl.begin(), one.jsonl.end(), '\n')),
            log.size());
  size_t updated_batches = 0;
  for (size_t pos = one.jsonl.find("\"attributes_updated\":3");
       pos != std::string::npos;
       pos = one.jsonl.find("\"attributes_updated\":3", pos + 1))
    ++updated_batches;
  EXPECT_EQ(updated_batches, log.size());

  EXPECT_EQ(one.jsonl, four.jsonl);
  EXPECT_EQ(one.artifact, four.artifact);
  ASSERT_EQ(one.attributes.size(), four.attributes.size());
  EXPECT_EQ(std::memcmp(one.attributes.data(), four.attributes.data(),
                        one.attributes.size() * sizeof(double)),
            0);
  // The updates reached the graph the engine serves.
  EXPECT_NE(one.attributes, w.graph.attributes().values());
}

}  // namespace
}  // namespace aneci::stream
