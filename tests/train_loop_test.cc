// The shared TrainLoop: watchdog rollback restores every piece of training
// state (parameters, Adam, the main RNG and the model's own state through
// its hooks) at any thread count and across a checkpoint resume; each epoch
// phase gets one trace span; and every gradient-trained model in the library
// trains through the loop, which the train/* counters prove.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "attack/surrogate.h"
#include "autograd/ops.h"
#include "core/aneci.h"
#include "core/train_loop.h"
#include "data/datasets.h"
#include "data/sbm.h"
#include "embed/embedder.h"
#include "embed/gat.h"
#include "embed/gcn_classifier.h"
#include "util/checkpoint.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace aneci {
namespace {

using ag::VarPtr;

bool BytesEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  Env* env = Env::Default();
  EXPECT_TRUE(env->CreateDir(dir).ok());
  for (const std::string& path :
       {CheckpointBinPath(dir), CheckpointBakPath(dir)}) {
    if (env->FileExists(path)) {
      EXPECT_TRUE(env->RemoveFile(path).ok());
    }
  }
  return dir;
}

// --- A toy model with extra state -------------------------------------------

struct ToyRun {
  Status status;
  Matrix w;
  std::vector<EpochStatBlob> history;
  int rollbacks = 0;
};

/// Least squares with moving targets: W fits X W ~= T, where each epoch
/// draws a fresh T from the model's own `aux` stream (its extra state,
/// registered through the loop's hooks and carried in the checkpoint's
/// second-stream fields) and scales the loss by a draw from the main RNG.
/// Any piece of state a rollback or resume failed to restore changes W.
ToyRun TrainToy(double lr, int epochs, TrainLoop::Options options) {
  Rng init(1), rng(3), aux(2);
  const Matrix x = Matrix::RandomNormal(64, 16, 1.0, init);
  auto w = ag::MakeParameter(Matrix::GlorotUniform(16, 4, init));

  options.epochs = epochs;
  options.adam.lr = lr;
  options.rng = &rng;
  options.state.save = [&](TrainingCheckpoint* c) {
    PackRngState(aux.state(), c->adv_rng_state, &c->adv_rng_has_gauss,
                 &c->adv_rng_gauss);
  };
  options.state.restore = [&](const TrainingCheckpoint& c) {
    aux.set_state(UnpackRngState(c.adv_rng_state, c.adv_rng_has_gauss,
                                 c.adv_rng_gauss));
  };
  TrainLoop loop({w}, std::move(options));
  ToyRun run;
  run.status = loop.Run([&](int) {
    VarPtr target = ag::MakeConstant(Matrix::RandomNormal(64, 4, 1.0, aux));
    VarPtr residual = ag::Sub(ag::MatMul(ag::MakeConstant(x), w), target);
    return ag::Scale(ag::SumSquares(residual), rng.Uniform(0.5, 1.5) / 256.0);
  });
  run.w = w->value();
  run.history = loop.history();
  run.rollbacks = loop.rollbacks();
  return run;
}

/// Forces a NaN loss the first time epoch 7 runs.
std::function<bool(int)> NanOnceAtEpoch7() {
  auto fired = std::make_shared<bool>(false);
  return [fired](int epoch) {
    if (epoch != 7 || *fired) return false;
    *fired = true;
    return true;
  };
}

TrainLoop::Options FaultOptions() {
  TrainLoop::Options options;
  options.watchdog.snapshot_every = 10;
  options.divergence_fault_hook = NanOnceAtEpoch7();
  return options;
}

constexpr double kLr = 0.05;

TEST(TrainLoopRollback, NanRollsBackToEpochZeroAndReplaysWithHalvedLr) {
  TelemetryRing* ring = MetricsRegistry::Global().GetRing("train/epochs");
  ring->Reset();
  const ToyRun faulted = TrainToy(kLr, 20, FaultOptions());
  ASSERT_TRUE(faulted.status.ok()) << faulted.status.ToString();
  EXPECT_EQ(faulted.rollbacks, 1);

  // The NaN at epoch 7 resumed at the epoch-0 snapshot (the next one is
  // due at epoch 10).
  bool saw_rollback = false;
  for (const std::string& line : ring->Lines()) {
    if (line.find("\"watchdog_rollback\"") == std::string::npos) continue;
    saw_rollback = true;
    EXPECT_NE(line.find("\"epoch\":7"), std::string::npos) << line;
    EXPECT_NE(line.find("\"resumed_epoch\":0"), std::string::npos) << line;
  }
  EXPECT_TRUE(saw_rollback);

  // Rolling back to epoch 0 restores parameters, Adam, both RNG streams and
  // the history, so the run is exactly a clean run at the decayed rate.
  const ToyRun clean = TrainToy(kLr * 0.5, 20, TrainLoop::Options());
  ASSERT_TRUE(clean.status.ok());
  EXPECT_EQ(clean.rollbacks, 0);
  EXPECT_TRUE(BytesEqual(faulted.w, clean.w))
      << "rollback left some training state unrestored";
  ASSERT_EQ(faulted.history.size(), 20u);
  ASSERT_EQ(clean.history.size(), 20u);
  for (size_t e = 0; e < faulted.history.size(); ++e) {
    EXPECT_EQ(faulted.history[e].epoch, clean.history[e].epoch);
    EXPECT_EQ(faulted.history[e].loss, clean.history[e].loss) << "epoch " << e;
  }
}

TEST(TrainLoopRollback, BitIdenticalAcrossThreadCounts) {
  Matrix reference;
  for (int threads : {1, 4, 7}) {
    ScopedNumThreads guard(threads);
    const ToyRun run = TrainToy(kLr, 20, FaultOptions());
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_EQ(run.rollbacks, 1);
    if (threads == 1)
      reference = run.w;
    else
      EXPECT_TRUE(BytesEqual(run.w, reference)) << threads << " threads";
  }
}

TEST(TrainLoopRollback, CheckpointResumeAfterRollbackIsBitIdentical) {
  const ToyRun full = TrainToy(kLr, 20, FaultOptions());
  ASSERT_TRUE(full.status.ok());

  // Phase 1 rolls back at epoch 7, then "crashes" after epoch 12.
  const std::string dir = FreshDir("train_loop_resume");
  TrainLoop::Options phase1 = FaultOptions();
  phase1.checkpoint_dir = dir;
  phase1.checkpoint_every = 5;
  const ToyRun partial = TrainToy(kLr, 12, phase1);
  ASSERT_TRUE(partial.status.ok()) << partial.status.ToString();
  EXPECT_EQ(partial.rollbacks, 1);

  // Phase 2 starts a fresh model and resumes from disk.
  TrainLoop::Options phase2 = FaultOptions();
  phase2.checkpoint_dir = dir;
  phase2.checkpoint_every = 5;
  phase2.resume_from = dir;
  const ToyRun resumed = TrainToy(kLr, 20, phase2);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.rollbacks, 1);  // Carried in the checkpoint.
  EXPECT_TRUE(BytesEqual(resumed.w, full.w))
      << "resumed run diverges from the uninterrupted one";
  ASSERT_EQ(resumed.history.size(), full.history.size());
  for (size_t e = 0; e < full.history.size(); ++e)
    EXPECT_EQ(resumed.history[e].loss, full.history[e].loss) << "epoch " << e;
}

TEST(TrainLoopRollback, DivergencePastBudgetIsAStatus) {
  TrainLoop::Options options;
  options.watchdog.max_rollbacks = 2;
  options.divergence_fault_hook = [](int epoch) { return epoch == 3; };
  const ToyRun run = TrainToy(kLr, 10, options);
  EXPECT_EQ(run.status.code(), StatusCode::kInternal);
  EXPECT_NE(run.status.message().find("at epoch 3"), std::string::npos)
      << run.status.ToString();
}

// --- Phase spans ------------------------------------------------------------

uint64_t SpanCount(const std::string& path) {
  for (const SpanStat& s : TraceRegistry::Global().Snapshot())
    if (s.path == path) return s.count;
  return 0;
}

TEST(TrainLoopSpans, EveryPhaseOpensOneSpanPerEpoch) {
  constexpr int kEpochs = 6;
  TraceRegistry::Global().ResetValues();
  {
    TraceSpan model("train/toy");
    TrainLoop::Options options;
    options.watchdog.snapshot_every = 1;
    options.checkpoint_dir = FreshDir("train_loop_spans");
    options.checkpoint_every = 1;
    ASSERT_TRUE(TrainToy(kLr, kEpochs, options).status.ok());
  }
  for (const char* phase : {"forward_loss", "backward", "watchdog", "step",
                            "snapshot", "checkpoint"})
    EXPECT_EQ(SpanCount(std::string("train/toy/") + phase), kEpochs) << phase;
}

TEST(TrainLoopSpans, AneciEpochLoopIsAttributed) {
  SbmOptions sbm;
  sbm.num_nodes = 60;
  sbm.num_classes = 2;
  sbm.num_edges = 180;
  sbm.attribute_dim = 12;
  Rng rng(4);
  const Graph graph = GenerateSbm(sbm, rng);
  AneciConfig config;
  config.hidden_dim = 8;
  config.embed_dim = 3;
  config.epochs = 12;
  TraceRegistry::Global().ResetValues();
  ASSERT_TRUE(Aneci(config).TrainWithResilience(graph).ok());
  for (const char* phase : {"forward_loss", "backward", "watchdog", "step"})
    EXPECT_EQ(SpanCount(std::string("train/aneci/") + phase), 12u) << phase;
  // Default cadence: snapshots at epochs 0 and 10, no checkpoint directory.
  EXPECT_EQ(SpanCount("train/aneci/snapshot"), 2u);
  EXPECT_EQ(SpanCount("train/aneci/checkpoint"), 0u);
  EXPECT_EQ(SpanCount("train/aneci/setup"), 1u);
  EXPECT_EQ(SpanCount("train/aneci/final_forward"), 1u);
}

// --- Every loop user trains through TrainLoop -------------------------------

const Dataset& SmallDataset() {
  static const Dataset* dataset = new Dataset(MakeCora(5, 0.08));
  return *dataset;
}

/// Trains `model` for `epochs` epochs.
void TrainModel(const std::string& model, int epochs) {
  const Dataset& d = SmallDataset();
  Rng rng(17);
  if (model == "GCN" || model == "RGCN") {
    GcnClassifier::Options options;
    options.epochs = epochs;
    options.robust = model == "RGCN";
    GcnClassifier(options).Fit(d, rng);
  } else if (model == "GAT") {
    GatClassifier::Options options;
    options.epochs = epochs;
    GatClassifier(options).Fit(d, rng);
  } else if (model == "Surrogate") {
    SurrogateModel::Options options;
    options.epochs = epochs;
    SurrogateModel(options).Fit(d.graph, d, rng);
  } else {
    auto embedder = CreateEmbedder(model);
    ASSERT_TRUE(embedder.ok()) << model;
    EmbedOptions eo;
    eo.rng = &rng;
    eo.epochs = epochs;
    (void)embedder.value()->Embed(d.graph, eo);
  }
}

class RoutedThroughTrainLoop : public testing::TestWithParam<std::string> {};

TEST_P(RoutedThroughTrainLoop, TrainEpochsRiseByTheBudget) {
  Counter* runs = MetricsRegistry::Global().GetCounter(
      "train/runs", MetricClass::kDeterministic);
  Counter* epochs = MetricsRegistry::Global().GetCounter(
      "train/epochs", MetricClass::kDeterministic);
  const uint64_t runs_before = runs->Value();
  const uint64_t epochs_before = epochs->Value();
  TrainModel(GetParam(), 4);
  EXPECT_EQ(runs->Value() - runs_before, 1u);
  EXPECT_EQ(epochs->Value() - epochs_before, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllGradientModels, RoutedThroughTrainLoop,
    testing::Values("GAE", "VGAE", "DGI", "DANE", "DONE", "ADONE", "AGE",
                    "GraphSage", "Dominant", "AnomalyDAE", "SDNE", "GATE",
                    "GCN", "RGCN", "GAT", "Surrogate"),
    [](const testing::TestParamInfo<std::string>& info) { return info.param; });

}  // namespace
}  // namespace aneci
