// Training workloads: AnECI (Eq. 18) trained end to end through
// Aneci::TrainWithResilience, and, in traced runs, a benchmark-side replica
// of one training epoch built from the same public autograd and loss calls,
// with a span around each call into a layer.
//
// The replica follows the trainer's set-up, seed and RNG draw order exactly
// (core/aneci.cc), so its first-epoch loss must equal the trainer's
// history[0].loss; a mismatch means the replica has drifted and counts as a
// failed operation.
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "autograd/variable.h"
#include "core/aneci.h"
#include "core/losses.h"
#include "data/datasets.h"
#include "graph/proximity.h"
#include "linalg/sparse.h"
#include "perfbench/src/common.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using aneci::AneciConfig;
using aneci::Matrix;
using aneci::SparseMatrix;
using aneci::ag::VarPtr;

/// Run procedure. Untraced: cycles of one full training and
/// kSetupsPerFullRun zero-epoch trainings repeat while another cycle fits in
/// the time budget, and at least kMinFullRuns times. Traced: the replica
/// runs traced epochs until the budget is spent, at least kMinReplicaEpochs.
constexpr int kSetupsPerFullRun = 5;
constexpr int kMinFullRuns = 2;
constexpr int kMinReplicaEpochs = 4;

AneciConfig TrainConfig(const Flags& flags) {
  AneciConfig cfg;
  cfg.epochs = static_cast<int>(flags.Int("epochs"));
  const std::string recon = flags.Str("reconstruction");
  cfg.reconstruction = recon == "sampled" ? aneci::ReconstructionMode::kSampled
                       : recon == "dense" ? aneci::ReconstructionMode::kDense
                                          : aneci::ReconstructionMode::kAuto;
  return cfg;
}

/// Work and time of the forward-pass kernel calls of one traced epoch.
struct KernelTally {
  double spmm_flop = 0.0, spmm_s = 0.0, spmm_bytes = 0.0;
  double gemm_flop = 0.0, gemm_s = 0.0;
};

/// Compulsory bytes of Y = S X: CSR values, column indices and row
/// pointers, X read once and Y written once. Computed from operand sizes.
double SpmmBytes(const SparseMatrix& s, int k) {
  return static_cast<double>(s.nnz()) * (8 + 4) + (s.rows() + 1.0) * 8 +
         static_cast<double>(s.cols()) * k * 8 +
         static_cast<double>(s.rows()) * k * 8;
}

/// One AnECI training run, rebuilt from the library's public calls.
class EpochReplica {
 public:
  EpochReplica(const aneci::Graph& graph, const AneciConfig& cfg,
               Tracer* tracer)
      : graph_(graph), cfg_(cfg), rng_(cfg.seed) {
    ScopedSpan setup(tracer, "setup");
    {
      ScopedSpan s(tracer, "graph.normalize");
      s_norm_ = graph.NormalizedAdjacency();
    }
    Matrix features;
    {
      ScopedSpan s(tracer, "graph.features");
      features = graph.FeaturesOrIdentity();
      x_sparse_ = SparseMatrix::FromDense(features);
    }
    {
      const uint64_t nnz0 = CounterValue("linalg/spgemm/output_nnz");
      ScopedSpan s(tracer, "graph.proximity");
      proximity_ = aneci::HighOrderProximity(graph, cfg.proximity);
      spgemm_nnz_ = static_cast<double>(
          CounterValue("linalg/spgemm/output_nnz") - nnz0);
    }
    two_m_scale_ = proximity_.SumAll();
    const int n = graph.num_nodes();
    dense_ = cfg.reconstruction == aneci::ReconstructionMode::kDense ||
             (cfg.reconstruction == aneci::ReconstructionMode::kAuto &&
              n <= cfg.dense_threshold);
    {
      ScopedSpan s(tracer, "params.init");
      w1_ = aneci::ag::MakeParameter(
          Matrix::GlorotUniform(features.cols(), cfg.hidden_dim, rng_));
      b1_ = aneci::ag::MakeParameter(Matrix(1, cfg.hidden_dim));
      w2_ = aneci::ag::MakeParameter(
          Matrix::GlorotUniform(cfg.hidden_dim, cfg.embed_dim, rng_));
      b2_ = aneci::ag::MakeParameter(Matrix(1, cfg.embed_dim));
      aneci::ag::Adam::Options adam;
      adam.lr = cfg.lr;
      adam.weight_decay = cfg.weight_decay;
      optimizer_ = std::make_unique<aneci::ag::Adam>(
          std::vector<VarPtr>{w1_, b1_, w2_, b2_}, adam);
    }
    if (!dense_) {
      ScopedSpan s(tracer, "core.pair_sample");
      pairs_ = aneci::SampleReconstructionPairs(
          proximity_, cfg.negatives_per_node, rng_);
    }
  }

  double spgemm_nnz() const { return spgemm_nnz_; }
  size_t num_pairs() const { return pairs_.size(); }
  /// Node pairs the reconstruction loss scores per epoch: the sampled pairs,
  /// or all N^2 for the dense loss.
  double recon_pairs() const {
    const double n = graph_.num_nodes();
    return dense_ ? n * n : static_cast<double>(pairs_.size());
  }

  /// Runs one epoch and returns its loss. Spans go to `tracer` when it is
  /// non-null; forward kernel work is added to `tally` when non-null.
  double Epoch(Tracer* tracer, KernelTally* tally) {
    namespace ag = aneci::ag;
    ScopedSpan epoch_span(tracer, "epoch");
    if (!dense_ && cfg_.resample_every > 0 && epoch_ > 0 &&
        epoch_ % cfg_.resample_every == 0) {
      ScopedSpan s(tracer, "core.pair_sample");
      pairs_ = aneci::SampleReconstructionPairs(
          proximity_, cfg_.negatives_per_node, rng_);
    }
    {
      ScopedSpan s(tracer, "optimizer.zero_grad");
      optimizer_->ZeroGrad();
    }
    auto spmm = [&](const SparseMatrix* s, const VarPtr& x) {
      const uint64_t f0 = CounterValue("linalg/spmm/flops");
      const double t0 = NowSeconds();
      VarPtr y;
      {
        ScopedSpan span(tracer, "autograd.spmm");
        y = ag::SpMM(s, x);
      }
      if (tally) {
        tally->spmm_s += NowSeconds() - t0;
        tally->spmm_flop +=
            static_cast<double>(CounterValue("linalg/spmm/flops") - f0);
        tally->spmm_bytes += SpmmBytes(*s, x->value().cols());
      }
      return y;
    };
    // H1 = LeakyReLU(S X W1 + b1); Z = S H1 W2 + b2; P = softmax(Z).
    VarPtr xw = spmm(&x_sparse_, w1_);
    VarPtr sxw = spmm(&s_norm_, xw);
    VarPtr h1;
    {
      ScopedSpan s(tracer, "autograd.elementwise");
      h1 = ag::LeakyRelu(ag::AddRowBroadcast(sxw, b1_), cfg_.leaky_relu_alpha);
    }
    VarPtr hw;
    {
      const uint64_t f0 = CounterValue("linalg/matmul/flops");
      const double t0 = NowSeconds();
      {
        ScopedSpan s(tracer, "autograd.matmul");
        hw = ag::MatMul(h1, w2_);
      }
      if (tally) {
        tally->gemm_s += NowSeconds() - t0;
        tally->gemm_flop +=
            static_cast<double>(CounterValue("linalg/matmul/flops") - f0);
      }
    }
    VarPtr shw = spmm(&s_norm_, hw);
    VarPtr p;
    {
      ScopedSpan s(tracer, "autograd.elementwise");
      p = ag::RowSoftmax(ag::AddRowBroadcast(shw, b2_));
    }
    VarPtr q;
    {
      ScopedSpan s(tracer, "core.modularity");
      q = aneci::GeneralizedModularityLoss(&proximity_, p);
    }
    VarPtr recon;
    {
      ScopedSpan s(tracer, "core.recon");
      recon = dense_ ? aneci::DenseReconstructionLoss(&proximity_, p)
                     : aneci::SampledReconstructionLoss(p, pairs_);
    }
    const int n = graph_.num_nodes();
    VarPtr loss;
    {
      ScopedSpan s(tracer, "autograd.elementwise");
      loss = ag::Add(ag::Scale(q, -cfg_.beta1 * two_m_scale_),
                     ag::Scale(recon, cfg_.beta2 * n / recon_pairs()));
    }
    {
      ScopedSpan s(tracer, "autograd.backward");
      ag::Backward(loss);
    }
    {
      ScopedSpan s(tracer, "optimizer.step");
      optimizer_->Step();
    }
    ++epoch_;
    return loss->value()(0, 0);
  }

 private:
  const aneci::Graph& graph_;
  AneciConfig cfg_;
  aneci::Rng rng_;
  SparseMatrix s_norm_, x_sparse_, proximity_;
  double two_m_scale_ = 0.0;
  double spgemm_nnz_ = 0.0;
  bool dense_ = false;
  VarPtr w1_, b1_, w2_, b2_;
  std::unique_ptr<aneci::ag::Adam> optimizer_;
  std::vector<aneci::ag::PairTarget> pairs_;
  int epoch_ = 0;
};

/// One timed trainer run: total wall time and per-epoch times from the
/// epoch callback.
struct TrainRun {
  bool ok = false;
  std::string error;
  int rollbacks = 0;
  double train_s = 0.0;
  std::vector<double> epoch_ms;
  std::vector<aneci::AneciEpochStats> history;
};

TrainRun TimedTrain(const aneci::Graph& graph, const AneciConfig& cfg) {
  TrainRun run;
  std::vector<double> stamps;
  const double t0 = NowSeconds();
  auto result = aneci::Aneci(cfg).TrainWithResilience(
      graph, [&](const aneci::AneciEpochStats&, const Matrix&, const Matrix&) {
        stamps.push_back(NowSeconds());
      });
  run.train_s = NowSeconds() - t0;
  if (!result.ok()) {
    run.error = result.status().ToString();
    return run;
  }
  run.ok = true;
  run.rollbacks = result.value().watchdog_rollbacks;
  run.history = result.value().history;
  for (size_t i = 1; i < stamps.size(); ++i)
    run.epoch_ms.push_back((stamps[i] - stamps[i - 1]) * 1e3);
  return run;
}

}  // namespace

Result RunTrain(const RunContext& ctx) {
  const Flags& flags = *ctx.flags;
  Result out;
  const std::string dataset = flags.Str("dataset");
  auto ds = aneci::MakeDataset(dataset, ctx.seed);
  if (!ds.ok()) {
    out.Check(false, "dataset: " + ds.status().ToString());
    return out;
  }
  const aneci::Graph& graph = ds.value().graph;
  const AneciConfig cfg = TrainConfig(flags);
  const double q_floor = flags.Double("q-floor");
  out.Info("nodes", std::to_string(graph.num_nodes()));
  out.Info("edges", std::to_string(graph.num_edges()));
  out.Info("attribute_dim", std::to_string(graph.attribute_dim()));
  out.Info("epochs", std::to_string(cfg.epochs));

  // Every run must succeed without a watchdog rollback and stay above the
  // Q~ floor.
  auto check_run = [&](const TrainRun& run) {
    if (!out.Check(run.ok, "training failed: " + run.error)) return;
    out.Check(run.rollbacks == 0,
              "watchdog rollbacks: " + std::to_string(run.rollbacks));
    const double q = run.history.empty() ? 0.0 : run.history.back().modularity;
    out.Check(q >= q_floor, "final Q~ " + std::to_string(q) +
                                " below floor " + std::to_string(q_floor));
  };

  if (!ctx.trace) {
    // Full trainings give train_s, the epoch times and final Q~. Set-up
    // comes from zero-epoch trainings of the same config: the call returns
    // after the trainer's set-up and its final forward pass. Cycles of both
    // fill the time budget, so a slow spell of the host decides at most a
    // few of the samples each median is taken over.
    AneciConfig setup_cfg = cfg;
    setup_cfg.epochs = 0;
    std::vector<double> train_s, epoch_ms, setup_s;
    double final_q = std::nan(""), first_loss = std::nan("");
    auto setup_run = [&] {
      TrainRun run = TimedTrain(graph, setup_cfg);
      if (out.Check(run.ok && run.rollbacks == 0 && run.history.empty(),
                    "zero-epoch training failed: " + run.error))
        setup_s.push_back(run.train_s);
    };
    const double start = NowSeconds();
    double cycle_s = 0.0;
    for (int i = 0; i < kMinFullRuns ||
                    NowSeconds() - start + cycle_s <= ctx.seconds;
         ++i) {
      const double cycle_start = NowSeconds();
      TrainRun full = TimedTrain(graph, cfg);
      check_run(full);
      if (!full.ok || full.history.empty()) break;
      // Same seed and config: every full run must repeat the first epoch's
      // loss and the final Q~ bit for bit.
      const double loss = full.history.front().loss;
      const double q = full.history.back().modularity;
      if (std::isnan(final_q)) {
        final_q = q;
        first_loss = loss;
      }
      out.Check(loss == first_loss && q == final_q,
                "loss or final Q~ differs between identical runs");
      train_s.push_back(full.train_s);
      epoch_ms.insert(epoch_ms.end(), full.epoch_ms.begin(),
                      full.epoch_ms.end());
      for (int k = 0; k < kSetupsPerFullRun; ++k) setup_run();
      cycle_s = NowSeconds() - cycle_start;
    }
    out.Add("train_s", Median(train_s), "s");
    out.Add("epoch_ms_p50", Median(epoch_ms), "ms");
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    out.Add("final_q", final_q, "Q");
    out.Info("epoch_ms_p90", Quantile(epoch_ms, 0.9));
    out.Info("full_runs", std::to_string(train_s.size()));
    out.Info("setup_samples", std::to_string(setup_s.size()));
    out.Info("epoch_samples", std::to_string(epoch_ms.size()));
    return out;
  }

  // Traced run. First the untraced e2e reference: one trainer run, with
  // process CPU time around it.
  const CpuTimes cpu0 = ProcessCpu();
  const double wall0 = NowSeconds();
  TrainRun reference = TimedTrain(graph, cfg);
  const double wall = NowSeconds() - wall0;
  const CpuTimes cpu1 = ProcessCpu();
  check_run(reference);
  const double trainer_epoch_ms = Median(reference.epoch_ms);
  const double cpu_s = (cpu1.user - cpu0.user) + (cpu1.sys - cpu0.sys);

  Tracer tracer;
  EpochReplica replica(graph, cfg, &tracer);
  const int setup_root = 0;
  auto setup_ms = [&](const std::string& name) {
    double sum = 0.0;
    for (double s : tracer.SelfTimesUnder(setup_root, name)) sum += s;
    return sum * 1e3;
  };

  // Each round runs one traced epoch, then one untraced epoch at the pinned
  // width (the run's ANECI_THREADS) and one at a single thread, so tracing
  // overhead and pool scaling compare epochs run under the same host load.
  // Library counters are summed over the traced epochs only.
  const int width = aneci::NumThreads();
  const std::vector<std::string> counters = {
      "linalg/matmul/calls", "linalg/matmul/flops", "linalg/spmm/calls",
      "linalg/spmm/flops", "threadpool/parallel_for/calls",
      "threadpool/parallel_for/chunks", "threadpool/serial_fallbacks",
      "threadpool/helper_tasks"};
  std::map<std::string, double> counter_sum;
  KernelTally tally;
  std::vector<int> epoch_roots;
  std::vector<double> untraced_nt_ms, untraced_1t_ms;
  auto untraced_epoch_ms = [&](int threads) {
    aneci::ScopedNumThreads scoped(threads);
    const double t0 = NowSeconds();
    replica.Epoch(nullptr, nullptr);
    return (NowSeconds() - t0) * 1e3;
  };
  double first_loss = 0.0;
  for (int e = 0; e < kMinReplicaEpochs || NowSeconds() - wall0 < ctx.seconds;
       ++e) {
    std::map<std::string, uint64_t> before;
    for (const auto& name : counters) before[name] = CounterValue(name);
    epoch_roots.push_back(static_cast<int>(tracer.spans().size()));
    const double loss = replica.Epoch(&tracer, &tally);
    if (e == 0) first_loss = loss;
    for (const auto& name : counters)
      counter_sum[name] +=
          static_cast<double>(CounterValue(name) - before[name]);
    untraced_nt_ms.push_back(untraced_epoch_ms(width));
    untraced_1t_ms.push_back(untraced_epoch_ms(1));
  }
  const int traced_epochs = static_cast<int>(epoch_roots.size());
  auto per_epoch = [&](const std::string& name) {
    return counter_sum.at(name) / traced_epochs;
  };
  const double pool_calls = per_epoch("threadpool/parallel_for/calls");
  const double pool_serial = per_epoch("threadpool/serial_fallbacks");
  const double peak_bytes = aneci::MetricsRegistry::Global()
                                .GetGauge("autograd/peak_bytes")
                                ->Value();

  // Per-epoch self time of each layer: median over the traced epochs.
  auto layer_ms = [&](const std::string& name) {
    std::vector<double> per_epoch;
    for (int root : epoch_roots) {
      double sum = 0.0;
      for (double s : tracer.SelfTimesUnder(root, name)) sum += s;
      per_epoch.push_back(sum * 1e3);
    }
    return Median(per_epoch);
  };
  std::vector<double> replica_epoch_ms, covered_ms;
  for (int root : epoch_roots) {
    replica_epoch_ms.push_back(tracer.Duration(root) * 1e3);
    covered_ms.push_back(tracer.DescendantSelfSum(root) * 1e3);
  }

  const double epoch_1t = Median(untraced_1t_ms);
  const double epoch_nt = Median(untraced_nt_ms);

  const double trainer_first = reference.ok && !reference.history.empty()
                                   ? reference.history.front().loss
                                   : std::nan("");
  out.Check(std::fabs(first_loss - trainer_first) <=
                1e-12 * std::fabs(trainer_first),
            "replica first-epoch loss " + std::to_string(first_loss) +
                " != trainer " + std::to_string(trainer_first));
  out.Info("replica_first_loss", first_loss);
  out.Info("trainer_first_loss", trainer_first);
  out.Info("replica_epochs_traced", std::to_string(traced_epochs));
  out.Info("trainer_epoch_ms_p50", trainer_epoch_ms);
  out.Info("replica_epoch_ms_p50", Median(replica_epoch_ms));
  out.Info("replica_untraced_epoch_ms_p50", epoch_nt);

  out.Add("graph.proximity_ms", setup_ms("graph.proximity"), "ms");
  out.Add("graph.normalize_ms", setup_ms("graph.normalize"), "ms");
  out.Add("graph.features_ms", setup_ms("graph.features"), "ms");
  out.Add("linalg.spgemm_nnz", replica.spgemm_nnz(), "count");
  out.Add("core.modularity_ms", layer_ms("core.modularity"), "ms");
  out.Add("core.recon_ms", layer_ms("core.recon"), "ms");
  if (replica.num_pairs() > 0)  // Sampled reconstruction only.
    out.Add("core.pair_sample_ms", setup_ms("core.pair_sample"), "ms");
  out.Add("core.pairs", replica.recon_pairs(), "count");
  out.Add("autograd.spmm_ms", layer_ms("autograd.spmm"), "ms");
  out.Add("autograd.matmul_ms", layer_ms("autograd.matmul"), "ms");
  out.Add("autograd.elementwise_ms", layer_ms("autograd.elementwise"), "ms");
  out.Add("autograd.backward_ms", layer_ms("autograd.backward"), "ms");
  out.Add("optimizer.step_ms", layer_ms("optimizer.step"), "ms");
  out.Add("autograd.peak_bytes", peak_bytes, "bytes");
  out.Add("kernels.gemm_calls", per_epoch("linalg/matmul/calls"), "count");
  out.Add("kernels.spmm_calls", per_epoch("linalg/spmm/calls"), "count");
  out.Add("kernels.gemm_gflop", per_epoch("linalg/matmul/flops") * 1e-9,
          "GFLOP");
  out.Add("kernels.spmm_gflop", per_epoch("linalg/spmm/flops") * 1e-9,
          "GFLOP");
  out.Add("kernels.gemm_gflops",
          tally.gemm_s > 0 ? tally.gemm_flop / tally.gemm_s * 1e-9 : 0.0,
          "GFLOP/s");
  out.Add("kernels.spmm_gflops",
          tally.spmm_s > 0 ? tally.spmm_flop / tally.spmm_s * 1e-9 : 0.0,
          "GFLOP/s");
  out.Add("kernels.spmm_flop_per_byte",
          tally.spmm_bytes > 0 ? tally.spmm_flop / tally.spmm_bytes : 0.0,
          "flop/B");
  out.Add("pool.calls", pool_calls, "count");
  out.Add("pool.chunks", per_epoch("threadpool/parallel_for/chunks"),
          "count");
  out.Add("pool.serial_fallbacks", pool_serial, "count");
  const double parallel_calls = pool_calls - pool_serial;
  out.Add("pool.helper_share",
          parallel_calls > 0 && width > 1
              ? per_epoch("threadpool/helper_tasks") /
                    (parallel_calls * (width - 1))
              : 0.0,
          "share");
  out.Add("pool.scaling_1v4", epoch_nt > 0 ? epoch_1t / epoch_nt : 0.0, "x");
  out.Add("process.cpu_util", wall > 0 ? cpu_s / wall : 0.0, "cores");
  out.Add("process.sys_share",
          cpu_s > 0 ? (cpu1.sys - cpu0.sys) / cpu_s : 0.0, "share");
  out.Add("trace.coverage",
          trainer_epoch_ms > 0 ? Median(covered_ms) / trainer_epoch_ms : 0.0,
          "share");
  // Tracing cost: the same replica epoch with and without spans.
  out.Add("trace.overhead_ms", Median(replica_epoch_ms) - epoch_nt, "ms");
  if (!tracer.WriteJson(ctx.trace_out))
    out.Check(false, "cannot write " + ctx.trace_out);
  return out;
}

}  // namespace perfbench
