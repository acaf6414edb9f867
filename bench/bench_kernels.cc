// google-benchmark microbenchmarks for the thread-pool kernel layer:
// serial (1 thread) vs N-thread MatMul / SpMM / SpGEMM / k-means and the
// dense reconstruction loss, so the parallel speedup is measured rather
// than asserted. Run e.g.:
//   ./bench_kernels --benchmark_filter=MatMul
// The second Args() value is the thread count (BM_DenseReconLoss has only
// that one); compare the 1-thread and 4-thread rows of the same shape for
// the speedup (>= 2x at 4 threads on 1024x1024 MatMul on hardware with
// >= 4 free cores).
//
// GEMM rows also report a `gflops` rate counter, and BM_GemmBackend pins a
// single-thread 512^3 GEMM on EVERY compiled-in backend (scalar, avx2) so
// the SIMD speedup is a ratio inside one run. The emitted
// BENCH_kernels.json carries the process-wide active backend at top level;
// regenerate the scalar-pinned profile via ANECI_KERNEL_BACKEND=scalar
// (tools/bench_snapshot.sh writes both).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "core/losses.h"
#include "data/datasets.h"
#include "graph/proximity.h"
#include "linalg/kernels/kernels.h"
#include "linalg/kmeans.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace aneci {
namespace {

/// GFLOP/s rate counter for a kernel doing `flops` flops per iteration.
benchmark::Counter GflopsRate(double flops) {
  return benchmark::Counter(flops * 1e-9,
                            benchmark::Counter::kIsIterationInvariantRate);
}

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ScopedNumThreads guard(static_cast<int>(state.range(1)));
  Rng rng(1);
  const Matrix a = Matrix::RandomNormal(n, n, 1.0, rng);
  const Matrix b = Matrix::RandomNormal(n, n, 1.0, rng);
  for (auto _ : state) {
    Matrix c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["threads"] = static_cast<double>(NumThreads());
  state.counters["gflops"] = GflopsRate(2.0 * n * n * n);
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMul)
    ->Args({256, 1})
    ->Args({256, 4})
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({1024, 8})
    ->Unit(benchmark::kMillisecond);

void BM_MatMulTransB(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ScopedNumThreads guard(static_cast<int>(state.range(1)));
  Rng rng(2);
  const Matrix a = Matrix::RandomNormal(n, n, 1.0, rng);
  const Matrix b = Matrix::RandomNormal(n, n, 1.0, rng);
  for (auto _ : state) {
    Matrix c = MatMulTransB(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["gflops"] = GflopsRate(2.0 * n * n * n);
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMulTransB)
    ->Args({512, 1})
    ->Args({512, 4})
    ->Unit(benchmark::kMillisecond);

SparseMatrix RandomAdjacency(int n, double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> trips;
  for (int r = 0; r < n; ++r) {
    trips.push_back({r, r, 1.0});
    for (int c = r + 1; c < n; ++c) {
      if (rng.NextBool(density)) {
        trips.push_back({r, c, 1.0});
        trips.push_back({c, r, 1.0});
      }
    }
  }
  return SparseMatrix::FromTriplets(n, n, trips);
}

void BM_SpMM(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ScopedNumThreads guard(static_cast<int>(state.range(1)));
  const SparseMatrix s = RandomAdjacency(n, 10.0 / n, 3);
  Rng rng(4);
  const Matrix x = Matrix::RandomNormal(n, 64, 1.0, rng);
  for (auto _ : state) {
    Matrix y = s.Multiply(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["nnz"] = static_cast<double>(s.nnz());
  state.SetItemsProcessed(state.iterations() * 2 * s.nnz() * 64);
}
BENCHMARK(BM_SpMM)
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->Args({20000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_SpGemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ScopedNumThreads guard(static_cast<int>(state.range(1)));
  const SparseMatrix s = RandomAdjacency(n, 12.0 / n, 5);
  for (auto _ : state) {
    SparseMatrix p = s.MultiplySparse(s);
    benchmark::DoNotOptimize(p.nnz());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpGemm)
    ->Args({8000, 1})
    ->Args({8000, 4})
    ->Unit(benchmark::kMillisecond);

void BM_KMeans(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ScopedNumThreads guard(static_cast<int>(state.range(1)));
  Rng data_rng(6);
  const Matrix points = Matrix::RandomNormal(n, 32, 1.0, data_rng);
  KMeansOptions options;
  options.max_iterations = 10;
  options.restarts = 1;
  for (auto _ : state) {
    Rng rng(7);
    KMeansResult r = KMeans(points, 16, rng, options);
    benchmark::DoNotOptimize(r.inertia);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n) * 16);
}
BENCHMARK(BM_KMeans)
    ->Args({20000, 1})
    ->Args({20000, 2})
    ->Args({20000, 4})
    ->Unit(benchmark::kMillisecond);

// Exact dense reconstruction loss, forward plus backward, at Polblogs
// scale: N = 1490 against the order-2 proximity A~ of the Polblogs
// analogue (~0.8M stored entries) with K = 16. This is the layer that
// dominates a dense-mode AnECI epoch; range(0) is the thread count.
void BM_DenseReconLoss(benchmark::State& state) {
  ScopedNumThreads guard(static_cast<int>(state.range(0)));
  const Dataset ds = MakePolblogs(11);
  const SparseMatrix proximity =
      HighOrderProximity(ds.graph, ProximityOptions());
  Rng rng(11);
  const Matrix pm =
      RowSoftmax(Matrix::RandomNormal(proximity.rows(), 16, 1.0, rng));
  for (auto _ : state) {
    ag::VarPtr p = ag::MakeParameter(pm);
    ag::VarPtr loss = DenseReconstructionLoss(&proximity, p);
    ag::Backward(loss);
    benchmark::DoNotOptimize(p->grad().data());
  }
  state.counters["threads"] = static_cast<double>(NumThreads());
  state.counters["nnz"] = static_cast<double>(proximity.nnz());
}
BENCHMARK(BM_DenseReconLoss)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// One single-thread 512^3 GEMM per compiled-in backend, bypassing Active()
// via BackendByName so one run measures the scalar/avx2 ratio directly
// (the ISSUE's >= 3x acceptance gate). Registered from main() because the
// backend list is a runtime property.
void BM_GemmBackend(benchmark::State& state, const std::string& name) {
  const kernels::Backend* be = kernels::BackendByName(name);
  if (be == nullptr) {
    state.SkipWithError(("backend unavailable: " + name).c_str());
    return;
  }
  ScopedNumThreads guard(1);
  const int n = 512;
  Rng rng(10);
  const Matrix a = Matrix::RandomNormal(n, n, 1.0, rng);
  const Matrix b = Matrix::RandomNormal(n, n, 1.0, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    be->Gemm(false, false, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["gflops"] = GflopsRate(2.0 * n * n * n);
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}

void RegisterBackendBenchmarks() {
  for (const std::string& name : kernels::AvailableBackends()) {
    benchmark::RegisterBenchmark(("BM_GemmBackend/" + name + "/512").c_str(),
                                 [name](benchmark::State& st) {
                                   BM_GemmBackend(st, name);
                                 })
        ->Unit(benchmark::kMillisecond);
  }
}

// Instrumentation overhead probe: the same kernel mix with the metrics
// registry enabled (counters increment) vs disabled (each Add() is a single
// relaxed load + branch). Compare the two rows; the enabled one must stay
// within ~2% of disabled (the kernels' per-call work dwarfs a handful of
// sharded counter bumps). range(0) selects enabled.
void BM_MetricsOverhead(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  ScopedNumThreads guard(4);
  const int n = 256;
  Rng rng(8);
  const Matrix a = Matrix::RandomNormal(n, n, 1.0, rng);
  const Matrix b = Matrix::RandomNormal(n, n, 1.0, rng);
  const SparseMatrix s = RandomAdjacency(4000, 10.0 / 4000, 9);
  const Matrix x = Matrix::RandomNormal(4000, 64, 1.0, rng);
  MetricsRegistry::Global().set_enabled(enabled);
  for (auto _ : state) {
    Matrix c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
    Matrix y = s.Multiply(x);
    benchmark::DoNotOptimize(y.data());
  }
  MetricsRegistry::Global().set_enabled(true);
  state.counters["metrics_enabled"] = enabled ? 1.0 : 0.0;
}
BENCHMARK(BM_MetricsOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Capturing reporter: prints the usual console table AND accumulates every
// run so main() can emit a machine-readable BENCH_kernels.json (real time,
// throughput — items_per_second is the GEMM flop rate — and counters).
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      std::string entry = "{\"name\":\"" + run.benchmark_name() + "\"";
      entry += ",\"iterations\":" + std::to_string(run.iterations);
      entry += ",\"real_time_ms\":" +
               JsonDouble(run.GetAdjustedRealTime() * TimeScale(run));
      entry += ",\"cpu_time_ms\":" +
               JsonDouble(run.GetAdjustedCPUTime() * TimeScale(run));
      for (const auto& [name, counter] : run.counters)
        entry += ",\"" + name + "\":" + JsonDouble(counter);
      entry += "}";
      entries_.push_back(std::move(entry));
    }
  }

  std::string Json() const {
    std::string json = "{\"bench\":\"kernels\",\"backend\":\"" +
                       std::string(kernels::ActiveName()) +
                       "\",\"benchmarks\":[";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) json += ",";
      json += entries_[i];
    }
    json += "]}\n";
    return json;
  }

 private:
  /// GetAdjusted*Time() is in the run's own time unit; rescale to ms.
  static double TimeScale(const Run& run) {
    return 1e3 / benchmark::GetTimeUnitMultiplier(run.time_unit);
  }

  std::vector<std::string> entries_;
};

}  // namespace
}  // namespace aneci

int main(int argc, char** argv) {
  // Peel off --outdir / --outfile (ours) before google-benchmark sees the
  // flags. --outfile lets a backend-pinned run (ANECI_KERNEL_BACKEND=scalar)
  // land next to the default profile instead of overwriting it.
  std::string outdir = "results";
  std::string outfile = "BENCH_kernels.json";
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--outdir=", 0) == 0) {
      outdir = arg.substr(9);
      continue;
    }
    if (arg.rfind("--outfile=", 0) == 0) {
      outfile = arg.substr(10);
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  aneci::RegisterBackendBenchmarks();
  aneci::JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  aneci::Status st = aneci::Env::Default()->CreateDir(outdir);
  if (st.ok())
    st = aneci::Env::Default()->WriteFileAtomic(outdir + "/" + outfile,
                                                reporter.Json());
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", outfile.c_str(), st.ToString().c_str());
    return 1;
  }
  std::printf("json: %s/%s\n", outdir.c_str(), outfile.c_str());
  return 0;
}
