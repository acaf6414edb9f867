// Shared pieces of the end-to-end benchmark: flags, the result record every
// workload fills, order statistics, process counters and the in-memory span
// tracer used by traced runs.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// `--key=value` flags. run.py passes each workload's dataset, epochs,
/// reconstruction mode and Q~ floor from perfbench/config.json; the run
/// procedure (sample counts) is fixed by constants in train_workload.cc.
class Flags {
 public:
  Flags(int argc, char** argv);
  std::string Str(const std::string& key) const;
  int64_t Int(const std::string& key) const;
  double Double(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// One metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `info` carries sample counts and other context
/// that run.py prints above the result line but keeps out of it.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> info;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Info(const std::string& key, const std::string& value) {
    info[key] = value;
  }
  void Info(const std::string& key, double value);
  /// Counts one attempted operation, and a failure with its reason when
  /// `ok` is false. Returns `ok`.
  bool Check(bool ok, const std::string& what);
  std::vector<std::string> failures;

  std::string ToJson() const;
};

/// Wall-clock seconds on the steady clock since an arbitrary origin.
double NowSeconds();

/// Quantile with linear interpolation between order statistics (q in
/// [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

/// User and system CPU seconds consumed by this process so far.
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
};
CpuTimes ProcessCpu();

/// Value of a registry counter (library metrics; see util/metrics.h).
uint64_t CounterValue(const std::string& name);

/// Benchmark-side span tracer. Spans live in memory and are written as JSON
/// when the run ends. Each span has a name, start, end, parent and request
/// id; a span's self time is its duration minus the part of its interval
/// that its children cover.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< Seconds, NowSeconds() clock.
    double end = 0.0;
    int parent = -1;     ///< Index of the parent span, -1 for a root.
    int64_t request = -1;
  };

  /// Opens a span as a child of the innermost open span of this thread.
  int Begin(const std::string& name, int64_t request = -1);
  void End(int id);

  std::vector<Span> spans() const;
  /// Self time per span, indexed like spans().
  std::vector<double> SelfTimes() const;
  /// Self times of every span named `name` that descends from `root`.
  std::vector<double> SelfTimesUnder(int root, const std::string& name) const;
  /// Sum of self times of all spans strictly below `root`.
  double DescendantSelfSum(int root) const;
  double Duration(int id) const;
  bool WriteJson(const std::string& path) const;

 private:
  bool IsUnder(int id, int root) const;

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op, so untraced and traced runs
/// share one code path.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Everything a workload needs from the command line.
struct RunContext {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;    ///< Where the span JSON goes in traced runs.
  const Flags* flags = nullptr;
};

Result RunTrain(const RunContext& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
