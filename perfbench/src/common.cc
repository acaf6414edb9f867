#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/env.h"
#include "util/metrics.h"

namespace perfbench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> tl_open_spans;

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) continue;
    values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
}

std::string Flags::Str(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench: missing flag --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

int64_t Flags::Int(const std::string& key) const {
  return std::strtoll(Str(key).c_str(), nullptr, 10);
}

double Flags::Double(const std::string& key) const {
  return std::strtod(Str(key).c_str(), nullptr);
}

void Result::Info(const std::string& key, double value) {
  info[key] = Num(value);
}

bool Result::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
  return ok;
}

std::string Result::ToJson() const {
  // Appends only: GCC 12 flags `"literal" + std::string` with a spurious
  // -Wrestrict.
  auto quoted = [](std::string* out, const std::string& s) {
    out->append("\"").append(JsonEscape(s)).append("\"");
  };
  std::string json = "{\"attempted\":";
  json.append(std::to_string(attempted)).append(",\"failed\":");
  json.append(std::to_string(failed)).append(",\"metrics\":{");
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ',';
    quoted(&json, metrics[i].name);
    json.append(":{\"value\":").append(Num(metrics[i].value));
    json.append(",\"unit\":");
    quoted(&json, metrics[i].unit);
    json += '}';
  }
  json.append("},\"info\":{");
  bool first = true;
  for (const auto& [key, value] : info) {
    if (!first) json += ',';
    first = false;
    quoted(&json, key);
    json += ':';
    quoted(&json, value);
  }
  json.append("},\"failures\":[");
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i) json += ',';
    quoted(&json, failures[i]);
  }
  json.append("]}");
  return json;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux.
}

CpuTimes ProcessCpu() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  CpuTimes t;
  t.user = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec * 1e-6;
  t.sys = usage.ru_stime.tv_sec + usage.ru_stime.tv_usec * 1e-6;
  return t;
}

uint64_t CounterValue(const std::string& name) {
  // The class argument only matters on first registration, and every
  // counter read here is registered by the library before it is read.
  return aneci::MetricsRegistry::Global().GetCounter(name)->Value();
}

int Tracer::Begin(const std::string& name, int64_t request) {
  const int parent = tl_open_spans.empty() ? -1 : tl_open_spans.back();
  int id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({name, NowSeconds(), 0.0, parent, request});
  }
  tl_open_spans.push_back(id);
  return id;
}

void Tracer::End(int id) {
  const double now = NowSeconds();
  if (!tl_open_spans.empty() && tl_open_spans.back() == id)
    tl_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::SelfTimes() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all)
    if (s.parent >= 0) children[s.parent].push_back({s.start, s.end});
  std::vector<double> self(all.size(), 0.0);
  for (size_t i = 0; i < all.size(); ++i) {
    const double lo = all[i].start, hi = all[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of child intervals, clipped to the parent.
    double covered = 0.0, run_lo = 0.0, run_hi = -1.0;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo), b = std::min(b0, hi);
      if (b <= a) continue;
      if (!open || a > run_hi) {
        if (open) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
        open = true;
      } else {
        run_hi = std::max(run_hi, b);
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

bool Tracer::IsUnder(int id, int root) const {
  for (int p = spans_[static_cast<size_t>(id)].parent; p >= 0;
       p = spans_[static_cast<size_t>(p)].parent)
    if (p == root) return true;
  return false;
}

std::vector<double> Tracer::SelfTimesUnder(int root,
                                           const std::string& name) const {
  const std::vector<double> self = SelfTimes();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == name && IsUnder(static_cast<int>(i), root))
      out.push_back(self[i]);
  return out;
}

double Tracer::DescendantSelfSum(int root) const {
  const std::vector<double> self = SelfTimes();
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i)
    if (IsUnder(static_cast<int>(i), root)) sum += self[i];
  return sum;
}

double Tracer::Duration(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<size_t>(id)];
  return s.end - s.start;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  const double origin = all.empty() ? 0.0 : all.front().start;
  std::string json = "{\"spans\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    if (i) json += ",\n";
    json += "{\"id\":" + std::to_string(i) + ",\"name\":\"" +
            JsonEscape(all[i].name) + "\",\"start_us\":" +
            Num((all[i].start - origin) * 1e6) + ",\"end_us\":" +
            Num((all[i].end - origin) * 1e6) +
            ",\"parent\":" + std::to_string(all[i].parent) +
            ",\"request\":" + std::to_string(all[i].request) + "}";
  }
  json += "]}\n";
  return aneci::Env::Default()->WriteFileAtomic(path, json).ok();
}

}  // namespace perfbench
