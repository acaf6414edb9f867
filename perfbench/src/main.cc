// perfbench: the end-to-end benchmark binary. perfbench/run.py builds
// it, pins the workload parameters from perfbench/config.json, and runs
//   perfbench --seed=N --seconds=S --trace=0|1 [--trace-out=FILE]
//             [workload flags...]
// It prints one JSON line: attempted/failed counts, metrics and run info.
#include <cstdio>
#include <string>

#include "linalg/kernels/kernels.h"
#include "perfbench/src/common.h"
#include "util/thread_pool.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Flags flags(argc, argv);
  RunContext ctx;
  ctx.seed = static_cast<uint64_t>(flags.Int("seed"));
  ctx.seconds = flags.Double("seconds");
  ctx.trace = flags.Int("trace") != 0;
  if (ctx.trace) ctx.trace_out = flags.Str("trace-out");
  ctx.flags = &flags;
  Result result = RunTrain(ctx);
  result.Info("kernel_backend", aneci::kernels::ActiveName());
  result.Info("pool_threads", std::to_string(aneci::NumThreads()));
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}
