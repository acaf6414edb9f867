// The one gradient-descent training loop, shared by AnECI and every
// gradient-trained baseline. A model hands the loop its parameter list, a
// per-epoch loss closure and, optionally, save/restore hooks for extra
// mutable state. The loop owns everything else: Adam and the ZeroGrad ->
// loss -> Backward -> Step sequence; the divergence watchdog (Inspect,
// rollback to the last in-memory snapshot, lr backoff); checkpoint save and
// resume through Env; early stopping; the train/* counters, the train/epochs
// telemetry ring and the per-epoch observer.
//
//   VarPtr z;
//   TrainLoop({w1, w2}, {.epochs = 100, .adam = {.lr = 0.01}, .rng = &rng})
//       .RunOrDie([&](int epoch) {
//         z = Forward();
//         return Loss(z);  // 1x1 VarPtr.
//       });
//   return z->value();  // The last epoch's forward value.
//
// Each epoch phase opens a trace span under the caller's current span (e.g.
// "train/aneci" or "embed/GAE"): forward_loss, backward, watchdog and step
// once per epoch run, snapshot per in-memory snapshot, checkpoint per disk
// save.
#ifndef ANECI_CORE_TRAIN_LOOP_H_
#define ANECI_CORE_TRAIN_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autograd/optimizer.h"
#include "autograd/variable.h"
#include "core/watchdog.h"
#include "util/checkpoint.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/status.h"

namespace aneci {

/// Per-epoch hook, called after each healthy epoch's optimizer step. Loss
/// scales are method-specific; only the trend within one run compares.
class TrainObserver {
 public:
  virtual ~TrainObserver() = default;
  virtual void OnEpoch(int epoch, double loss) = 0;
};

/// What one epoch's loss closure returns; implicit from the 1x1 loss node.
struct EpochLoss {
  EpochLoss(ag::VarPtr loss) : loss(std::move(loss)) {}

  ag::VarPtr loss;
  /// AnECI's community telemetry. When set, Q~ and rigidity enter the
  /// epoch's ring record, and early stopping watches -Q~.
  bool community = false;
  double modularity = 0.0;
  double rigidity = 0.0;
};

class TrainLoop {
 public:
  /// Extra mutable state the closure reads besides the parameters and the
  /// main RNG. `save` runs at every snapshot, `restore` on rollback or
  /// resume. State with a checkpoint field (pairs, the adversarial stream)
  /// goes into `c` and survives a disk checkpoint; state kept in the hook's
  /// closure (SnapshotByCopy) survives rollback only, so its model must
  /// leave checkpoint_dir empty.
  struct StateHooks {
    std::function<void(TrainingCheckpoint* c)> save;
    std::function<void(const TrainingCheckpoint& c)> restore;
  };

  /// Fields from `watchdog` on mean what AneciConfig's (core/aneci.h) do.
  struct Options {
    int epochs = 0;
    ag::Adam::Options adam{};
    /// The stream the closure draws from; snapshotted with the parameters.
    Rng* rng = nullptr;
    TrainObserver* observer = nullptr;
    StateHooks state{};
    WatchdogOptions watchdog{};
    int early_stop_patience = 0;
    double early_stop_min_delta = 1e-4;
    std::string checkpoint_dir{};
    int checkpoint_every = 10;
    std::string resume_from{};
    /// A checkpoint resumes only into a run with the same fingerprint.
    uint64_t fingerprint = 0;
    Env* env = nullptr;
    /// Epochs for which this returns true get their loss forced to NaN.
    std::function<bool(int)> divergence_fault_hook{};
  };

  using LossFn = std::function<EpochLoss(int epoch)>;
  /// Runs after each healthy epoch's step and observer.
  using EpochFn = std::function<void(const EpochStatBlob& stats)>;

  TrainLoop(std::vector<ag::VarPtr> params, Options options);

  /// Divergence past the rollback budget and checkpoint errors are a Status.
  Status Run(const LossFn& loss_fn, const EpochFn& on_epoch = nullptr);

  /// Run for callers without an error channel: aborts on failure.
  void RunOrDie(const LossFn& loss_fn, const EpochFn& on_epoch = nullptr);

  /// One entry per healthy epoch (restored on rollback and resume).
  const std::vector<EpochStatBlob>& history() const { return history_; }
  int resumed_from_epoch() const { return resumed_from_epoch_; }
  int rollbacks() const { return watchdog_.rollbacks(); }
  double lr() const { return optimizer_.lr(); }

 private:
  /// The complete loop state at the top of epoch `next_epoch`.
  TrainingCheckpoint Capture(int next_epoch) const;
  Status RestoreFrom(const TrainingCheckpoint& c);

  std::vector<ag::VarPtr> params_;
  Options options_;
  ag::Adam optimizer_;
  TrainingWatchdog watchdog_;
  std::vector<EpochStatBlob> history_;
  double best_mod_loss_;
  int since_best_ = 0;
  int resumed_from_epoch_ = -1;
};

/// Hooks that snapshot `*state` by copy (for rollback only; see StateHooks).
template <typename T>
TrainLoop::StateHooks SnapshotByCopy(T* state) {
  auto saved = std::make_shared<T>();
  return {[state, saved](TrainingCheckpoint*) { *saved = *state; },
          [state, saved](const TrainingCheckpoint&) { *state = *saved; }};
}

}  // namespace aneci

#endif  // ANECI_CORE_TRAIN_LOOP_H_
