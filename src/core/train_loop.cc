#include "core/train_loop.h"

#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace aneci {

namespace {

TensorBlob ToBlob(const Matrix& m) {
  return {m.rows(), m.cols(), {m.data(), m.data() + m.size()}};
}

Matrix BlobToMatrix(const TensorBlob& b) {
  Matrix m(b.rows, b.cols);
  std::copy(b.data.begin(), b.data.end(), m.data());
  return m;
}

/// Serial L2 norm over all parameter gradients. Each per-parameter sum runs
/// in the same element order at every thread count, so the value is part of
/// the deterministic telemetry contract.
double GradNorm(const std::vector<ag::VarPtr>& params) {
  double sum = 0.0;
  for (const ag::VarPtr& p : params) {
    const Matrix& g = p->grad();
    for (int64_t i = 0; i < g.size(); ++i) sum += g.data()[i] * g.data()[i];
  }
  return std::sqrt(sum);
}

}  // namespace

TrainLoop::TrainLoop(std::vector<ag::VarPtr> params, Options options)
    : params_(std::move(params)),
      options_(std::move(options)),
      optimizer_(params_, options_.adam),
      watchdog_(options_.watchdog),
      best_mod_loss_(std::numeric_limits<double>::max()) {}

TrainingCheckpoint TrainLoop::Capture(int next_epoch) const {
  TrainingCheckpoint c;
  c.config_fingerprint = options_.fingerprint;
  c.next_epoch = next_epoch;
  c.adam_step = optimizer_.step();
  c.lr = optimizer_.lr();
  c.best_mod_loss = best_mod_loss_;
  c.since_best = since_best_;
  c.watchdog_rollbacks = watchdog_.rollbacks();
  c.watchdog_best_abs_loss = watchdog_.best_abs_loss();
  if (options_.rng != nullptr)
    PackRngState(options_.rng->state(), c.rng_state, &c.rng_has_gauss,
                 &c.rng_gauss);
  for (const ag::VarPtr& p : params_) c.params.push_back(ToBlob(p->value()));
  for (const Matrix& m : optimizer_.first_moments())
    c.opt_m.push_back(ToBlob(m));
  for (const Matrix& m : optimizer_.second_moments())
    c.opt_v.push_back(ToBlob(m));
  if (options_.state.save) options_.state.save(&c);
  c.history = history_;
  return c;
}

Status TrainLoop::RestoreFrom(const TrainingCheckpoint& c) {
  if (c.config_fingerprint != options_.fingerprint)
    return Status::FailedPrecondition(
        "checkpoint fingerprint mismatch: snapshot was written by a "
        "different configuration or graph");
  for (const std::vector<TensorBlob>* blobs : {&c.params, &c.opt_m, &c.opt_v}) {
    if (blobs->size() != params_.size())
      return Status::FailedPrecondition("checkpoint parameter count mismatch");
    for (size_t k = 0; k < params_.size(); ++k) {
      const Matrix& value = params_[k]->value();
      if ((*blobs)[k].rows != value.rows() || (*blobs)[k].cols != value.cols())
        return Status::FailedPrecondition(
            "checkpoint tensor shape mismatch at parameter " +
            std::to_string(k));
    }
  }
  std::vector<Matrix> m, v;
  for (size_t k = 0; k < params_.size(); ++k) {
    params_[k]->mutable_value() = BlobToMatrix(c.params[k]);
    m.push_back(BlobToMatrix(c.opt_m[k]));
    v.push_back(BlobToMatrix(c.opt_v[k]));
  }
  optimizer_.SetMoments(std::move(m), std::move(v));
  optimizer_.set_step(c.adam_step);
  optimizer_.set_lr(c.lr);
  best_mod_loss_ = c.best_mod_loss;
  since_best_ = c.since_best;
  watchdog_.Restore(c.watchdog_rollbacks, c.watchdog_best_abs_loss);
  if (options_.rng != nullptr)
    options_.rng->set_state(
        UnpackRngState(c.rng_state, c.rng_has_gauss, c.rng_gauss));
  if (options_.state.restore) options_.state.restore(c);
  history_ = c.history;
  return Status::OK();
}

Status TrainLoop::Run(const LossFn& loss_fn, const EpochFn& on_epoch) {
  static Counter* runs = MetricsRegistry::Global().GetCounter(
      "train/runs", MetricClass::kDeterministic);
  static Counter* epochs_run = MetricsRegistry::Global().GetCounter(
      "train/epochs", MetricClass::kDeterministic);
  static Counter* rollbacks_counter = MetricsRegistry::Global().GetCounter(
      "train/watchdog_rollbacks", MetricClass::kDeterministic);
  static Counter* early_stops = MetricsRegistry::Global().GetCounter(
      "train/early_stops", MetricClass::kDeterministic);
  static Gauge* last_loss = MetricsRegistry::Global().GetGauge(
      "train/last_loss", MetricClass::kDeterministic);
  TelemetryRing* ring = MetricsRegistry::Global().GetRing("train/epochs");
  runs->Increment();
  const Options& o = options_;
  Env* env = o.env ? o.env : Env::Default();

  int epoch = 0;
  if (!o.resume_from.empty()) {
    StatusOr<TrainingCheckpoint> c = LoadLatestCheckpoint(o.resume_from, env);
    if (c.ok()) {
      ANECI_RETURN_IF_ERROR(RestoreFrom(c.value()));
      epoch = c.value().next_epoch;
      resumed_from_epoch_ = epoch;
      ring->Append("{\"type\":\"event\",\"class\":\"det\",\"name\":"
                   "\"checkpoint_resume\",\"epoch\":" +
                   std::to_string(epoch) + "}");
    } else if (c.status().code() != StatusCode::kNotFound) {
      // Corrupt beyond the .bak fallback — surface it rather than silently
      // retraining from scratch.
      return c.status();
    }
  }

  TrainingCheckpoint last_good;  // In-memory rollback target.
  bool have_snapshot = false;
  int last_snapshot_epoch = 0;

  while (epoch < o.epochs) {
    // Watchdog snapshot at the epoch boundary, before this epoch's RNG
    // draws, so a rollback replays the exact same trajectory modulo the
    // decayed learning rate.
    if (o.watchdog.enabled &&
        (!have_snapshot ||
         epoch - last_snapshot_epoch >= o.watchdog.snapshot_every)) {
      TraceSpan span("snapshot");
      last_good = Capture(epoch);
      have_snapshot = true;
      last_snapshot_epoch = epoch;
    }

    optimizer_.ZeroGrad();
    const EpochLoss out = [&] {
      TraceSpan span("forward_loss");
      return loss_fn(epoch);
    }();
    {
      TraceSpan span("backward");
      ag::Backward(out.loss);
    }

    double loss_value = out.loss->value()(0, 0);
    if (o.divergence_fault_hook && o.divergence_fault_hook(epoch))
      loss_value = std::numeric_limits<double>::quiet_NaN();

    {
      TraceSpan span("watchdog");
      const WatchdogVerdict verdict = watchdog_.Inspect(loss_value, params_);
      if (verdict != WatchdogVerdict::kHealthy) {
        if (!have_snapshot || !watchdog_.RecordRollback())
          return Status::Internal(
              std::string("training diverged (") +
              WatchdogVerdictName(verdict) + " at epoch " +
              std::to_string(epoch) + ") after " +
              std::to_string(watchdog_.rollbacks()) +
              " rollback(s); lr reached " + std::to_string(optimizer_.lr()));
        // Roll back to the last good boundary and retry with a decayed
        // learning rate; the rollback count survives the restore.
        last_good.lr *= o.watchdog.lr_backoff;
        last_good.watchdog_rollbacks = watchdog_.rollbacks();
        ANECI_RETURN_IF_ERROR(RestoreFrom(last_good));
        rollbacks_counter->Increment();
        ring->Append("{\"type\":\"event\",\"class\":\"det\",\"name\":"
                     "\"watchdog_rollback\",\"epoch\":" +
                     std::to_string(epoch) + ",\"verdict\":\"" +
                     WatchdogVerdictName(verdict) + "\",\"resumed_epoch\":" +
                     std::to_string(last_good.next_epoch) +
                     ",\"lr\":" + JsonDouble(last_good.lr) + "}");
        epoch = last_good.next_epoch;
        continue;
      }
    }

    {
      TraceSpan span("step");
      optimizer_.Step();
    }

    const EpochStatBlob stats{epoch, loss_value, out.modularity, out.rigidity};
    history_.push_back(stats);
    epochs_run->Increment();
    last_loss->Set(loss_value);
    std::string event = "{\"type\":\"epoch\",\"class\":\"det\",\"epoch\":" +
                        std::to_string(epoch) +
                        ",\"loss\":" + JsonDouble(loss_value);
    if (out.community)
      event += ",\"modularity\":" + JsonDouble(stats.modularity) +
               ",\"rigidity\":" + JsonDouble(stats.rigidity);
    ring->Append(event + ",\"grad_norm\":" + JsonDouble(GradNorm(params_)) +
                 ",\"lr\":" + JsonDouble(optimizer_.lr()) + "}");
    if (o.observer != nullptr) o.observer->OnEpoch(epoch, loss_value);
    if (on_epoch) on_epoch(stats);

    bool stop_early = false;
    if (o.early_stop_patience > 0) {
      const double mod_loss = -stats.modularity;
      if (mod_loss < best_mod_loss_ - o.early_stop_min_delta) {
        best_mod_loss_ = mod_loss;
        since_best_ = 0;
      } else if (++since_best_ >= o.early_stop_patience) {
        stop_early = true;
      }
    }

    ++epoch;

    if (!o.checkpoint_dir.empty() && o.checkpoint_every > 0 &&
        (epoch % o.checkpoint_every == 0 || epoch == o.epochs || stop_early)) {
      TraceSpan span("checkpoint");
      ANECI_RETURN_IF_ERROR(
          SaveRotatingCheckpoint(Capture(epoch), o.checkpoint_dir, env));
    }

    if (stop_early) {
      early_stops->Increment();
      ring->Append("{\"type\":\"event\",\"class\":\"det\",\"name\":"
                   "\"early_stop\",\"epoch\":" + std::to_string(epoch - 1) +
                   "}");
      break;
    }
  }
  return Status::OK();
}

void TrainLoop::RunOrDie(const LossFn& loss_fn, const EpochFn& on_epoch) {
  const Status status = Run(loss_fn, on_epoch);
  ANECI_CHECK_MSG(status.ok(), status.ToString().c_str());
}

}  // namespace aneci
