// First-order optimisers over parameter nodes. The training loop pattern is:
//   optimizer.ZeroGrad(); auto loss = BuildLoss(); Backward(loss);
//   optimizer.Step();
// core/train_loop.h runs it for every model in the library.
#ifndef ANECI_AUTOGRAD_OPTIMIZER_H_
#define ANECI_AUTOGRAD_OPTIMIZER_H_

#include <vector>

#include "autograd/variable.h"

namespace aneci::ag {

/// Base interface; owns references to the parameters it updates.
class Optimizer {
 public:
  explicit Optimizer(std::vector<VarPtr> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update using the gradients currently stored on parameters.
  virtual void Step() = 0;

  void ZeroGrad() {
    for (const VarPtr& p : params_) p->ZeroGrad();
  }

  const std::vector<VarPtr>& params() const { return params_; }

 protected:
  std::vector<VarPtr> params_;
};

/// Plain SGD with optional L2 weight decay.
class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<VarPtr> params, double lr, double weight_decay = 0.0)
      : Optimizer(std::move(params)), lr_(lr), weight_decay_(weight_decay) {}

  void Step() override;

 private:
  double lr_;
  double weight_decay_;
};

/// Adam (Kingma & Ba 2015) with decoupled gradient clipping by global norm.
class Adam final : public Optimizer {
 public:
  struct Options {
    double lr = 0.01;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double weight_decay = 0.0;
    double clip_norm = 0.0;  ///< 0 disables clipping.
  };

  Adam(std::vector<VarPtr> params, const Options& options);

  void Step() override;

  // --- Checkpointable state (util/checkpoint.h) ------------------------------
  // Step counter, moment buffers and the (watchdog-adjustable) learning rate
  // are exposed so a training run can be snapshotted and later resumed
  // bit-identically.

  int step() const { return t_; }
  void set_step(int t) { t_ = t; }

  double lr() const { return options_.lr; }
  void set_lr(double lr) { options_.lr = lr; }

  const std::vector<Matrix>& first_moments() const { return m_; }
  const std::vector<Matrix>& second_moments() const { return v_; }

  /// Replaces both moment buffers; shapes must match the parameters.
  void SetMoments(std::vector<Matrix> m, std::vector<Matrix> v);

 private:
  Options options_;
  int t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace aneci::ag

#endif  // ANECI_AUTOGRAD_OPTIMIZER_H_
