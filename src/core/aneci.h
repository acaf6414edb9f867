// AnECI: Attributed Network Embedding preserving Community Information
// (ICDE 2022). A two-layer GCN encoder produces embeddings Z; softmax(Z)
// gives soft community memberships P; training maximises the generalised
// high-order modularity Q~ (Eq. 13) and minimises the high-order proximity
// reconstruction loss L_R (Eq. 17):
//     min_W  L = -beta1 * Q~ + beta2 * L_R        (Eq. 18)
#ifndef ANECI_CORE_ANECI_H_
#define ANECI_CORE_ANECI_H_

#include <functional>
#include <string>
#include <vector>

#include "core/sage_encoder.h"
#include "core/watchdog.h"
#include "graph/graph.h"
#include "graph/proximity.h"
#include "linalg/matrix.h"
#include "util/checkpoint.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/status.h"

namespace aneci {

enum class ReconstructionMode {
  kAuto,     ///< Dense when N <= dense_threshold, else sampled.
  kDense,    ///< Exact O(N^2 K) loss, streamed.
  kSampled,  ///< Positives = stored A~ entries, plus sampled negatives.
};

enum class EncoderMode {
  /// Full-graph symmetric-normalised propagation (Eq. 2, the paper's model).
  kFullGraph,
  /// GraphSAGE-style sampled-neighbour propagation, the scalability
  /// extension named in the paper's conclusion. Unbiased in expectation.
  kSampledNeighbors,
};

/// Adversarial training (docs/robustness.md §10): on adversarial epochs the
/// proximity target A~ is rebuilt from a budgeted edge-flip perturbation of
/// the graph, so the encoder learns memberships that survive the attack
/// family instead of memorising the clean structure. The perturbation draws
/// from a dedicated RNG stream that is checkpointed alongside the model, so
/// adversarially trained runs resume bit-identically; the perturbation
/// itself flows through the deterministic SpGEMM kernels and is therefore
/// identical at every ANECI_THREADS value.
struct AdversarialTrainingOptions {
  bool enabled = false;
  /// Fraction of |E| flipped per adversarial epoch.
  double budget = 0.05;
  /// Apply the perturbed target every this many epochs (1 = every epoch).
  int every = 1;
  /// Perturbation family: label-agnostic random flips, or the label-aware
  /// DICE heuristic (falls back to random when the graph has no labels).
  enum class Kind { kRandom, kDice };
  Kind kind = Kind::kRandom;
  /// Seed of the dedicated perturbation stream.
  uint64_t seed = 0x5eedULL;
};

/// Choice of the adapting-factor F in the generalised modularity
/// (Section IV-C4 allows "the product or minimum between the corresponding
/// two weights"; the paper's experiments use the product).
enum class ModularityVariant {
  kProduct,
  kMinimum,
};

struct AneciConfig {
  /// Hidden width of the first GCN layer.
  int hidden_dim = 64;
  /// Embedding size h. Acts as the number of latent communities |C| because
  /// P = softmax(Z) (Eq. 3).
  int embed_dim = 16;

  /// High-order proximity options (order l, weights w).
  ProximityOptions proximity;

  double beta1 = 1.0;  ///< Modularity weight.
  double beta2 = 1.0;  ///< Reconstruction weight.
  ModularityVariant modularity_variant = ModularityVariant::kProduct;

  int epochs = 150;
  double lr = 0.01;
  double weight_decay = 0.0;
  double leaky_relu_alpha = 0.01;

  EncoderMode encoder = EncoderMode::kFullGraph;
  /// Sampler parameters for EncoderMode::kSampledNeighbors.
  SageSamplerOptions sage;

  ReconstructionMode reconstruction = ReconstructionMode::kAuto;
  int dense_threshold = 1500;
  int negatives_per_node = 5;
  /// Resample negative pairs every this many epochs (sampled mode).
  int resample_every = 20;

  /// Early stopping on the modularity loss (paper's anomaly-detection
  /// protocol); 0 disables.
  int early_stop_patience = 0;
  /// Minimum modularity-loss improvement that resets the patience counter.
  double early_stop_min_delta = 1e-4;

  uint64_t seed = 42;

  /// Optional adversarial inner step (docs/robustness.md §10).
  AdversarialTrainingOptions adversarial;

  // --- Training resilience (docs/robustness.md; run by core/train_loop.h) --

  /// Directory for periodic on-disk snapshots (util/checkpoint.h); empty
  /// disables checkpointing.
  std::string checkpoint_dir;
  /// Epochs between snapshots when checkpoint_dir is set; a final snapshot
  /// is always written when training finishes.
  int checkpoint_every = 10;
  /// Directory to resume from (usually == checkpoint_dir); empty disables.
  /// A missing checkpoint starts fresh; a corrupt newest snapshot falls back
  /// to the previous rotation slot; a fingerprint mismatch or fully corrupt
  /// directory is an error. A resumed run continues bit-identically with an
  /// uninterrupted one.
  std::string resume_from;
  /// Divergence watchdog policy (NaN/Inf/explosion detection + rollback).
  WatchdogOptions watchdog;
  /// Checkpoint I/O goes through this Env; nullptr means Env::Default().
  /// Tests inject a FaultInjectingEnv here.
  Env* env = nullptr;
  /// Test hook, passed to TrainLoop::Options::divergence_fault_hook: epochs
  /// for which this returns true get their loss forced to NaN after the
  /// backward pass, so the rollback path can be exercised deterministically.
  std::function<bool(int)> divergence_fault_hook;
};

/// Per-epoch training telemetry (drives Fig. 9b): epoch, loss, modularity
/// (Q~) and rigidity (tr(P^T P) / N). Checkpoints store the history
/// verbatim, so this IS the checkpoint blob type rather than a field-for-
/// field mirror of it.
using AneciEpochStats = EpochStatBlob;

/// Result of a training run.
struct AneciResult {
  Matrix z;  ///< Node embeddings (N x h).
  Matrix p;  ///< Soft community memberships, softmax(Z) (N x h).
  std::vector<AneciEpochStats> history;

  // Resilience telemetry.
  int resumed_from_epoch = -1;  ///< Epoch a checkpoint resume started at.
  int watchdog_rollbacks = 0;   ///< Divergence rollbacks taken.
  double final_lr = 0.0;        ///< Learning rate after any backoff.
};

class Aneci {
 public:
  explicit Aneci(const AneciConfig& config) : config_(config) {}

  const AneciConfig& config() const { return config_; }

  /// Per-epoch observer: stats, current embeddings Z and memberships P.
  /// Drives the rigidity analysis (Fig. 9b) and the paper's
  /// validation-based embedding selection for node classification.
  using EpochCallback = std::function<void(const AneciEpochStats&,
                                           const Matrix& z, const Matrix& p)>;

  /// Trains on the graph and returns embeddings. Divergence past the
  /// watchdog's rollback budget and checkpoint corruption are surfaced as a
  /// Status instead of garbage embeddings or a crash.
  StatusOr<AneciResult> TrainWithResilience(
      const Graph& graph, const EpochCallback& on_epoch = nullptr) const;

  /// Convenience wrapper over TrainWithResilience that aborts (with the
  /// status message) on failure — for callers without an error channel.
  AneciResult Train(const Graph& graph,
                    const EpochCallback& on_epoch = nullptr) const;

 private:
  AneciConfig config_;
};

}  // namespace aneci

#endif  // ANECI_CORE_ANECI_H_
