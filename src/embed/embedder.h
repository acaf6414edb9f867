// Common interface for all unsupervised network-embedding methods (AnECI's
// baselines): given an attributed graph, produce an (N x h) embedding.
//
// Run-time knobs (RNG, embedding width, epoch budget, training observer)
// travel in EmbedOptions rather than constructor arguments, so one
// instrumentation path — the non-virtual Embed() below — covers every
// method: it opens an "embed/<name>" trace span, counts calls and epochs,
// and forwards per-epoch losses to both the metrics registry and the
// caller's TrainObserver before dispatching to the method's EmbedImpl().
#ifndef ANECI_EMBED_EMBEDDER_H_
#define ANECI_EMBED_EMBEDDER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/train_loop.h"  // TrainObserver.
#include "graph/graph.h"
#include "linalg/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace aneci {

/// Run-time options shared by every embedder. `rng` is required; the
/// remaining fields are overrides applied on top of each method's
/// configured defaults:
///   dim     > 1  — embedding width (methods with fixed internal structure
///                  round it as needed); <= 1 keeps the method default.
///   epochs  > 0  — training budget for gradient-trained methods; sampling
///                  methods rescale it (DeepWalk caps corpus passes, ONE
///                  maps it to coordinate rounds); closed-form methods
///                  ignore it; <= 0 keeps each method's default.
///   observer     — optional per-epoch hook (see TrainObserver).
struct EmbedOptions {
  Rng* rng = nullptr;
  int dim = 0;
  int epochs = 0;
  TrainObserver* observer = nullptr;
};

/// A method's configured options with `eo`'s width override applied, and
/// its epoch override when the method has an `epochs` field.
template <typename Options>
Options WithOverrides(Options options, const EmbedOptions& eo) {
  if (eo.dim > 1) options.dim = eo.dim;
  if constexpr (requires { options.epochs; }) {
    if (eo.epochs > 0) options.epochs = eo.epochs;
  }
  return options;
}

/// TrainLoop options of a gradient-trained method: `opt.epochs` epochs of
/// Adam at `opt.lr`, drawing from eo.rng and reporting to eo.observer.
template <typename Options>
TrainLoop::Options LoopOptions(const Options& opt, const EmbedOptions& eo,
                               TrainLoop::StateHooks state = {}) {
  return {.epochs = opt.epochs,
          .adam = {.lr = opt.lr},
          .rng = eo.rng,
          .observer = eo.observer,
          .state = std::move(state)};
}

class Embedder {
 public:
  virtual ~Embedder() = default;

  /// Method name as used in the paper's tables ("DeepWalk", "GAE", ...).
  virtual std::string name() const = 0;

  /// Learns node embeddings for `graph`. Deterministic given the state of
  /// `options.rng` (which must be non-null). Non-virtual: this is the
  /// single instrumented entry point; methods implement EmbedImpl().
  Matrix Embed(const Graph& graph, const EmbedOptions& options);

 protected:
  virtual Matrix EmbedImpl(const Graph& graph, const EmbedOptions& options) = 0;
};

/// Implemented by methods that natively produce per-node anomaly scores
/// (Dominant, DONE, ADONE, AnomalyDAE). Higher score = more anomalous.
/// Other embedders fall back to IsolationForest over their embeddings
/// (see anomaly/anomaly_score.h), matching the paper's protocol.
class AnomalyScorer {
 public:
  virtual ~AnomalyScorer() = default;

  /// Instrumented entry point, mirroring Embedder::Embed.
  std::vector<double> ScoreAnomalies(const Graph& graph,
                                     const EmbedOptions& options);

 protected:
  virtual std::vector<double> ScoreAnomaliesImpl(
      const Graph& graph, const EmbedOptions& options) = 0;
};

/// A method whose one training run yields both the embedding and native
/// anomaly scores (Dominant, DONE, ADONE, AnomalyDAE). It implements Run,
/// which fills whichever of the two outputs is non-null.
class ScoringEmbedder : public Embedder, public AnomalyScorer {
 protected:
  virtual void Run(const Graph& graph, const EmbedOptions& options,
                   Matrix* embedding, std::vector<double>* scores) const = 0;

 private:
  Matrix EmbedImpl(const Graph& graph, const EmbedOptions& options) final {
    Matrix embedding;
    Run(graph, options, &embedding, nullptr);
    return embedding;
  }
  std::vector<double> ScoreAnomaliesImpl(const Graph& graph,
                                         const EmbedOptions& options) final {
    std::vector<double> scores;
    Run(graph, options, nullptr, &scores);
    return scores;
  }
};

/// Factory over the baseline registry. Known names (case-sensitive):
/// DeepWalk, Node2Vec, LINE, GAE, VGAE, DGI, DANE, DONE, ADONE, AGE,
/// Dominant, AnomalyDAE, ... (see EmbedderNames()). Width and epoch budget
/// are per-call EmbedOptions, not construction state.
StatusOr<std::unique_ptr<Embedder>> CreateEmbedder(const std::string& name);

/// Names accepted by CreateEmbedder, in the paper's ordering.
const std::vector<std::string>& EmbedderNames();

}  // namespace aneci

#endif  // ANECI_EMBED_EMBEDDER_H_
