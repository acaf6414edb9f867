// Dominant (Ding et al., SDM'19): deep anomaly detection on attributed
// networks. A GCN encoder feeds two decoders — a structure decoder
// sigmoid(Z Z^T) and an attribute decoder (one more GCN layer back to
// feature space). The anomaly score mixes both reconstruction errors.
#ifndef ANECI_EMBED_DOMINANT_H_
#define ANECI_EMBED_DOMINANT_H_

#include "embed/embedder.h"

namespace aneci {

class Dominant final : public ScoringEmbedder {
 public:
  struct Options {
    int hidden_dim = 64;
    int dim = 32;
    int epochs = 100;
    double lr = 0.01;
    /// Mixing factor alpha of the score: alpha * structure + (1 - alpha) *
    /// attribute error.
    double alpha = 0.5;
    int negatives_per_node = 3;
  };

  explicit Dominant(const Options& options) : options_(options) {}

  std::string name() const override { return "Dominant"; }

 private:
  void Run(const Graph& graph, const EmbedOptions& options, Matrix* embedding,
           std::vector<double>* scores) const override;

  Options options_;
};

}  // namespace aneci

#endif  // ANECI_EMBED_DOMINANT_H_
