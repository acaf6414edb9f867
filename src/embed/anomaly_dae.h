// AnomalyDAE (Fan et al., ICASSP'20): dual autoencoder for anomaly
// detection. A structure encoder embeds adjacency rows, an attribute encoder
// embeds transposed attributes; the decoders reconstruct adjacency via
// cross inner products and attributes via Z_s V_a^T. Scores mix both errors
// with the (alpha, theta, eta) weighting of the original.
#ifndef ANECI_EMBED_ANOMALY_DAE_H_
#define ANECI_EMBED_ANOMALY_DAE_H_

#include "embed/embedder.h"

namespace aneci {

class AnomalyDae final : public ScoringEmbedder {
 public:
  struct Options {
    int hidden_dim = 64;
    int dim = 32;
    int epochs = 100;
    double lr = 0.01;
    /// Structure-vs-attribute mix (the paper's protocol sets alpha = 0.3 for
    /// AnomalyDAE).
    double alpha = 0.3;
    int negatives_per_node = 3;
  };

  explicit AnomalyDae(const Options& options) : options_(options) {}

  std::string name() const override { return "AnomalyDAE"; }

 private:
  void Run(const Graph& graph, const EmbedOptions& options, Matrix* embedding,
           std::vector<double>* scores) const override;

  Options options_;
};

}  // namespace aneci

#endif  // ANECI_EMBED_ANOMALY_DAE_H_
