// DONE and ADONE (Bandyopadhyay et al., WSDM'20): dual (structure +
// attribute) autoencoders with per-node outlier weights that down-weight
// anomalous nodes during training, plus a homophily term tying neighbours'
// embeddings. ADONE adds an adversarial discriminator aligning the two
// views. Both expose native per-node anomaly scores.
#ifndef ANECI_EMBED_DONE_H_
#define ANECI_EMBED_DONE_H_

#include "embed/embedder.h"

namespace aneci {

class Done : public ScoringEmbedder {
 public:
  struct Options {
    int hidden_dim = 64;
    int dim = 32;  ///< Total; each view gets dim / 2.
    int epochs = 100;
    double lr = 0.01;
    double homophily_weight = 0.5;
    int negatives_per_node = 3;
    /// Refresh outlier weights every this many epochs.
    int reweight_every = 20;
    bool adversarial = false;  ///< true = ADONE.
  };

  explicit Done(const Options& options) : options_(options) {}

  std::string name() const override {
    return options_.adversarial ? "ADONE" : "DONE";
  }

 private:
  /// Runs training; fills embedding and per-node scores.
  void Run(const Graph& graph, const EmbedOptions& options, Matrix* embedding,
           std::vector<double>* scores) const override;

  Options options_;
};

}  // namespace aneci

#endif  // ANECI_EMBED_DONE_H_
