// Graph attention networks (Velickovic et al., ICLR'18):
//  - GatClassifier: the semi-supervised two-layer GAT that Table III lists
//    among the semi-supervised baselines;
//  - Gate: a GATE-style graph attention autoencoder ([22] in the paper:
//    GAE with attention aggregation), trained unsupervised with the
//    inner-product decoder.
#ifndef ANECI_EMBED_GAT_H_
#define ANECI_EMBED_GAT_H_

#include "data/datasets.h"
#include "embed/embedder.h"
#include "embed/gcn_classifier.h"

namespace aneci {

class GatClassifier : public NodeClassifier {
 public:
  struct Options {
    int hidden_dim = 32;
    int epochs = 150;
    double lr = 0.01;
    double weight_decay = 5e-4;
    double attention_slope = 0.2;
  };

  explicit GatClassifier(const Options& options) : options_(options) {}
  GatClassifier() : options_() {}

  void Fit(const Dataset& dataset, Rng& rng);

 private:
  Options options_;
};

class Gate final : public Embedder {
 public:
  struct Options {
    int hidden_dim = 64;
    int dim = 32;
    int epochs = 100;
    double lr = 0.01;
    double attention_slope = 0.2;
    int negatives_per_edge = 1;
  };

  explicit Gate(const Options& options) : options_(options) {}

  std::string name() const override { return "GATE"; }

 private:
  Matrix EmbedImpl(const Graph& graph, const EmbedOptions& options) override;

  Options options_;
};

}  // namespace aneci

#endif  // ANECI_EMBED_GAT_H_
