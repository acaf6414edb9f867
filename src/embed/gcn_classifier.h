// Semi-supervised baselines for Table III and the attack experiments:
//  - GCN (Kipf & Welling, ICLR'17): two-layer graph convolutional classifier;
//  - RGCN (Zhu et al., KDD'19): robust GCN that models hidden layers as
//    Gaussians; implemented here with mean/variance streams, variance-based
//    attention and sampling at training time.
#ifndef ANECI_EMBED_GCN_CLASSIFIER_H_
#define ANECI_EMBED_GCN_CLASSIFIER_H_

#include <vector>

#include "data/datasets.h"
#include "graph/graph.h"
#include "linalg/matrix.h"
#include "util/rng.h"

namespace aneci {

/// What a trained semi-supervised node classifier exposes.
class NodeClassifier {
 public:
  /// Predicted class per node of the graph used at Fit time.
  const std::vector<int>& predictions() const { return predictions_; }

  /// Test accuracy on the given node set.
  double Accuracy(const Dataset& dataset,
                  const std::vector<int>& eval_idx) const;

 protected:
  std::vector<int> predictions_;
};

class GcnClassifier : public NodeClassifier {
 public:
  struct Options {
    int hidden_dim = 32;
    int epochs = 150;
    double lr = 0.01;
    double weight_decay = 5e-4;
    bool robust = false;  ///< true = the RGCN variant.
  };

  explicit GcnClassifier(const Options& options) : options_(options) {}

  /// Trains on dataset.train_idx with the labels of the dataset graph.
  void Fit(const Dataset& dataset, Rng& rng);

 private:
  Options options_;
};

}  // namespace aneci

#endif  // ANECI_EMBED_GCN_CLASSIFIER_H_
