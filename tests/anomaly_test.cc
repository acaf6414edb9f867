#include <gtest/gtest.h>

#include <cmath>

#include "anomaly/anomaly_score.h"
#include "anomaly/isolation_forest.h"
#include "anomaly/outlier_injection.h"
#include "data/sbm.h"
#include "embed/decoder_errors.h"
#include "tasks/metrics.h"
#include "util/rng.h"

namespace aneci {
namespace {

Graph LabeledSbm(uint64_t seed) {
  SbmOptions opt;
  opt.num_nodes = 200;
  opt.num_classes = 4;
  opt.num_edges = 800;
  opt.intra_fraction = 0.9;
  opt.attribute_dim = 40;
  opt.words_per_node = 8;
  opt.topic_words_per_class = 10;
  Rng rng(seed);
  return GenerateSbm(opt, rng);
}

TEST(OutlierInjection, CountsMatchFraction) {
  Graph g = LabeledSbm(1);
  Rng rng(2);
  OutlierInjectionResult res =
      InjectOutliers(g, OutlierKind::kStructural, 0.05, rng);
  EXPECT_EQ(res.outlier_ids.size(), 10u);
  int flagged = 0;
  for (int f : res.is_outlier) flagged += f;
  EXPECT_EQ(flagged, 10);
}

TEST(OutlierInjection, StructuralOutliersConnectAcrossCommunities) {
  Graph g = LabeledSbm(3);
  Rng rng(4);
  OutlierInjectionResult res =
      InjectOutliers(g, OutlierKind::kStructural, 0.05, rng);
  for (int node : res.outlier_ids) {
    for (int nbr : res.graph.Neighbors(node)) {
      // A rewired neighbour is either itself an outlier (rewired later) or
      // belongs to a different community.
      if (!res.is_outlier[nbr])
        EXPECT_NE(res.graph.labels()[node], res.graph.labels()[nbr]);
    }
  }
}

TEST(OutlierInjection, StructuralPreservesDegreeApproximately) {
  Graph g = LabeledSbm(5);
  Rng rng(6);
  OutlierInjectionResult res =
      InjectOutliers(g, OutlierKind::kStructural, 0.05, rng);
  // Rewiring preserves each outlier's own degree; a later outlier can add a
  // couple of incident edges, so allow slack but no wholesale inflation.
  for (int node : res.outlier_ids)
    EXPECT_LE(res.graph.Degree(node), g.Degree(node) + 4);
}

TEST(OutlierInjection, AttributeOutliersKeepStructure) {
  Graph g = LabeledSbm(7);
  Rng rng(8);
  OutlierInjectionResult res =
      InjectOutliers(g, OutlierKind::kAttribute, 0.05, rng);
  EXPECT_EQ(res.graph.edges(), g.edges());
  // At least one outlier's attribute row actually changed.
  int changed = 0;
  for (int node : res.outlier_ids) {
    for (int c = 0; c < g.attribute_dim(); ++c) {
      if (res.graph.attributes().At(node, c) != g.attributes().At(node, c)) {
        ++changed;
        break;
      }
    }
  }
  EXPECT_GT(changed, 0);
}

TEST(OutlierInjection, CombinedChangesBoth) {
  Graph g = LabeledSbm(9);
  Rng rng(10);
  OutlierInjectionResult res =
      InjectOutliers(g, OutlierKind::kCombined, 0.05, rng);
  EXPECT_NE(res.graph.edges(), g.edges());
}

TEST(OutlierInjection, AttributeKindFallsBackWithoutAttributes) {
  SbmOptions opt;
  opt.num_nodes = 100;
  opt.num_classes = 2;
  opt.num_edges = 300;
  opt.attribute_dim = 0;
  Rng rng(11);
  Graph g = GenerateSbm(opt, rng);
  OutlierInjectionResult res =
      InjectOutliers(g, OutlierKind::kAttribute, 0.05, rng);
  // Falls back to structural rewiring: edges must change.
  EXPECT_NE(res.graph.edges(), g.edges());
}

TEST(OutlierInjection, KindNames) {
  EXPECT_STREQ(OutlierKindName(OutlierKind::kStructural), "S");
  EXPECT_STREQ(OutlierKindName(OutlierKind::kAttribute), "A");
  EXPECT_STREQ(OutlierKindName(OutlierKind::kCombined), "S&A");
  EXPECT_STREQ(OutlierKindName(OutlierKind::kMix), "Mix");
}

// --- Scores -------------------------------------------------------------------

TEST(DecoderErrors, HandComputedPairAndRowErrors) {
  const Matrix z = Matrix::FromRows({{1.0, 0.0}, {0.5, 2.0}, {0.0, 0.0}});
  // Node 2 is in no pair, so its structure error stays 0.
  const std::vector<ag::PairTarget> pairs = {{0, 1, 1.0}, {1, 1, 0.0}};
  const Matrix xhat = Matrix::FromRows({{1.0, 2.0}, {0.0, 0.0}, {3.0, 1.0}});
  const Matrix x = Matrix::FromRows({{1.0, 0.0}, {0.0, -1.0}, {0.0, 1.0}});
  const DecoderErrors err = ComputeDecoderErrors(z, pairs, xhat, x);

  const double s01 = 1.0 / (1.0 + std::exp(-0.5));   // z0 . z1 = 0.5
  const double s11 = 1.0 / (1.0 + std::exp(-4.25));  // z1 . z1 = 4.25
  const double r01 = (s01 - 1.0) * (s01 - 1.0);
  const double r11 = s11 * s11;
  ASSERT_EQ(err.structure.size(), 3u);
  EXPECT_DOUBLE_EQ(err.structure[0], r01);
  EXPECT_DOUBLE_EQ(err.structure[1], (r01 + 2 * r11) / 3);
  EXPECT_EQ(err.structure[2], 0.0);
  EXPECT_EQ(err.attribute, (std::vector<double>{4.0, 1.0, 9.0}));

  const std::vector<double> mixed = MixDecoderErrors(err, 0.25);
  const double max_s = err.structure[1];
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(mixed[i], 0.25 * err.structure[i] / max_s +
                                   0.75 * err.attribute[i] / 9.0);
  }
}

TEST(MembershipEntropy, UniformRowsScoreHighest) {
  Matrix p = Matrix::FromRows({{1.0, 0.0}, {0.5, 0.5}, {0.9, 0.1}});
  std::vector<double> s = MembershipEntropyScores(p);
  EXPECT_NEAR(s[0], 0.0, 1e-9);
  EXPECT_NEAR(s[1], std::log(2.0), 1e-9);
  EXPECT_GT(s[1], s[2]);
  EXPECT_GT(s[2], s[0]);
}

TEST(MembershipEntropy, EmbeddingVariantSoftmaxesFirst) {
  Matrix z = Matrix::FromRows({{100.0, 0.0}, {0.0, 0.0}});
  std::vector<double> s = EmbeddingEntropyScores(z);
  EXPECT_LT(s[0], 1e-6);            // Near one-hot after softmax.
  EXPECT_NEAR(s[1], std::log(2.0), 1e-9);  // Uniform after softmax.
}

TEST(IsolationForestTest, DetectsPlantedOutliersInGaussianBlob) {
  Rng rng(12);
  const int n = 300, outliers = 15;
  Matrix pts(n, 4);
  std::vector<int> labels(n, 0);
  for (int i = 0; i < n; ++i) {
    const bool is_outlier = i < outliers;
    labels[i] = is_outlier;
    for (int c = 0; c < 4; ++c)
      pts(i, c) = is_outlier ? rng.Uniform(6.0, 10.0) : rng.NextGaussian();
  }
  IsolationForest forest;
  forest.Fit(pts, rng);
  std::vector<double> scores = forest.Score(pts);
  EXPECT_GT(AreaUnderRoc(scores, labels), 0.95);
}

TEST(IsolationForestTest, ScoresWithinUnitInterval) {
  Rng rng(13);
  Matrix pts = Matrix::RandomNormal(100, 3, 1.0, rng);
  IsolationForest forest;
  forest.Fit(pts, rng);
  for (double s : forest.Score(pts)) {
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(IsolationForestTest, ConstantDataDoesNotCrash) {
  Rng rng(14);
  Matrix pts(50, 2, 3.14);
  IsolationForest forest;
  forest.Fit(pts, rng);
  std::vector<double> scores = forest.Score(pts);
  EXPECT_EQ(scores.size(), 50u);
}

}  // namespace
}  // namespace aneci
