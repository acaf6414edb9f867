#include <gtest/gtest.h>

#include <set>

#include "data/datasets.h"
#include "data/sbm.h"
#include "graph/components.h"
#include "util/rng.h"

namespace aneci {
namespace {

SbmOptions SmallOptions() {
  SbmOptions opt;
  opt.num_nodes = 400;
  opt.num_classes = 4;
  opt.num_edges = 1600;
  opt.intra_fraction = 0.85;
  opt.attribute_dim = 100;
  opt.words_per_node = 10;
  opt.topic_words_per_class = 20;
  return opt;
}

double MeasuredHomophily(const Graph& g) {
  int intra = 0;
  for (const Edge& e : g.edges())
    if (g.labels()[e.u] == g.labels()[e.v]) ++intra;
  return static_cast<double>(intra) / g.num_edges();
}

TEST(Sbm, BasicCounts) {
  Rng rng(1);
  Graph g = GenerateSbm(SmallOptions(), rng);
  EXPECT_EQ(g.num_nodes(), 400);
  EXPECT_NEAR(g.num_edges(), 1600, 32);  // Allows slight saturation.
  EXPECT_TRUE(g.has_labels());
  EXPECT_EQ(g.num_classes(), 4);
  EXPECT_TRUE(g.has_attributes());
  EXPECT_EQ(g.attribute_dim(), 100);
}

TEST(Sbm, HomophilyNearTarget) {
  Rng rng(2);
  Graph g = GenerateSbm(SmallOptions(), rng);
  EXPECT_NEAR(MeasuredHomophily(g), 0.85, 0.05);
}

TEST(Sbm, LowHomophilyOption) {
  SbmOptions opt = SmallOptions();
  opt.intra_fraction = 0.3;
  Rng rng(3);
  Graph g = GenerateSbm(opt, rng);
  EXPECT_NEAR(MeasuredHomophily(g), 0.3, 0.08);
}

TEST(Sbm, ClassProportionsRespected) {
  SbmOptions opt = SmallOptions();
  opt.class_proportions = {0.5, 0.3, 0.1, 0.1};
  Rng rng(4);
  Graph g = GenerateSbm(opt, rng);
  std::vector<int> counts(4, 0);
  for (int y : g.labels()) ++counts[y];
  EXPECT_NEAR(counts[0] / 400.0, 0.5, 0.02);
  EXPECT_NEAR(counts[1] / 400.0, 0.3, 0.02);
}

TEST(Sbm, DegreeHeterogeneityWithPareto) {
  SbmOptions heavy = SmallOptions();
  heavy.degree_alpha = 1.5;  // Heavy tail.
  SbmOptions flat = SmallOptions();
  flat.degree_alpha = 0.0;  // Homogeneous.
  Rng r1(5), r2(5);
  const DegreeStats h = ComputeDegreeStats(GenerateSbm(heavy, r1));
  const DegreeStats f = ComputeDegreeStats(GenerateSbm(flat, r2));
  EXPECT_GT(h.max, f.max);  // The hub is bigger under the heavy tail.
}

TEST(Sbm, AttributesAreClassCorrelated) {
  Rng rng(6);
  Graph g = GenerateSbm(SmallOptions(), rng);
  // Mean cosine similarity within class should exceed across classes.
  const Matrix x = g.attributes().ToDense();
  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  Rng pick(7);
  for (int t = 0; t < 4000; ++t) {
    const int i = static_cast<int>(pick.NextInt(g.num_nodes()));
    const int j = static_cast<int>(pick.NextInt(g.num_nodes()));
    if (i == j) continue;
    const double sim = CosineSimilarity(x.RowPtr(i), x.RowPtr(j), x.cols());
    if (g.labels()[i] == g.labels()[j]) {
      intra += sim;
      ++n_intra;
    } else {
      inter += sim;
      ++n_inter;
    }
  }
  EXPECT_GT(intra / n_intra, inter / n_inter + 0.05);
}

TEST(Sbm, NoAttributesWhenDimZero) {
  SbmOptions opt = SmallOptions();
  opt.attribute_dim = 0;
  Rng rng(8);
  EXPECT_FALSE(GenerateSbm(opt, rng).has_attributes());
}

TEST(Sbm, DeterministicGivenSeed) {
  Rng r1(9), r2(9);
  Graph a = GenerateSbm(SmallOptions(), r1);
  Graph b = GenerateSbm(SmallOptions(), r2);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.labels(), b.labels());
}

// --- Dataset registry -------------------------------------------------------------

class DatasetNamesTest : public testing::TestWithParam<std::string> {};

TEST_P(DatasetNamesTest, ScaledGenerationAndSplits) {
  StatusOr<Dataset> ds = MakeDataset(GetParam(), 42, 0.12);
  ASSERT_TRUE(ds.ok());
  const Dataset& d = ds.value();
  EXPECT_EQ(d.name, GetParam());
  EXPECT_GT(d.graph.num_nodes(), 0);
  EXPECT_GT(d.graph.num_edges(), 0);
  EXPECT_TRUE(d.graph.has_labels());
  // Train covers every class with 20 nodes (or class size).
  EXPECT_FALSE(d.train_idx.empty());
  EXPECT_FALSE(d.val_idx.empty());
  EXPECT_FALSE(d.test_idx.empty());
  // Splits are pairwise disjoint.
  std::set<int> seen;
  for (const auto* split : {&d.train_idx, &d.val_idx, &d.test_idx}) {
    for (int i : *split) {
      EXPECT_TRUE(seen.insert(i).second) << "node " << i << " reused";
      EXPECT_GE(i, 0);
      EXPECT_LT(i, d.graph.num_nodes());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetNamesTest,
                         testing::ValuesIn(DatasetNames()));

TEST(Datasets, FullScaleCoraMatchesTable2) {
  Dataset cora = MakeCora(1);
  EXPECT_EQ(cora.graph.num_nodes(), 2708);
  EXPECT_NEAR(cora.graph.num_edges(), 5429, 110);
  EXPECT_EQ(cora.graph.num_classes(), 7);
  EXPECT_EQ(cora.graph.attribute_dim(), 1433);
  EXPECT_EQ(cora.train_idx.size(), 140u);  // 20 per class.
  EXPECT_EQ(cora.val_idx.size(), 500u);
  EXPECT_EQ(cora.test_idx.size(), 1000u);
}

TEST(Datasets, PolblogsHasNoAttributes) {
  Dataset pb = MakePolblogs(1, 0.3);
  EXPECT_FALSE(pb.graph.has_attributes());
  EXPECT_EQ(pb.graph.num_classes(), 2);
}

TEST(Datasets, UnknownNameRejected) {
  EXPECT_EQ(MakeDataset("reddit", 1).status().code(), StatusCode::kNotFound);
}

TEST(Datasets, BadScaleRejected) {
  EXPECT_FALSE(MakeDataset("cora", 1, 0.0).ok());
  EXPECT_FALSE(MakeDataset("cora", 1, 1.5).ok());
}

}  // namespace
}  // namespace aneci
