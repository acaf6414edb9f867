// The defense subsystem: purification stages (Jaccard prune, low-rank
// reconstruction, attribute clip), the pipeline factory and its spec
// parser, smoothed inference / empirical certification, and adversarial
// training (trajectory effect, thread-count invariance, kill-and-resume
// bit-identity, fingerprint guards).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "attack/random_attack.h"
#include "core/aneci.h"
#include "data/sbm.h"
#include "defense/attribute_clip.h"
#include "defense/defense.h"
#include "defense/jaccard_prune.h"
#include "defense/lowrank.h"
#include "defense/smoothing.h"
#include "util/checkpoint.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace aneci {
namespace {

Graph SmallSbm(uint64_t seed, int n = 80) {
  SbmOptions opt;
  opt.num_nodes = n;
  opt.num_classes = 3;
  opt.num_edges = 3 * n;
  opt.intra_fraction = 0.9;
  opt.attribute_dim = 20;
  opt.words_per_node = 6;
  opt.topic_words_per_class = 8;
  Rng rng(seed);
  return GenerateSbm(opt, rng);
}

/// 4 nodes: 0-1 share attribute support, 2-3 are disjoint, plus a 1-2
/// bridge. Attributes: node 0,1 -> {0,1}; node 2 -> {2}; node 3 -> {3}.
Graph MakeHandGraph() {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  Matrix x(4, 4);
  x(0, 0) = x(0, 1) = 1.0;
  x(1, 0) = x(1, 1) = 1.0;
  x(2, 2) = 1.0;
  x(3, 3) = 1.0;
  g.SetAttributes(SparseMatrix::FromDense(x));
  return g;
}

bool BytesEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(double)) == 0;
}

// --- Jaccard prune ----------------------------------------------------------

TEST(AttributeJaccardTest, RawSupportIndex) {
  Graph g = MakeHandGraph();
  EXPECT_DOUBLE_EQ(AttributeJaccard(g, 0, 1), 1.0);  // identical supports
  EXPECT_DOUBLE_EQ(AttributeJaccard(g, 2, 3), 0.0);  // disjoint
  EXPECT_DOUBLE_EQ(AttributeJaccard(g, 0, 2), 0.0);
}

TEST(JaccardPruneTest, RawModeDropsDisjointEdgesOnly) {
  Graph g = MakeHandGraph();
  JaccardPruneOptions opt;
  opt.threshold = 1e-9;  // drop exactly zero-overlap edges
  opt.hops = 0;
  opt.min_residual_degree = 0;
  opt.protect_common_neighbors = false;
  Rng rng(1);
  DefenseReport report = JaccardPrune(opt).Apply(&g, rng);
  EXPECT_EQ(report.defense, "jaccard");
  EXPECT_EQ(report.edges_before, 3);
  EXPECT_EQ(report.edges_dropped, 2);  // 1-2 and 2-3 have J = 0
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(2, 3));
}

TEST(JaccardPruneTest, NoAttributesIsNoopWithNote) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  Rng rng(1);
  DefenseReport report = JaccardPrune().Apply(&g, rng);
  EXPECT_EQ(report.edges_dropped, 0);
  EXPECT_FALSE(report.note.empty());
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(JaccardPruneTest, DegreeGuardPreservesMinimumDegree) {
  Graph g = SmallSbm(5);
  std::vector<int> before(g.num_nodes());
  for (int i = 0; i < g.num_nodes(); ++i) before[i] = g.Degree(i);
  JaccardPruneOptions opt;
  opt.threshold = 0.99;  // maximally aggressive: would drop almost all edges
  opt.min_residual_degree = 2;
  opt.protect_common_neighbors = false;
  Rng rng(1);
  JaccardPrune(opt).Apply(&g, rng);
  for (int i = 0; i < g.num_nodes(); ++i) {
    EXPECT_GE(g.Degree(i), std::min(before[i], 2)) << "node " << i;
  }
}

TEST(JaccardPruneTest, CommonNeighborProtectionKeepsTriangles) {
  // A triangle of attribute-disjoint nodes: every edge has Jaccard 0, but
  // each pair shares the third node as a common neighbour.
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  Matrix x(3, 3);
  x(0, 0) = x(1, 1) = x(2, 2) = 1.0;
  g.SetAttributes(SparseMatrix::FromDense(x));
  JaccardPruneOptions opt;
  opt.threshold = 0.5;
  opt.hops = 0;
  opt.min_residual_degree = 0;
  opt.protect_common_neighbors = true;
  Rng rng(1);
  DefenseReport report = JaccardPrune(opt).Apply(&g, rng);
  EXPECT_EQ(report.edges_dropped, 0);
  EXPECT_EQ(g.num_edges(), 3);

  opt.protect_common_neighbors = false;
  DefenseReport unprotected = JaccardPrune(opt).Apply(&g, rng);
  EXPECT_GT(unprotected.edges_dropped, 0);
}

TEST(JaccardPruneTest, AggregatedModeSeesNeighborhoodTopics) {
  // Star around node 0 (words {0,1}) with leaves 1..3 sharing word 0, plus
  // an adversarial leaf 4 with a disjoint word AND disjoint neighbourhood.
  // Raw Jaccard cannot tell leaf 3 ({1}) from leaf 4 ({3}) against leaf
  // 1..2, but 1-hop aggregation pools the star's support {0,1,...} so only
  // the edge to the alien leaf stays dissimilar.
  Graph g = Graph::FromEdges(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {4, 5}});
  Matrix x(6, 5);
  x(0, 0) = x(0, 1) = 1.0;
  x(1, 0) = 1.0;
  x(2, 0) = 1.0;
  x(3, 1) = 1.0;
  x(4, 3) = 1.0;
  x(5, 3) = 1.0;
  g.SetAttributes(SparseMatrix::FromDense(x));
  JaccardPruneOptions opt;
  opt.threshold = 0.2;
  opt.hops = 1;
  opt.min_residual_degree = 0;
  opt.protect_common_neighbors = false;
  Rng rng(1);
  JaccardPrune(opt).Apply(&g, rng);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 3));  // saved by aggregation
  EXPECT_FALSE(g.HasEdge(0, 4));  // the alien edge goes
  EXPECT_TRUE(g.HasEdge(4, 5));   // its own community is coherent
}

TEST(JaccardPruneTest, DeterministicAcrossThreadCounts) {
  Graph base = SmallSbm(7);
  auto run = [&](int threads) {
    ScopedNumThreads scoped(threads);
    Graph g = base;
    Rng rng(3);
    JaccardPrune().Apply(&g, rng);
    return g.edges();
  };
  EXPECT_EQ(run(1), run(4));
}

// --- Low-rank reconstruction ------------------------------------------------

TEST(LowRankTest, DropsRequestedFractionDeterministically) {
  Graph base = SmallSbm(11);
  LowRankOptions opt;
  opt.rank = 8;
  opt.drop_fraction = 0.1;
  auto run = [&]() {
    Graph g = base;
    Rng rng(5);
    DefenseReport report = LowRankReconstruction(opt).Apply(&g, rng);
    EXPECT_EQ(report.edges_before, base.num_edges());
    EXPECT_EQ(report.edges_dropped,
              static_cast<int>(0.1 * base.num_edges()));
    EXPECT_GT(report.rank_used, 0);
    return g.edges();
  };
  const std::vector<Edge> a = run();
  const std::vector<Edge> b = run();
  EXPECT_EQ(a, b);
}

TEST(LowRankTest, PrefersDroppingRandomInsertions) {
  // Low-rank scores should rank random cross-community insertions below
  // typical clean edges: the dropped set must be enriched in fake edges
  // relative to their share of the graph.
  Graph clean = SmallSbm(13, 120);
  Rng rng(7);
  RandomAttackResult attack = RandomAttack(clean, 0.2, rng);
  LowRankOptions opt;
  opt.rank = 6;
  opt.drop_fraction = 0.15;
  Graph purified = attack.attacked;
  Rng defense_rng(9);
  LowRankReconstruction(opt).Apply(&purified, defense_rng);
  int fake_dropped = 0;
  for (const Edge& e : attack.fake_edges)
    if (!purified.HasEdge(e.u, e.v)) ++fake_dropped;
  const double fake_share = static_cast<double>(attack.fake_edges.size()) /
                            attack.attacked.num_edges();
  const int total_dropped = attack.attacked.num_edges() -
                            purified.num_edges();
  EXPECT_GT(static_cast<double>(fake_dropped) / total_dropped, fake_share);
}

// --- Attribute clip ---------------------------------------------------------

TEST(AttributeClipTest, RewritesPollutedRowTowardNeighbors) {
  Graph g = SmallSbm(17);
  // Pollute one well-connected node with a wildly out-of-distribution row.
  int victim = 0;
  for (int i = 0; i < g.num_nodes(); ++i)
    if (g.Degree(i) > g.Degree(victim)) victim = i;
  Matrix x = g.attributes().ToDense();
  for (int c = 0; c < x.cols(); ++c) x(victim, c) = 40.0;
  g.SetAttributes(SparseMatrix::FromDense(x));

  AttributeClipOptions opt;
  opt.fraction = 1.0 / g.num_nodes();  // clip exactly the worst node
  Rng rng(19);
  DefenseReport report = AttributeClip(opt).Apply(&g, rng);
  EXPECT_EQ(report.nodes_clipped, 1);
  // The polluted row is gone: binary bag-of-words neighbours average < 40.
  double mx = 0.0;
  for (int c = 0; c < g.attribute_dim(); ++c)
    mx = std::max(mx, g.attributes().At(victim, c));
  EXPECT_LT(mx, 2.0);
}

// --- Factory / pipeline -----------------------------------------------------

TEST(DefenseFactoryTest, ParsesSpecsWithOptions) {
  EXPECT_TRUE(CreateDefense("jaccard").ok());
  EXPECT_TRUE(CreateDefense("jaccard:tau=0.1:hops=0:guard=1:cn=0").ok());
  EXPECT_TRUE(CreateDefense("lowrank:rank=8:drop=0.2").ok());
  EXPECT_TRUE(CreateDefense("clip:fraction=0.1:trees=20").ok());
  EXPECT_FALSE(CreateDefense("bogus").ok());
  EXPECT_FALSE(CreateDefense("jaccard:unknown=1").ok());
  EXPECT_FALSE(CreateDefense("lowrank:rank=0").ok());
  EXPECT_FALSE(CreateDefense("").ok());
}

TEST(DefenseFactoryTest, PipelineParsesAndRunsInOrder) {
  StatusOr<DefensePipeline> pipeline =
      ParseDefensePipeline("jaccard,lowrank:rank=8,clip");
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ASSERT_EQ(pipeline.value().size(), 3u);
  EXPECT_STREQ(pipeline.value()[0]->name(), "jaccard");
  EXPECT_STREQ(pipeline.value()[1]->name(), "lowrank");
  EXPECT_STREQ(pipeline.value()[2]->name(), "clip");

  Graph g = SmallSbm(23);
  const int edges_before = g.num_edges();
  Rng rng(29);
  PurifiedGraph purified = RunDefensePipeline(g, pipeline.value(), rng);
  // Input untouched, stages reported in order.
  EXPECT_EQ(g.num_edges(), edges_before);
  ASSERT_EQ(purified.reports.size(), 3u);
  EXPECT_EQ(purified.reports[0].defense, "jaccard");
  EXPECT_EQ(purified.reports[1].defense, "lowrank");
  EXPECT_EQ(purified.reports[2].defense, "clip");
  EXPECT_EQ(purified.graph.num_edges(),
            edges_before - purified.total_edges_dropped());
}

// --- Smoothed inference -----------------------------------------------------

TEST(SmoothingTest, VotesAreSaneAndDeterministic) {
  Dataset ds;
  ds.name = "toy";
  ds.graph = SmallSbm(31);
  Rng split_rng(37);
  MakePlanetoidSplit(ds.graph, 6, 10, 20, split_rng, &ds);

  AneciConfig cfg;
  cfg.hidden_dim = 8;
  cfg.embed_dim = 4;
  cfg.epochs = 8;
  SmoothingOptions opt;
  opt.num_samples = 3;
  opt.radius = 0.05;

  SmoothedClassification a = SmoothedClassify(ds, cfg, opt);
  EXPECT_EQ(a.predicted.size(), ds.test_idx.size());
  EXPECT_EQ(a.num_samples, 3);
  EXPECT_GE(a.smoothed_accuracy, 0.0);
  EXPECT_LE(a.smoothed_accuracy, 1.0);
  // A certified node is in particular correctly classified.
  EXPECT_LE(a.certified_accuracy, a.smoothed_accuracy);
  for (double share : a.vote_share) {
    EXPECT_GE(share, 1.0 / 3);
    EXPECT_LE(share, 1.0);
  }

  SmoothedClassification b = SmoothedClassify(ds, cfg, opt);
  EXPECT_EQ(a.predicted, b.predicted);
  EXPECT_EQ(a.smoothed_accuracy, b.smoothed_accuracy);
  EXPECT_EQ(a.certified_accuracy, b.certified_accuracy);
}

// --- Adversarial training ---------------------------------------------------

AneciConfig AdvConfig(int epochs = 12) {
  AneciConfig cfg;
  cfg.hidden_dim = 16;
  cfg.embed_dim = 4;
  cfg.epochs = epochs;
  cfg.proximity.order = 2;
  cfg.adversarial.enabled = true;
  cfg.adversarial.budget = 0.10;
  return cfg;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  Env* env = Env::Default();
  EXPECT_TRUE(env->CreateDir(dir).ok());
  if (env->FileExists(CheckpointBinPath(dir)))
    EXPECT_TRUE(env->RemoveFile(CheckpointBinPath(dir)).ok());
  if (env->FileExists(CheckpointBakPath(dir)))
    EXPECT_TRUE(env->RemoveFile(CheckpointBakPath(dir)).ok());
  return dir;
}

TEST(AdversarialTrainingTest, PerturbsTheTrajectory) {
  Graph g = SmallSbm(41);
  AneciConfig clean = AdvConfig();
  clean.adversarial.enabled = false;
  StatusOr<AneciResult> base = Aneci(clean).TrainWithResilience(g);
  StatusOr<AneciResult> adv = Aneci(AdvConfig()).TrainWithResilience(g);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(adv.ok());
  EXPECT_FALSE(BytesEqual(base.value().z, adv.value().z));
}

TEST(AdversarialTrainingTest, BitIdenticalAcrossThreadCounts) {
  Graph g = SmallSbm(43);
  auto run = [&](int threads) {
    ScopedNumThreads scoped(threads);
    return Aneci(AdvConfig()).TrainWithResilience(g);
  };
  StatusOr<AneciResult> serial = run(1);
  StatusOr<AneciResult> four = run(4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(four.ok());
  EXPECT_TRUE(BytesEqual(serial.value().z, four.value().z));
  EXPECT_TRUE(BytesEqual(serial.value().p, four.value().p));
}

TEST(AdversarialTrainingTest, KillAndResumeBitIdentical) {
  // The adversarial RNG rides in the v2 checkpoint: interrupting mid-run
  // must not change the perturbation schedule.
  Graph g = SmallSbm(47);
  const std::string dir = FreshDir("adv_resume");

  AneciConfig full_cfg = AdvConfig(14);
  StatusOr<AneciResult> full = Aneci(full_cfg).TrainWithResilience(g);
  ASSERT_TRUE(full.ok());

  AneciConfig phase1 = AdvConfig(7);
  phase1.checkpoint_dir = dir;
  phase1.checkpoint_every = 7;
  ASSERT_TRUE(Aneci(phase1).TrainWithResilience(g).ok());

  AneciConfig phase2 = AdvConfig(14);
  phase2.checkpoint_dir = dir;
  phase2.checkpoint_every = 7;
  phase2.resume_from = dir;
  StatusOr<AneciResult> resumed = Aneci(phase2).TrainWithResilience(g);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.value().resumed_from_epoch, 7);
  EXPECT_TRUE(BytesEqual(full.value().z, resumed.value().z));
}

TEST(AdversarialTrainingTest, FingerprintSeparatesAdvFromClean) {
  // A checkpoint written without adversarial training must not resume into
  // an adversarial run (the perturbation schedule would silently start
  // mid-stream), and vice versa.
  Graph g = SmallSbm(53);
  const std::string dir = FreshDir("adv_fingerprint");
  AneciConfig clean = AdvConfig(6);
  clean.adversarial.enabled = false;
  clean.checkpoint_dir = dir;
  ASSERT_TRUE(Aneci(clean).TrainWithResilience(g).ok());

  AneciConfig adv = AdvConfig(6);
  adv.resume_from = dir;
  StatusOr<AneciResult> resumed = Aneci(adv).TrainWithResilience(g);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AdversarialTrainingTest, BudgetJoinsTheFingerprint) {
  Graph g = SmallSbm(59);
  const std::string dir = FreshDir("adv_budget_fp");
  AneciConfig a = AdvConfig(6);
  a.checkpoint_dir = dir;
  ASSERT_TRUE(Aneci(a).TrainWithResilience(g).ok());

  AneciConfig b = AdvConfig(6);
  b.adversarial.budget = 0.2;
  b.resume_from = dir;
  StatusOr<AneciResult> resumed = Aneci(b).TrainWithResilience(g);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace aneci
