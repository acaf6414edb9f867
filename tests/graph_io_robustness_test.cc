// Malformed-input corpus for the graph loaders: every corruption class must
// come back as a precise Status — never a crash, a thrown exception, or a
// silently truncated graph — and SaveGraph's atomic write path must never
// leave a torn file.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "graph/graph.h"
#include "graph/graph_io.h"
#include "util/env.h"

namespace aneci {
namespace {

std::string WriteFile(const std::string& name, const std::string& content) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return path;
}

// Expects LoadGraph to fail with `code` and a message containing `fragment`.
void ExpectLoadError(const std::string& name, const std::string& content,
                     StatusCode code, const std::string& fragment) {
  const std::string path = WriteFile(name, content);
  StatusOr<Graph> g = LoadGraph(path);
  ASSERT_FALSE(g.ok()) << name << " was accepted";
  EXPECT_EQ(g.status().code(), code) << g.status().ToString();
  EXPECT_NE(g.status().message().find(fragment), std::string::npos)
      << "message '" << g.status().message() << "' lacks '" << fragment << "'";
}

const char kValidGraph[] =
    "# aneci-graph v1\n"
    "nodes 3\n"
    "edges 2\n"
    "0 1\n"
    "1 2\n"
    "labels\n"
    "0 1 1\n"
    "attributes 4\n"
    "2 0:1 3:0.5\n"
    "0\n"
    "1 2:-1.5\n";

// --- Well-formed baseline ---------------------------------------------------

TEST(GraphIoRobustness, ValidFileLoads) {
  const std::string path = WriteFile("valid.txt", kValidGraph);
  StatusOr<Graph> g = LoadGraph(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().num_nodes(), 3);
  EXPECT_EQ(g.value().num_edges(), 2);
  ASSERT_TRUE(g.value().has_attributes());
  EXPECT_EQ(g.value().attributes().At(0, 3), 0.5);
  EXPECT_EQ(g.value().attributes().At(2, 2), -1.5);
}

// --- Header and counts ------------------------------------------------------

TEST(GraphIoRobustness, MissingHeader) {
  ExpectLoadError("no_header.txt", "nodes 3\nedges 0\n",
                  StatusCode::kInvalidArgument, "header");
}

TEST(GraphIoRobustness, NegativeCounts) {
  ExpectLoadError("neg_nodes.txt", "# aneci-graph v1\nnodes -3\nedges 0\n",
                  StatusCode::kInvalidArgument, "negative counts");
  ExpectLoadError("neg_edges.txt", "# aneci-graph v1\nnodes 3\nedges -1\n",
                  StatusCode::kInvalidArgument, "negative counts");
}

TEST(GraphIoRobustness, NonNumericCounts) {
  ExpectLoadError("bad_n.txt", "# aneci-graph v1\nnodes x\nedges 0\n",
                  StatusCode::kInvalidArgument, "nodes");
}

// --- Edge list --------------------------------------------------------------

TEST(GraphIoRobustness, TruncatedEdgeList) {
  ExpectLoadError("trunc_edges.txt",
                  "# aneci-graph v1\nnodes 3\nedges 2\n0 1\n",
                  StatusCode::kInvalidArgument, "truncated edge list");
}

TEST(GraphIoRobustness, NegativeEdgeEndpoint) {
  ExpectLoadError("neg_endpoint.txt",
                  "# aneci-graph v1\nnodes 3\nedges 1\n-1 2\n",
                  StatusCode::kOutOfRange, "out of range");
}

TEST(GraphIoRobustness, EdgeEndpointBeyondN) {
  ExpectLoadError("oor_endpoint.txt",
                  "# aneci-graph v1\nnodes 3\nedges 1\n0 7\n",
                  StatusCode::kOutOfRange, "out of range");
}

TEST(GraphIoRobustness, ExtraEdgesBecomeTrailingGarbage) {
  // More edge lines than `edges` declares: the surplus is not silently
  // swallowed as a section keyword.
  ExpectLoadError("extra_edges.txt",
                  "# aneci-graph v1\nnodes 3\nedges 1\n0 1\n1 2\n",
                  StatusCode::kInvalidArgument, "unknown section");
}

// --- Labels -----------------------------------------------------------------

TEST(GraphIoRobustness, LabelCountMismatch) {
  ExpectLoadError("short_labels.txt",
                  "# aneci-graph v1\nnodes 3\nedges 0\nlabels\n0 1\n",
                  StatusCode::kInvalidArgument, "truncated labels");
}

TEST(GraphIoRobustness, NegativeLabel) {
  ExpectLoadError("neg_label.txt",
                  "# aneci-graph v1\nnodes 3\nedges 0\nlabels\n0 -2 1\n",
                  StatusCode::kOutOfRange, "negative label");
}

TEST(GraphIoRobustness, DuplicateLabelsSection) {
  ExpectLoadError(
      "dup_labels.txt",
      "# aneci-graph v1\nnodes 2\nedges 0\nlabels\n0 1\nlabels\n0 1\n",
      StatusCode::kInvalidArgument, "duplicate labels");
}

// --- Attributes -------------------------------------------------------------

TEST(GraphIoRobustness, BadAttributeDim) {
  ExpectLoadError("zero_dim.txt",
                  "# aneci-graph v1\nnodes 2\nedges 0\nattributes 0\n",
                  StatusCode::kInvalidArgument, "bad attribute dim");
  ExpectLoadError("neg_dim.txt",
                  "# aneci-graph v1\nnodes 2\nedges 0\nattributes -4\n",
                  StatusCode::kInvalidArgument, "bad attribute dim");
}

TEST(GraphIoRobustness, AttributeNnzOutOfRange) {
  ExpectLoadError("neg_nnz.txt",
                  "# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n-1\n0\n",
                  StatusCode::kOutOfRange, "nonzeros");
  ExpectLoadError(
      "huge_nnz.txt",
      "# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n9 0:1\n0\n",
      StatusCode::kOutOfRange, "nonzeros");
}

TEST(GraphIoRobustness, AttributeColumnOutOfRange) {
  ExpectLoadError(
      "col_oor.txt",
      "# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n1 4:1\n0\n",
      StatusCode::kOutOfRange, "column 4 out of range");
  ExpectLoadError(
      "col_neg.txt",
      "# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n1 -2:1\n0\n",
      StatusCode::kOutOfRange, "out of range");
}

TEST(GraphIoRobustness, MalformedAttributeCells) {
  // No separator.
  ExpectLoadError(
      "no_colon.txt",
      "# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n1 3\n0\n",
      StatusCode::kInvalidArgument, "no col:val separator");
  // Garbage column: stoi would have thrown here; must be a Status instead.
  ExpectLoadError(
      "garbage_col.txt",
      "# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n1 x:1\n0\n",
      StatusCode::kInvalidArgument, "bad attribute column");
  // Garbage value.
  ExpectLoadError(
      "garbage_val.txt",
      "# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n1 2:abc\n0\n",
      StatusCode::kInvalidArgument, "bad attribute value");
  // Partial parse ("12x" is not a column).
  ExpectLoadError(
      "partial_col.txt",
      "# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n1 1x:1\n0\n",
      StatusCode::kInvalidArgument, "bad attribute column");
}

TEST(GraphIoRobustness, NonFiniteAttributeValues) {
  // strtod parses these spellings; a model fed them would train on NaN.
  for (const char* value : {"nan", "inf", "-inf", "NAN", "infinity"}) {
    ExpectLoadError(
        std::string("nonfinite_") + value + ".txt",
        std::string("# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n"
                    "0\n2 0:1 3:") + value + "\n",
        StatusCode::kInvalidArgument,
        std::string("non-finite attribute value in cell '3:") + value +
            "' at row 1");
  }
}

TEST(GraphIoRobustness, RepeatedAttributeColumn) {
  // A repeated column used to overwrite the earlier cell silently; built
  // from triplets it would be summed instead. Either way it is malformed.
  ExpectLoadError(
      "repeat_col.txt",
      "# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n"
      "3 2:1 0:0.5 2:4\n0\n",
      StatusCode::kInvalidArgument,
      "repeated attribute column in cell '2:4' at row 0");
  // The same column in different rows is fine.
  const std::string path = WriteFile(
      "same_col_two_rows.txt",
      "# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n1 2:1\n1 2:3\n");
  StatusOr<Graph> g = LoadGraph(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().attributes().At(0, 2), 1.0);
  EXPECT_EQ(g.value().attributes().At(1, 2), 3.0);
}

TEST(GraphIoRobustness, TruncatedAttributeRows) {
  ExpectLoadError("trunc_attr.txt",
                  "# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n1 0:1\n",
                  StatusCode::kInvalidArgument, "truncated attributes");
  ExpectLoadError(
      "trunc_cells.txt",
      "# aneci-graph v1\nnodes 2\nedges 0\nattributes 4\n2 0:1\n",
      StatusCode::kInvalidArgument, "truncated attribute row");
}

TEST(GraphIoRobustness, DuplicateAttributesSection) {
  ExpectLoadError("dup_attrs.txt",
                  "# aneci-graph v1\nnodes 1\nedges 0\nattributes 2\n0\n"
                  "attributes 2\n0\n",
                  StatusCode::kInvalidArgument, "duplicate attributes");
}

TEST(GraphIoRobustness, TrailingGarbageAfterSections) {
  ExpectLoadError("trailing.txt",
                  "# aneci-graph v1\nnodes 2\nedges 1\n0 1\nlabels\n0 1\n"
                  "wat\n",
                  StatusCode::kInvalidArgument, "unknown section");
}

// --- LoadEdgeList -----------------------------------------------------------

TEST(GraphIoRobustness, EdgeListBadLine) {
  const std::string path = WriteFile("el_bad.txt", "0 1\nfoo bar\n");
  StatusOr<Graph> g = LoadEdgeList(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

TEST(GraphIoRobustness, EdgeListNegativeId) {
  const std::string path = WriteFile("el_neg.txt", "0 1\n2 -3\n");
  StatusOr<Graph> g = LoadEdgeList(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
}

TEST(GraphIoRobustness, EdgeListTrailingGarbage) {
  const std::string path = WriteFile("el_trail.txt", "0 1 junk\n");
  StatusOr<Graph> g = LoadEdgeList(path);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("trailing garbage"), std::string::npos);
}

TEST(GraphIoRobustness, EdgeListIdExceedsDeclaredN) {
  const std::string path = WriteFile("el_oor.txt", "0 1\n5 2\n");
  StatusOr<Graph> g = LoadEdgeList(path, /*num_nodes=*/4);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
}

TEST(GraphIoRobustness, EdgeListCommentsAndBlanksOk) {
  const std::string path =
      WriteFile("el_ok.txt", "# comment\n\n0 1\n1 2\n");
  StatusOr<Graph> g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().num_nodes(), 3);
  EXPECT_EQ(g.value().num_edges(), 2);
}

// --- Atomic SaveGraph -------------------------------------------------------

Graph TinyGraph() {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  g.SetLabels({0, 1, 1});
  return g;
}

TEST(GraphIoRobustness, SaveGraphIsAtomicUnderWriteFailure) {
  const std::string path = testing::TempDir() + "/atomic_graph.txt";
  ASSERT_TRUE(SaveGraph(TinyGraph(), path).ok());
  StatusOr<Graph> before = LoadGraph(path);
  ASSERT_TRUE(before.ok());

  // A failed overwrite must leave the original file fully intact.
  FaultInjectingEnv env;
  env.plan.fail_write = 0;
  Graph bigger = Graph::FromEdges(5, {{0, 4}, {2, 3}, {1, 2}});
  Status st = SaveGraph(bigger, path, &env);
  ASSERT_FALSE(st.ok());
  StatusOr<Graph> after = LoadGraph(path);
  ASSERT_TRUE(after.ok()) << "original torn by failed overwrite";
  EXPECT_EQ(after.value().num_nodes(), 3);
  EXPECT_EQ(after.value().num_edges(), 2);
}

TEST(GraphIoRobustness, SaveGraphTruncatedWriteIsDetectedOnLoad) {
  const std::string path = testing::TempDir() + "/torn_graph.txt";
  FaultInjectingEnv env;
  env.plan.truncate_write = 0;
  env.plan.truncate_bytes = 30;  // Mid-edge-list.
  ASSERT_TRUE(SaveGraph(TinyGraph(), path, &env).ok());
  StatusOr<Graph> g = LoadGraph(path);
  ASSERT_FALSE(g.ok()) << "torn graph file was half-parsed";
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoRobustness, SaveGraphLeavesNoTempFile) {
  const std::string path = testing::TempDir() + "/clean_graph.txt";
  ASSERT_TRUE(SaveGraph(TinyGraph(), path).ok());
  EXPECT_FALSE(Env::Default()->FileExists(path + ".tmp"));
}

}  // namespace
}  // namespace aneci
