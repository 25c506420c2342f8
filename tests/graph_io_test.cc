#include "sgm/graph/graph_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "test_support.h"

namespace sgm {
namespace {

using ::sgm::testing::PaperData;

TEST(GraphIoTest, RoundTripPreservesGraph) {
  const Graph original = PaperData();
  std::stringstream stream;
  WriteGraph(original, stream);
  std::string error;
  const auto loaded = ReadGraph(stream, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->vertex_count(), original.vertex_count());
  ASSERT_EQ(loaded->edge_count(), original.edge_count());
  for (Vertex v = 0; v < original.vertex_count(); ++v) {
    EXPECT_EQ(loaded->label(v), original.label(v));
    const auto a = original.neighbors(v);
    const auto b = loaded->neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(GraphIoTest, ParsesCommentsAndWhitespace) {
  std::stringstream stream(
      "# a comment\n"
      "t 3 2\n"
      "% another comment\n"
      "v 0 7 1\n"
      "v 1 8 2\n"
      "v 2 7 1\n"
      "\n"
      "e 0 1\n"
      "e 1 2\n");
  std::string error;
  const auto graph = ReadGraph(stream, &error);
  ASSERT_TRUE(graph.has_value()) << error;
  EXPECT_EQ(graph->vertex_count(), 3u);
  EXPECT_EQ(graph->edge_count(), 2u);
  EXPECT_EQ(graph->label(1), 8u);
}

TEST(GraphIoTest, RejectsMissingHeader) {
  std::stringstream records_before_header("v 0 1 0\n");
  std::string error;
  EXPECT_FALSE(ReadGraph(records_before_header, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::stringstream empty_input("# only a comment\n");
  EXPECT_FALSE(ReadGraph(empty_input, &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(GraphIoTest, RejectsEdgeCountMismatch) {
  std::stringstream stream("t 2 2\nv 0 0 1\nv 1 0 1\ne 0 1\n");
  std::string error;
  EXPECT_FALSE(ReadGraph(stream, &error).has_value());
  EXPECT_NE(error.find("mismatch"), std::string::npos);
}

TEST(GraphIoTest, RejectsBadVertexId) {
  std::stringstream stream("t 2 1\nv 0 0 1\nv 5 0 1\ne 0 1\n");
  std::string error;
  EXPECT_FALSE(ReadGraph(stream, &error).has_value());
}

TEST(GraphIoTest, RejectsSelfLoopEdge) {
  std::stringstream stream("t 2 1\nv 0 0 0\nv 1 0 0\ne 1 1\n");
  std::string error;
  EXPECT_FALSE(ReadGraph(stream, &error).has_value());
}

TEST(GraphIoTest, RejectsUnknownRecord) {
  std::stringstream stream("t 1 0\nv 0 0 0\nx 1 2\n");
  std::string error;
  EXPECT_FALSE(ReadGraph(stream, &error).has_value());
}

// ---- Hostile-input hardening (the reader is a fuzz target). ----

TEST(GraphIoTest, RejectsNegativeCounts) {
  // operator>> into an unsigned would wrap "-1" to 2^32-1 and try to
  // allocate a 16 GB graph; the strict parser must refuse instead.
  std::string error;
  std::stringstream negative_vertices("t -1 0\n");
  EXPECT_FALSE(ReadGraph(negative_vertices, &error).has_value());
  std::stringstream negative_edges("t 2 -3\nv 0 0\nv 1 0\n");
  EXPECT_FALSE(ReadGraph(negative_edges, &error).has_value());
  std::stringstream negative_id("t 2 1\nv -0 0\nv 1 0\ne 0 1\n");
  EXPECT_FALSE(ReadGraph(negative_id, &error).has_value());
}

TEST(GraphIoTest, RejectsOverflowingHeader) {
  std::string error;
  std::stringstream huge("t 99999999999999999999 0\n");
  EXPECT_FALSE(ReadGraph(huge, &error).has_value());
  std::stringstream wrap("t 4294967295 0\n");
  EXPECT_FALSE(ReadGraph(wrap, &error).has_value());
}

TEST(GraphIoTest, RejectsVertexCountBeyondLimits) {
  ReadGraphLimits limits;
  limits.max_vertices = 100;
  std::string error;
  std::stringstream stream("t 101 0\n");
  EXPECT_FALSE(ReadGraph(stream, &error, limits).has_value());
  std::stringstream ok("t 100 0\n" + [] {
    std::string v;
    for (int i = 0; i < 100; ++i) v += "v " + std::to_string(i) + " 0\n";
    return v;
  }());
  EXPECT_TRUE(ReadGraph(ok, &error, limits).has_value()) << error;
}

TEST(GraphIoTest, RejectsHugeLabel) {
  // Graph's label index is sized by the largest label value, so a single
  // huge label is as dangerous as a huge vertex count.
  std::string error;
  std::stringstream stream("t 1 0\nv 0 4294967294\n");
  EXPECT_FALSE(ReadGraph(stream, &error).has_value());
}

TEST(GraphIoTest, RejectsTruncatedVertexList) {
  std::string error;
  std::stringstream stream("t 3 1\nv 0 0\nv 1 0\ne 0 1\n");
  EXPECT_FALSE(ReadGraph(stream, &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

TEST(GraphIoTest, RejectsNonNumericFields) {
  std::string error;
  std::stringstream stream("t two 0\n");
  EXPECT_FALSE(ReadGraph(stream, &error).has_value());
  std::stringstream hex_edge("t 2 1\nv 0 0\nv 1 0\ne 0x0 1\n");
  EXPECT_FALSE(ReadGraph(hex_edge, &error).has_value());
}

TEST(GraphIoTest, RejectsWrongDegreeColumn) {
  std::string error;
  std::stringstream stream("t 2 1\nv 0 0 5\nv 1 0 1\ne 0 1\n");
  EXPECT_FALSE(ReadGraph(stream, &error).has_value());
  EXPECT_NE(error.find("degree"), std::string::npos);
}

TEST(GraphIoTest, AcceptsDegreelessVertexRecordsAndCrLf) {
  std::string error;
  std::stringstream stream("t 2 1\r\nv 0 3\r\nv 1 3\r\ne 0 1\r\n");
  const auto graph = ReadGraph(stream, &error);
  ASSERT_TRUE(graph.has_value()) << error;
  EXPECT_EQ(graph->edge_count(), 1u);
  EXPECT_EQ(graph->label(0), 3u);
}

TEST(GraphIoTest, AcceptsEmptyGraph) {
  std::string error;
  std::stringstream stream("t 0 0\n");
  const auto graph = ReadGraph(stream, &error);
  ASSERT_TRUE(graph.has_value()) << error;
  EXPECT_EQ(graph->vertex_count(), 0u);
}

TEST(GraphIoTest, FileRoundTrip) {
  const Graph original = PaperData();
  const std::string path = ::testing::TempDir() + "/sgm_io_test.graph";
  std::string error;
  ASSERT_TRUE(SaveGraphFile(original, path, &error)) << error;
  const auto loaded = LoadGraphFile(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->edge_count(), original.edge_count());
}

TEST(GraphIoTest, LoadMissingFileFails) {
  std::string error;
  EXPECT_FALSE(LoadGraphFile("/nonexistent/path.graph", &error).has_value());
  EXPECT_FALSE(error.empty());
}

// ---- Reader semantics every input format change must keep. ----

std::optional<Graph> Read(const std::string& text, std::string* error) {
  std::istringstream in(text);
  return ReadGraph(in, error);
}

TEST(GraphIoTest, AcceptsDuplicateEdgesInBothOrientations) {
  std::string error;
  const auto graph = Read(
      "t 3 2\nv 0 0 1\nv 1 0 2\nv 2 0 1\n"
      "e 0 1\ne 1 0\ne 1 2\ne 0 1\ne 2 1\n",
      &error);
  ASSERT_TRUE(graph.has_value()) << error;
  EXPECT_EQ(graph->edge_count(), 2u);
  EXPECT_TRUE(graph->HasEdge(0, 1));
  EXPECT_TRUE(graph->HasEdge(1, 2));
}

TEST(GraphIoTest, AcceptsLastLineWithoutNewline) {
  std::string error;
  const auto graph = Read("t 2 1\nv 0 0\nv 1 0\ne 1 0", &error);
  ASSERT_TRUE(graph.has_value()) << error;
  EXPECT_EQ(graph->edge_count(), 1u);
}

TEST(GraphIoTest, AcceptsTabSeparators) {
  std::string error;
  const auto graph = Read("t\t2 1\nv\t0\t4\t1\nv 1\t5 1\ne\t0\t\t1\n", &error);
  ASSERT_TRUE(graph.has_value()) << error;
  EXPECT_EQ(graph->label(0), 4u);
  EXPECT_EQ(graph->label(1), 5u);
  EXPECT_EQ(graph->edge_count(), 1u);
}

TEST(GraphIoTest, SkipsWhitespaceOnlyLines) {
  std::string error;
  const auto graph =
      Read("  \nt 2 1\n\t\nv 0 0\n \r\nv 1 0\n\v\f\ne 0 1\n   ", &error);
  ASSERT_TRUE(graph.has_value()) << error;
  EXPECT_EQ(graph->edge_count(), 1u);
}

TEST(GraphIoTest, RejectsIndentedCommentAsUnknownRecord) {
  // Only a '#' or '%' in the first column starts a comment.
  std::string error;
  EXPECT_FALSE(Read("t 1 0\n  # x\nv 0 0\n", &error).has_value());
  EXPECT_NE(error.find("unknown record '#'"), std::string::npos) << error;
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(GraphIoTest, MalformedRecordErrorsKeepTheirLineNumber) {
  std::string error;
  EXPECT_FALSE(
      Read("# header next\nt 3 1\n\nv 0 0\nv 1 0\nv 2 0\ne 0 1 2\n", &error)
          .has_value());
  EXPECT_EQ(error, "malformed edge at line 7");
  EXPECT_FALSE(Read("t 2 0\nv 0 0\nv 1 x\n", &error).has_value());
  EXPECT_EQ(error, "malformed vertex at line 3");
  EXPECT_FALSE(Read("t 2 0\nv 0 0 1 2 3\n", &error).has_value());
  EXPECT_EQ(error, "malformed vertex at line 2");
  EXPECT_FALSE(Read("\r\nt 2\n", &error).has_value());
  EXPECT_EQ(error, "malformed header at line 2");
}

TEST(GraphIoTest, RejectsEdgesBeyondTheDeclaredCountEarly) {
  // 10k distinct edges under a header that declares 2. The reader must stop
  // once the unique edges exceed the count rather than buffer the rest,
  // whether the records come sorted (found at the third) or not (found when
  // the buffer reaches twice the count and is deduplicated).
  std::string sorted = "t 200 2\n";
  for (int v = 0; v < 200; ++v) {
    sorted += "v " + std::to_string(v) + " 0\n";
  }
  std::string unsorted = sorted;
  int added = 0;
  for (int u = 0; u < 200 && added < 10000; ++u) {
    for (int v = u + 1; v < 200 && added < 10000; ++v, ++added) {
      sorted += "e " + std::to_string(u) + " " + std::to_string(v) + "\n";
      unsorted += "e " + std::to_string(199 - u) + " " +
                  std::to_string(199 - v) + "\n";
    }
  }
  std::string error;
  EXPECT_FALSE(Read(sorted, &error).has_value());
  EXPECT_NE(error.find("edge count mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("line 204"), std::string::npos) << error;
  EXPECT_FALSE(Read(unsorted, &error).has_value());
  EXPECT_NE(error.find("edge count mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("line 205"), std::string::npos) << error;
}

}  // namespace
}  // namespace sgm
