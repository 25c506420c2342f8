#include "sgm/graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "sgm/dynamic/dynamic_graph.h"
#include "sgm/dynamic/update_batch.h"
#include "sgm/graph/generators.h"
#include "sgm/graph/graph_builder.h"
#include "sgm/graph/graph_io.h"
#include "sgm/util/prng.h"
#include "test_support.h"

namespace sgm {
namespace {

using ::sgm::testing::MakeGraph;
using ::sgm::testing::PaperData;

TEST(GraphTest, EmptyGraph) {
  Graph graph;
  EXPECT_EQ(graph.vertex_count(), 0u);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_EQ(graph.label_count(), 0u);
  EXPECT_DOUBLE_EQ(graph.average_degree(), 0.0);
}

TEST(GraphTest, BasicCounts) {
  const Graph graph = MakeGraph({0, 1, 0}, {{0, 1}, {1, 2}});
  EXPECT_EQ(graph.vertex_count(), 3u);
  EXPECT_EQ(graph.edge_count(), 2u);
  EXPECT_EQ(graph.label_count(), 2u);
  EXPECT_EQ(graph.max_degree(), 2u);
  EXPECT_DOUBLE_EQ(graph.average_degree(), 4.0 / 3.0);
}

TEST(GraphTest, DegreesAndNeighborsSorted) {
  const Graph graph = MakeGraph({0, 0, 0, 0}, {{2, 0}, {3, 0}, {1, 0}});
  EXPECT_EQ(graph.degree(0), 3u);
  EXPECT_EQ(graph.degree(1), 1u);
  const auto nbrs = graph.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_EQ(nbrs[2], 3u);
}

TEST(GraphTest, HasEdgeBothDirections) {
  const Graph graph = MakeGraph({0, 0, 0}, {{0, 1}});
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(1, 0));
  EXPECT_FALSE(graph.HasEdge(0, 2));
  EXPECT_FALSE(graph.HasEdge(2, 1));
}

TEST(GraphTest, LabelIndex) {
  const Graph graph = MakeGraph({1, 0, 1, 0, 1}, {{0, 1}});
  const auto zeros = graph.VerticesWithLabel(0);
  ASSERT_EQ(zeros.size(), 2u);
  EXPECT_EQ(zeros[0], 1u);
  EXPECT_EQ(zeros[1], 3u);
  const auto ones = graph.VerticesWithLabel(1);
  ASSERT_EQ(ones.size(), 3u);
  EXPECT_EQ(graph.LabelFrequency(0), 2u);
  EXPECT_EQ(graph.LabelFrequency(1), 3u);
  EXPECT_EQ(graph.max_label_frequency(), 3u);
}

TEST(GraphTest, NeighborLabelFrequency) {
  // v0 has neighbors labeled 1, 1, 2.
  const Graph graph = MakeGraph({0, 1, 1, 2}, {{0, 1}, {0, 2}, {0, 3}});
  const auto nlf = graph.NeighborLabelFrequency(0);
  ASSERT_EQ(nlf.size(), 2u);
  EXPECT_EQ(nlf[0].label, 1u);
  EXPECT_EQ(nlf[0].count, 2u);
  EXPECT_EQ(nlf[1].label, 2u);
  EXPECT_EQ(nlf[1].count, 1u);
  EXPECT_EQ(graph.NeighborCountWithLabel(0, 1), 2u);
  EXPECT_EQ(graph.NeighborCountWithLabel(0, 2), 1u);
  EXPECT_EQ(graph.NeighborCountWithLabel(0, 0), 0u);
  EXPECT_EQ(graph.NeighborCountWithLabel(1, 0), 1u);
}

TEST(GraphTest, PaperDataShape) {
  const Graph data = PaperData();
  EXPECT_EQ(data.vertex_count(), 13u);
  EXPECT_EQ(data.edge_count(), 17u);
  EXPECT_EQ(data.label_count(), 4u);
  EXPECT_EQ(data.degree(0), 6u);
  EXPECT_TRUE(data.HasEdge(4, 12));
  EXPECT_FALSE(data.HasEdge(6, 12));
}

TEST(GraphTest, MemoryBytesNonZero) {
  const Graph data = PaperData();
  EXPECT_GT(data.MemoryBytes(), 0u);
}

TEST(GraphBuilderTest, DeduplicatesEdges) {
  GraphBuilder builder(3);
  EXPECT_TRUE(builder.AddEdge(0, 1));
  EXPECT_FALSE(builder.AddEdge(0, 1));
  EXPECT_FALSE(builder.AddEdge(1, 0));
  EXPECT_EQ(builder.edge_count(), 1u);
}

TEST(GraphBuilderTest, RejectsSelfLoops) {
  GraphBuilder builder(2);
  EXPECT_FALSE(builder.AddEdge(1, 1));
  EXPECT_EQ(builder.edge_count(), 0u);
}

TEST(GraphBuilderTest, HasEdgeTracksInsertions) {
  GraphBuilder builder(3);
  EXPECT_FALSE(builder.HasEdge(0, 2));
  builder.AddEdge(0, 2);
  EXPECT_TRUE(builder.HasEdge(0, 2));
  EXPECT_TRUE(builder.HasEdge(2, 0));
}

TEST(GraphBuilderTest, SetLabelAndBuild) {
  GraphBuilder builder;
  const Vertex a = builder.AddVertex(5);
  const Vertex b = builder.AddVertex(2);
  builder.SetLabel(a, 1);
  builder.AddEdge(a, b);
  const Graph graph = builder.Build();
  EXPECT_EQ(graph.label(a), 1u);
  EXPECT_EQ(graph.label(b), 2u);
  EXPECT_EQ(graph.label_count(), 3u);  // labels dense up to max used + 1
}

TEST(GraphBuilderTest, BuilderReusableAfterBuild) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1);
  const Graph first = builder.Build();
  builder.AddVertex(0);
  builder.AddEdge(1, 2);
  const Graph second = builder.Build();
  EXPECT_EQ(first.vertex_count(), 2u);
  EXPECT_EQ(second.vertex_count(), 3u);
  EXPECT_EQ(second.edge_count(), 2u);
}

// ---- GraphBuildEquivalenceTest: the CSR builder against a reference. ----

using EdgeList = std::vector<std::pair<Vertex, Vertex>>;

/// Every array and scalar a Graph exposes, as plain vectors.
struct FlatGraph {
  uint32_t edge_count = 0;
  uint32_t label_count = 0;
  uint32_t max_degree = 0;
  uint32_t max_label_frequency = 0;
  std::vector<Label> labels;
  std::vector<uint32_t> offsets;
  std::vector<Vertex> neighbors;
  std::vector<uint32_t> label_offsets;
  std::vector<Vertex> vertices_by_label;
  std::vector<uint32_t> nlf_offsets;
  std::vector<Graph::LabelCount> nlf;

  friend bool operator==(const FlatGraph&, const FlatGraph&) = default;
};

FlatGraph Flatten(const Graph& graph) {
  FlatGraph flat;
  flat.edge_count = graph.edge_count();
  flat.label_count = graph.label_count();
  flat.max_degree = graph.max_degree();
  flat.max_label_frequency = graph.max_label_frequency();
  flat.offsets.push_back(0);
  flat.nlf_offsets.push_back(0);
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    flat.labels.push_back(graph.label(v));
    const auto neighbors = graph.neighbors(v);
    EXPECT_EQ(graph.degree(v), neighbors.size());
    flat.neighbors.insert(flat.neighbors.end(), neighbors.begin(),
                          neighbors.end());
    flat.offsets.push_back(static_cast<uint32_t>(flat.neighbors.size()));
    const auto nlf = graph.NeighborLabelFrequency(v);
    flat.nlf.insert(flat.nlf.end(), nlf.begin(), nlf.end());
    flat.nlf_offsets.push_back(static_cast<uint32_t>(flat.nlf.size()));
  }
  flat.label_offsets.push_back(0);
  for (Label l = 0; l < graph.label_count(); ++l) {
    const auto members = graph.VerticesWithLabel(l);
    EXPECT_EQ(graph.LabelFrequency(l), members.size());
    flat.vertices_by_label.insert(flat.vertices_by_label.end(),
                                  members.begin(), members.end());
    flat.label_offsets.push_back(
        static_cast<uint32_t>(flat.vertices_by_label.size()));
  }
  return flat;
}

/// The reference builder: the straightforward algorithm the CSR builder
/// replaced — fill rows in input order, sort each row, and build each
/// vertex's NLF by sorting its (label, 1) pairs and run-length compressing.
FlatGraph ReferenceBuild(const std::vector<Label>& labels,
                         const EdgeList& edges) {
  const auto n = static_cast<uint32_t>(labels.size());
  FlatGraph flat;
  flat.edge_count = static_cast<uint32_t>(edges.size());
  flat.labels = labels;
  flat.offsets.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++flat.offsets[u + 1];
    ++flat.offsets[v + 1];
  }
  for (uint32_t v = 0; v < n; ++v) flat.offsets[v + 1] += flat.offsets[v];
  flat.neighbors.resize(2 * edges.size());
  std::vector<uint32_t> cursor(flat.offsets.begin(), flat.offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    flat.neighbors[cursor[u]++] = v;
    flat.neighbors[cursor[v]++] = u;
  }
  for (uint32_t v = 0; v < n; ++v) {
    std::sort(flat.neighbors.begin() + flat.offsets[v],
              flat.neighbors.begin() + flat.offsets[v + 1]);
    flat.max_degree =
        std::max(flat.max_degree, flat.offsets[v + 1] - flat.offsets[v]);
  }

  for (const Label l : labels) flat.label_count = std::max(flat.label_count, l + 1);
  flat.label_offsets.assign(flat.label_count + 1, 0);
  for (const Label l : labels) ++flat.label_offsets[l + 1];
  for (uint32_t l = 0; l < flat.label_count; ++l) {
    flat.max_label_frequency =
        std::max(flat.max_label_frequency, flat.label_offsets[l + 1]);
    flat.label_offsets[l + 1] += flat.label_offsets[l];
  }
  flat.vertices_by_label.resize(n);
  cursor.assign(flat.label_offsets.begin(), flat.label_offsets.end() - 1);
  for (Vertex v = 0; v < n; ++v) flat.vertices_by_label[cursor[labels[v]]++] = v;

  flat.nlf_offsets.assign(n + 1, 0);
  std::vector<Graph::LabelCount> scratch;
  for (Vertex v = 0; v < n; ++v) {
    scratch.clear();
    for (uint32_t i = flat.offsets[v]; i < flat.offsets[v + 1]; ++i) {
      scratch.push_back({labels[flat.neighbors[i]], 1});
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const Graph::LabelCount& a, const Graph::LabelCount& b) {
                return a.label < b.label;
              });
    size_t out = 0;
    for (size_t i = 0; i < scratch.size();) {
      size_t j = i + 1;
      while (j < scratch.size() && scratch[j].label == scratch[i].label) ++j;
      scratch[out++] = {scratch[i].label, static_cast<uint32_t>(j - i)};
      i = j;
    }
    flat.nlf.insert(flat.nlf.end(), scratch.begin(), scratch.begin() + out);
    flat.nlf_offsets[v + 1] = static_cast<uint32_t>(flat.nlf.size());
  }
  return flat;
}

void ExpectBuildsLikeReference(const std::vector<Label>& labels,
                               const EdgeList& edges) {
  EXPECT_TRUE(Flatten(Graph(labels, edges)) == ReferenceBuild(labels, edges));
}

std::vector<Label> RandomLabels(uint32_t n, uint32_t label_count, Prng* prng) {
  std::vector<Label> labels(n);
  for (Label& l : labels) l = static_cast<Label>(prng->NextBounded(label_count));
  return labels;
}

/// `m` distinct random edges, each in a random orientation.
EdgeList RandomEdges(uint32_t n, uint32_t m, Prng* prng) {
  std::set<std::pair<Vertex, Vertex>> seen;
  EdgeList edges;
  while (edges.size() < m) {
    const auto u = static_cast<Vertex>(prng->NextBounded(n));
    const auto v = static_cast<Vertex>(prng->NextBounded(n));
    if (u == v || !seen.insert({std::min(u, v), std::max(u, v)}).second) {
      continue;
    }
    edges.emplace_back(u, v);
  }
  return edges;
}

TEST(GraphBuildEquivalenceTest, RandomGraphsInEveryEdgeOrder) {
  Prng prng(16);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<uint32_t>(2 + prng.NextBounded(60));
    const uint64_t max_edges = uint64_t{n} * (n - 1) / 2;
    const auto m = static_cast<uint32_t>(prng.NextBounded(
        std::min<uint64_t>(max_edges, 4 * uint64_t{n}) + 1));
    // Few labels give rows that repeat labels, many give rows of distinct
    // ones.
    const uint32_t label_count =
        1 + static_cast<uint32_t>(prng.NextBounded(trial % 2 == 0 ? 6 : 300));
    const std::vector<Label> labels = RandomLabels(n, label_count, &prng);
    EdgeList edges = RandomEdges(n, m, &prng);
    SCOPED_TRACE("trial " + std::to_string(trial));

    ExpectBuildsLikeReference(labels, edges);  // random order and orientation
    std::reverse(edges.begin(), edges.end());
    ExpectBuildsLikeReference(labels, edges);
    for (auto& [u, v] : edges) {
      if (u > v) std::swap(u, v);
    }
    std::sort(edges.begin(), edges.end());
    ExpectBuildsLikeReference(labels, edges);  // the in-place (sorted) path
    std::reverse(edges.begin(), edges.end());
    ExpectBuildsLikeReference(labels, edges);
    for (auto& [u, v] : edges) std::swap(u, v);
    ExpectBuildsLikeReference(labels, edges);  // sorted, reversed orientation
  }
}

TEST(GraphBuildEquivalenceTest, DegenerateShapes) {
  ExpectBuildsLikeReference({}, {});                     // the empty graph
  ExpectBuildsLikeReference({3}, {});                    // one vertex
  ExpectBuildsLikeReference({0, 0, 0, 0}, {});           // no edges
  ExpectBuildsLikeReference({2, 2, 2, 2}, {{0, 1}, {2, 1}, {3, 0}});
  // Isolated vertices and label values no vertex carries.
  ExpectBuildsLikeReference({0, 7, 7, 4, 0, 9},
                            {{5, 1}, {1, 2}, {2, 5}, {4, 0}});
  Prng prng(3);
  ExpectBuildsLikeReference(RandomLabels(40, 1, &prng),
                            RandomEdges(40, 300, &prng));  // one label
}

TEST(GraphBuildEquivalenceTest, TextRoundTripIsIdentical) {
  Prng prng(7);
  for (const Graph& graph : {GenerateRmat(512, 3000, 6, &prng),
                             GenerateErdosRenyi(300, 1200, 4, &prng)}) {
    std::stringstream text;
    WriteGraph(graph, text);
    std::string error;
    const std::optional<Graph> loaded = ReadGraph(text, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_TRUE(Flatten(*loaded) == Flatten(graph));
  }
}

TEST(GraphBuildEquivalenceTest, DynamicSnapshotMatchesRebuild) {
  Prng prng(11);
  const Graph base = GenerateErdosRenyi(80, 240, 3, &prng);
  dynamic::DynamicGraph graph(base);
  std::set<std::pair<Vertex, Vertex>> live;
  for (Vertex v = 0; v < base.vertex_count(); ++v) {
    for (const Vertex w : base.neighbors(v)) {
      if (v < w) live.insert({v, w});
    }
  }

  dynamic::StreamGenOptions options;
  options.batches = 30;
  options.max_ops_per_batch = 12;
  options.add_vertex_weight = 0.15;
  options.remove_vertex_weight = 0.15;
  dynamic::UpdateStream stream =
      dynamic::GenerateUpdateStream(base, options, &prng);
  // Re-add a removed base edge, in a later batch and within one batch.
  const auto [a, b] = *live.begin();
  const auto [c, d] = *live.rbegin();
  stream.batches.insert(
      stream.batches.begin(),
      {dynamic::UpdateBatch{{dynamic::UpdateOp::RemoveEdge(a, b)}},
       dynamic::UpdateBatch{{dynamic::UpdateOp::AddEdge(b, a),
                             dynamic::UpdateOp::RemoveEdge(c, d),
                             dynamic::UpdateOp::AddEdge(c, d)}}});

  for (const dynamic::UpdateBatch& batch : stream.batches) {
    std::string error;
    ASSERT_TRUE(graph.Apply(batch, &error)) << error;
    for (const dynamic::UpdateOp& op : batch.ops) {
      const std::pair<Vertex, Vertex> key{std::min(op.u, op.v),
                                          std::max(op.u, op.v)};
      if (op.kind == dynamic::UpdateKind::kAddEdge) live.insert(key);
      if (op.kind == dynamic::UpdateKind::kRemoveEdge) live.erase(key);
    }
    std::vector<Label> labels(graph.vertex_count());
    for (Vertex v = 0; v < graph.vertex_count(); ++v) labels[v] = graph.label(v);
    EdgeList edges(live.rbegin(), live.rend());
    const FlatGraph snapshot = Flatten(graph.Snapshot());
    EXPECT_TRUE(snapshot == Flatten(Graph(labels, edges)));
    EXPECT_TRUE(snapshot == ReferenceBuild(labels, edges));
  }
  EXPECT_GT(graph.vertex_count(), base.vertex_count());
  EXPECT_TRUE(std::any_of(
      stream.batches.begin(), stream.batches.end(), [](const auto& batch) {
        return std::any_of(batch.ops.begin(), batch.ops.end(), [](const auto& op) {
          return op.kind == dynamic::UpdateKind::kRemoveVertex;
        });
      }));
}

}  // namespace
}  // namespace sgm
