#include "sgm/core/aux_structure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <optional>

#include "sgm/core/filter/filter.h"
#include "sgm/graph/generators.h"
#include "sgm/graph/graph_builder.h"
#include "sgm/graph/graph_utils.h"
#include "sgm/graph/query_generator.h"
#include "sgm/util/bitmap_intersection.h"
#include "sgm/util/prng.h"
#include "test_support.h"

namespace sgm {
namespace {

using ::sgm::testing::MakeGraph;
using ::sgm::testing::PaperData;
using ::sgm::testing::PaperQuery;

using Edges = std::vector<std::pair<Vertex, Vertex>>;

Edges AllQueryEdges(const Graph& query) {
  Edges edges;
  for (Vertex u = 0; u < query.vertex_count(); ++u) {
    for (const Vertex w : query.neighbors(u)) {
      if (u < w) edges.emplace_back(u, w);
    }
  }
  return edges;
}

Edges TreeEdges(std::span<const Vertex> parent) {
  Edges edges;
  for (Vertex u = 0; u < parent.size(); ++u) {
    if (parent[u] != kInvalidVertex) edges.emplace_back(parent[u], u);
  }
  return edges;
}

// Checks every directed list and every bitmap row of `aux` against a
// reference that intersects N(v) with C(u') for each candidate v of C(u).
void ExpectMatchesReference(const AuxStructure& aux, const Graph& data,
                            const CandidateSets& candidates,
                            const Edges& edges,
                            const AuxBuildOptions& options) {
  uint64_t entries = 0;
  for (const auto& [a, b] : edges) {
    for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
      SCOPED_TRACE(::testing::Message() << "edge " << from << "->" << to);
      ASSERT_TRUE(aux.HasIndex(from, to));
      const auto from_cands = candidates.candidates(from);
      const auto to_cands = candidates.candidates(to);
      const bool bitmap = options.build_bitmaps && !to_cands.empty() &&
                          to_cands.size() <= options.bitmap_max_candidates;
      ASSERT_EQ(aux.HasBitmap(from, to), bitmap);
      const uint32_t stride =
          bitmap ? BitmapWords(static_cast<uint32_t>(to_cands.size())) : 0;
      ASSERT_EQ(aux.BitmapStride(from, to), stride);
      for (uint32_t ci = 0; ci < from_cands.size(); ++ci) {
        const auto neighbors = data.neighbors(from_cands[ci]);
        std::vector<Vertex> expected;
        std::set_intersection(neighbors.begin(), neighbors.end(),
                              to_cands.begin(), to_cands.end(),
                              std::back_inserter(expected));
        entries += expected.size();
        const auto list = aux.NeighborsByIndex(from, ci, to);
        ASSERT_EQ(std::vector<Vertex>(list.begin(), list.end()), expected)
            << "candidate " << from_cands[ci];
        if (!bitmap) continue;
        std::vector<uint64_t> row(stride, 0);
        for (const Vertex x : expected) {
          const auto pos = static_cast<uint32_t>(
              std::lower_bound(to_cands.begin(), to_cands.end(), x) -
              to_cands.begin());
          row[pos >> 6] |= 1ULL << (pos & 63);
        }
        const auto bits = aux.BitmapByIndex(from, ci, to);
        ASSERT_EQ(std::vector<uint64_t>(bits.begin(), bits.end()), row)
            << "candidate " << from_cands[ci];
      }
    }
  }
  EXPECT_EQ(aux.CandidateEdgeCount(), entries);
}

class AuxStructureTest : public ::testing::Test {
 protected:
  AuxStructureTest()
      : query_(PaperQuery()),
        data_(PaperData()),
        candidates_(BuildNlfCandidates(query_, data_)) {}

  Graph query_;
  Graph data_;
  CandidateSets candidates_;
};

TEST_F(AuxStructureTest, AllEdgesIndexesBothDirections) {
  const AuxStructure aux =
      AuxStructure::BuildAllEdges(query_, data_, candidates_);
  for (Vertex u = 0; u < query_.vertex_count(); ++u) {
    for (const Vertex w : query_.neighbors(u)) {
      EXPECT_TRUE(aux.HasIndex(u, w));
      EXPECT_TRUE(aux.HasIndex(w, u));
    }
  }
  EXPECT_FALSE(aux.HasIndex(0, 3));  // u0-u3 is not a query edge
}

TEST_F(AuxStructureTest, ListsAreNeighborsWithinCandidates) {
  const AuxStructure aux =
      AuxStructure::BuildAllEdges(query_, data_, candidates_);
  for (Vertex u = 0; u < query_.vertex_count(); ++u) {
    for (const Vertex w : query_.neighbors(u)) {
      const auto from_cands = candidates_.candidates(u);
      for (uint32_t ci = 0; ci < from_cands.size(); ++ci) {
        const Vertex v = from_cands[ci];
        const auto list = aux.NeighborsByIndex(u, ci, w);
        EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
        for (const Vertex x : list) {
          EXPECT_TRUE(data_.HasEdge(v, x));
          EXPECT_TRUE(candidates_.Contains(w, x));
        }
        // Completeness of the list: every candidate neighbor appears.
        for (const Vertex x : candidates_.candidates(w)) {
          if (data_.HasEdge(v, x)) {
            EXPECT_TRUE(std::binary_search(list.begin(), list.end(), x));
          }
        }
      }
    }
  }
}

TEST_F(AuxStructureTest, NeighborsOfVertexMatchesByIndex) {
  const AuxStructure aux =
      AuxStructure::BuildAllEdges(query_, data_, candidates_);
  const auto cands = candidates_.candidates(1);
  ASSERT_FALSE(cands.empty());
  const Vertex v = cands[0];
  const auto by_vertex = aux.NeighborsOfVertex(1, v, 0);
  const auto by_index = aux.NeighborsByIndex(1, 0, 0);
  ASSERT_EQ(by_vertex.size(), by_index.size());
  EXPECT_TRUE(std::equal(by_vertex.begin(), by_vertex.end(),
                         by_index.begin()));
}

TEST_F(AuxStructureTest, TreeEdgesScope) {
  // BFS tree of the paper query rooted at u0: parents u1<-u0, u2<-u0,
  // u3<-u1.
  const std::vector<Vertex> parent = {kInvalidVertex, 0, 0, 1};
  const AuxStructure aux =
      AuxStructure::BuildTreeEdges(query_, data_, candidates_, parent);
  EXPECT_TRUE(aux.HasIndex(0, 1));
  EXPECT_TRUE(aux.HasIndex(1, 0));
  EXPECT_TRUE(aux.HasIndex(1, 3));
  EXPECT_FALSE(aux.HasIndex(1, 2));  // non-tree edge not indexed
  EXPECT_FALSE(aux.HasIndex(2, 3));
}

TEST_F(AuxStructureTest, CandidateEdgeCountAndMemory) {
  const AuxStructure aux =
      AuxStructure::BuildAllEdges(query_, data_, candidates_);
  EXPECT_GT(aux.CandidateEdgeCount(), 0u);
  EXPECT_GT(aux.MemoryBytes(), 0u);
}

TEST_F(AuxStructureTest, PaperExampleAdjacency) {
  // Example 3.2: given v4 in C(u1), A_{u3}^{u1}(v4) = {v12} after NLF
  // filtering (the paper's {v10, v12} refers to the pre-refinement CFL
  // structure; with NLF candidates v4's only C(u3)-neighbor is v12).
  const AuxStructure aux =
      AuxStructure::BuildAllEdges(query_, data_, candidates_);
  const auto list = aux.NeighborsOfVertex(1, 4, 3);
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0], 12u);
}

TEST(AuxStructureEquivalenceTest, RandomLabelledGraphsMatchReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Prng prng(seed);
    const Graph data = seed % 2 == 0
                           ? GenerateRmat(400, 2400, 3, &prng)
                           : GenerateErdosRenyi(300, 1500, 4, &prng);
    const std::optional<Graph> query =
        ExtractQuery(data, 4 + seed % 5, QueryDensity::kAny, &prng);
    ASSERT_TRUE(query.has_value());
    const CandidateSets candidates = BuildNlfCandidates(*query, data);
    const BfsTree tree = BuildBfsTree(*query, 0);
    // The candidate sets hold 45-137 vertices here, so a threshold of 64
    // mixes edges with and without sidecars within most builds.
    for (const AuxBuildOptions options :
         {AuxBuildOptions{}, AuxBuildOptions{true, 4096},
          AuxBuildOptions{true, 64}}) {
      ExpectMatchesReference(
          AuxStructure::BuildAllEdges(*query, data, candidates, options), data,
          candidates, AllQueryEdges(*query), options);
      ExpectMatchesReference(AuxStructure::BuildTreeEdges(
                                 *query, data, candidates, tree.parent, options),
                             data, candidates, TreeEdges(tree.parent), options);
    }
  }
}

TEST(AuxStructureEquivalenceTest, EmptyCandidateSet) {
  const Graph query = PaperQuery();
  const Graph data = PaperData();
  CandidateSets candidates = BuildNlfCandidates(query, data);
  candidates.mutable_candidates(2).clear();
  const AuxBuildOptions options{true, 4096};
  const AuxStructure aux =
      AuxStructure::BuildAllEdges(query, data, candidates, options);
  ExpectMatchesReference(aux, data, candidates, AllQueryEdges(query), options);
  // Rows towards the empty C(u2) are empty; C(u2) itself has no rows.
  EXPECT_FALSE(aux.HasBitmap(1, 2));
  EXPECT_TRUE(aux.HasBitmap(2, 1));
  for (uint32_t ci = 0; ci < candidates.Count(1); ++ci) {
    EXPECT_TRUE(aux.NeighborsByIndex(1, ci, 2).empty());
  }
}

TEST(AuxStructureEquivalenceTest, HubVertex) {
  // v0 (label 0) is adjacent to all 3000 label-1 vertices, v1 to every
  // tenth one; C(u1) keeps every third label-1 vertex, so the hub's row is
  // far longer than any other and every candidate of C(u1) has both hubs
  // or only v0 in its reverse row.
  constexpr uint32_t kLeaves = 3000;
  std::vector<Label> labels = {0, 0};
  labels.resize(2 + kLeaves, 1);
  Edges data_edges;
  for (Vertex leaf = 2; leaf < 2 + kLeaves; ++leaf) {
    data_edges.emplace_back(0, leaf);
    if (leaf % 10 == 0) data_edges.emplace_back(1, leaf);
  }
  const Graph data = MakeGraph(labels, data_edges);
  const Graph query = MakeGraph({0, 1}, {{0, 1}});
  CandidateSets candidates(2);
  candidates.mutable_candidates(0) = {0, 1};
  for (Vertex leaf = 2; leaf < 2 + kLeaves; leaf += 3) {
    candidates.mutable_candidates(1).push_back(leaf);
  }
  for (const AuxBuildOptions options :
       {AuxBuildOptions{}, AuxBuildOptions{true, 4096}}) {
    const AuxStructure aux =
        AuxStructure::BuildAllEdges(query, data, candidates, options);
    ExpectMatchesReference(aux, data, candidates, {{0, 1}}, options);
    EXPECT_EQ(aux.NeighborsByIndex(0, 0, 1).size(), candidates.Count(1));
  }
}

TEST(AuxStructureEquivalenceTest, BitmapThresholdBoundary) {
  // C(u0) holds the 100 label-0 vertices and C(u1) the 130 label-1 ones
  // (three bitmap words, the last one partial).
  constexpr uint32_t kLeft = 100;
  constexpr uint32_t kRight = 130;
  Prng prng(7);
  std::vector<Label> labels(kLeft, 0);
  labels.resize(kLeft + kRight, 1);
  Edges data_edges;
  for (uint32_t i = 0; i < 1200; ++i) {
    data_edges.emplace_back(static_cast<Vertex>(prng.NextBounded(kLeft)),
                            kLeft + static_cast<Vertex>(prng.NextBounded(kRight)));
  }
  const Graph data = MakeGraph(labels, data_edges);
  const Graph query = MakeGraph({0, 1}, {{0, 1}});
  const CandidateSets candidates = BuildLdfCandidates(query, data);
  ASSERT_EQ(candidates.Count(0), kLeft);
  ASSERT_EQ(candidates.Count(1), kRight);
  for (const uint32_t max_candidates : {kRight, kRight - 1}) {
    const AuxBuildOptions options{true, max_candidates};
    const AuxStructure aux =
        AuxStructure::BuildAllEdges(query, data, candidates, options);
    ExpectMatchesReference(aux, data, candidates, {{0, 1}}, options);
    EXPECT_EQ(aux.HasBitmap(0, 1), max_candidates == kRight);
    EXPECT_TRUE(aux.HasBitmap(1, 0));
  }
}

}  // namespace
}  // namespace sgm
