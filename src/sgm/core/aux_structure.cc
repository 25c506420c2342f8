#include "sgm/core/aux_structure.h"

#include <limits>

#include "sgm/util/bitmap_intersection.h"

namespace sgm {

const char* AuxEdgeScopeName(AuxEdgeScope scope) {
  switch (scope) {
    case AuxEdgeScope::kNone:
      return "none";
    case AuxEdgeScope::kTreeEdges:
      return "tree-edges";
    case AuxEdgeScope::kAllEdges:
      return "all-edges";
  }
  return "unknown";
}

AuxStructure::AuxStructure(const Graph& query, const Graph& data,
                           const CandidateSets& candidates,
                           std::span<const std::pair<Vertex, Vertex>> edges,
                           const AuxBuildOptions& build_options)
    : candidates_(&candidates),
      query_vertex_count_(query.vertex_count()) {
  SGM_CHECK(candidates.query_vertex_count() == query.vertex_count());
  slot_.assign(static_cast<size_t>(query_vertex_count_) * query_vertex_count_,
               -1);
  indexes_.reserve(edges.size() * 2);
  if (edges.empty()) return;

  // The sidecar is selected per query vertex: only a C(to) below the density
  // threshold pays the fixed-stride rows; sparse sets keep the CSR arrays
  // alone.
  const auto init_bitmap = [&](DirectedIndex* index, size_t from_count,
                               size_t to_count) {
    if (!build_options.build_bitmaps || to_count == 0 ||
        to_count > build_options.bitmap_max_candidates) {
      return;
    }
    index->bitmap_stride = BitmapWords(static_cast<uint32_t>(to_count));
    index->bits.assign(from_count * index->bitmap_stride, 0);
  };
  const auto set_bit = [](DirectedIndex* index, size_t row, uint32_t bit) {
    index->bits[row * index->bitmap_stride + (bit >> 6)] |=
        1ULL << (bit & 63);
  };

  const auto claim_slot = [&](Vertex from, Vertex to, size_t slot) {
    SGM_CHECK_MSG(SlotOf(from, to) < 0, "duplicate aux structure edge");
    slot_[from * query_vertex_count_ + to] = static_cast<int32_t>(slot);
  };

  // Per data vertex: its candidate index in C(b) of the edge being built,
  // kUnstamped otherwise. Reset after each edge, freed with the build.
  constexpr uint32_t kUnstamped = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> stamp(data.vertex_count(), kUnstamped);
  // Candidate index in C(b) of each a -> b entry, parallel to its lists.
  std::vector<uint32_t> targets;
  // Next free position of each b -> a row during the transposition.
  std::vector<uint32_t> cursor;
  for (const auto& [a, b] : edges) {
    SGM_CHECK_MSG(query.HasEdge(a, b), "aux structure pair is not a query edge");
    claim_slot(a, b, indexes_.size());
    claim_slot(b, a, indexes_.size() + 1);
    const auto a_cands = candidates.candidates(a);
    const auto b_cands = candidates.candidates(b);
    SGM_CHECK(b_cands.empty() || b_cands.back() < data.vertex_count());
    for (uint32_t j = 0; j < b_cands.size(); ++j) stamp[b_cands[j]] = j;

    // a -> b: one scan of N(v) per v ∈ C(a) keeps the stamped neighbours.
    // N(v) is id-sorted and so is C(b), so each row comes out sorted.
    DirectedIndex forward;
    forward.offsets.resize(a_cands.size() + 1);
    uint32_t total = 0;
    for (size_t r = 0; r < a_cands.size(); ++r) {
      for (const Vertex w : data.neighbors(a_cands[r])) {
        total += stamp[w] != kUnstamped;
      }
      forward.offsets[r + 1] = total;
    }
    forward.lists.resize(total);
    targets.resize(total);
    init_bitmap(&forward, a_cands.size(), b_cands.size());
    for (size_t r = 0, k = 0; r < a_cands.size(); ++r) {
      for (const Vertex w : data.neighbors(a_cands[r])) {
        const uint32_t j = stamp[w];
        if (j == kUnstamped) continue;
        forward.lists[k] = w;
        targets[k++] = j;
        if (forward.bitmap_stride > 0) set_bit(&forward, r, j);
      }
    }
    for (const Vertex w : b_cands) stamp[w] = kUnstamped;

    // b -> a: counting-sort transposition of the a -> b entries. Rows of
    // C(a) are visited in order and C(a) is sorted, so each row comes out
    // sorted.
    DirectedIndex backward;
    backward.offsets.assign(b_cands.size() + 1, 0);
    for (const uint32_t j : targets) ++backward.offsets[j + 1];
    for (size_t j = 0; j < b_cands.size(); ++j) {
      backward.offsets[j + 1] += backward.offsets[j];
    }
    backward.lists.resize(total);
    init_bitmap(&backward, b_cands.size(), a_cands.size());
    cursor.assign(backward.offsets.begin(), backward.offsets.end() - 1);
    for (size_t r = 0; r < a_cands.size(); ++r) {
      for (uint32_t k = forward.offsets[r]; k < forward.offsets[r + 1]; ++k) {
        const uint32_t j = targets[k];
        backward.lists[cursor[j]++] = a_cands[r];
        if (backward.bitmap_stride > 0) {
          set_bit(&backward, j, static_cast<uint32_t>(r));
        }
      }
    }
    indexes_.push_back(std::move(forward));
    indexes_.push_back(std::move(backward));
  }
}

AuxStructure AuxStructure::BuildAllEdges(const Graph& query, const Graph& data,
                                         const CandidateSets& candidates,
                                         const AuxBuildOptions& build_options) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < query.vertex_count(); ++u) {
    for (const Vertex w : query.neighbors(u)) {
      if (u < w) edges.emplace_back(u, w);
    }
  }
  return AuxStructure(query, data, candidates, edges, build_options);
}

AuxStructure AuxStructure::BuildTreeEdges(const Graph& query,
                                          const Graph& data,
                                          const CandidateSets& candidates,
                                          std::span<const Vertex> parent,
                                          const AuxBuildOptions& build_options) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < query.vertex_count(); ++u) {
    if (parent[u] != kInvalidVertex) edges.emplace_back(parent[u], u);
  }
  return AuxStructure(query, data, candidates, edges, build_options);
}

std::span<const Vertex> AuxStructure::NeighborsByIndex(Vertex from_u,
                                                       uint32_t cand_index,
                                                       Vertex to_u) const {
  const int32_t slot = SlotOf(from_u, to_u);
  SGM_CHECK_MSG(slot >= 0, "query edge not indexed in aux structure");
  const DirectedIndex& index = indexes_[static_cast<size_t>(slot)];
  SGM_CHECK(cand_index + 1 < index.offsets.size());
  return {index.lists.data() + index.offsets[cand_index],
          index.offsets[cand_index + 1] - index.offsets[cand_index]};
}

std::span<const uint64_t> AuxStructure::BitmapByIndex(Vertex from_u,
                                                      uint32_t cand_index,
                                                      Vertex to_u) const {
  const int32_t slot = SlotOf(from_u, to_u);
  SGM_CHECK_MSG(slot >= 0, "query edge not indexed in aux structure");
  const DirectedIndex& index = indexes_[static_cast<size_t>(slot)];
  SGM_CHECK_MSG(index.bitmap_stride > 0, "no bitmap sidecar for this edge");
  SGM_CHECK(cand_index + 1 < index.offsets.size());
  return {index.bits.data() +
              static_cast<size_t>(cand_index) * index.bitmap_stride,
          index.bitmap_stride};
}

std::span<const Vertex> AuxStructure::NeighborsOfVertex(Vertex from_u,
                                                        Vertex data_vertex,
                                                        Vertex to_u) const {
  const uint32_t cand_index = candidates_->IndexOf(from_u, data_vertex);
  SGM_CHECK_MSG(cand_index < candidates_->Count(from_u),
                "data vertex is not a candidate of from_u");
  return NeighborsByIndex(from_u, cand_index, to_u);
}

uint64_t AuxStructure::CandidateEdgeCount() const {
  uint64_t total = 0;
  for (const auto& index : indexes_) total += index.lists.size();
  return total;
}

size_t AuxStructure::MemoryBytes() const {
  size_t bytes = slot_.capacity() * sizeof(int32_t) +
                 indexes_.capacity() * sizeof(DirectedIndex);
  for (const auto& index : indexes_) {
    bytes += index.offsets.capacity() * sizeof(uint32_t) +
             index.lists.capacity() * sizeof(Vertex) +
             index.bits.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace sgm
