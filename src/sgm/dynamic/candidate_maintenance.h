// Incremental candidate-set maintenance for continuous queries
// (DESIGN.md §13).
//
// DynamicCandidates keeps, per query vertex, a bitset over data vertices
// passing the LDF+NLF predicate (alive, label equal, degree and
// neighbor-label-frequency no smaller than the query vertex's) against the
// *current* DynamicGraph state. The predicate is the same sound candidate
// superset the static filters start from, so anchored delta enumeration
// seeded from it misses no embedding.
//
// The point of this structure is the repair locality: an edge update
// (a, b) changes the degree and NLF of exactly a and b — no other vertex's
// predicate inputs move — so ContinuousMatcher repairs two vertices per
// edge op instead of rebuilding O(V) candidate sets. Vertex inserts repair
// only the new vertex; vertex deletes (isolated by contract) only the
// victim.
#ifndef SGM_DYNAMIC_CANDIDATE_MAINTENANCE_H_
#define SGM_DYNAMIC_CANDIDATE_MAINTENANCE_H_

#include <cstdint>
#include <vector>

#include "sgm/dynamic/dynamic_graph.h"
#include "sgm/graph/graph.h"

namespace sgm::dynamic {

/// Per-query-vertex candidate bitsets with O(degree) single-vertex repair.
/// The query graph must outlive this object.
class DynamicCandidates {
 public:
  DynamicCandidates(const Graph& query, const DynamicGraph& data);

  bool IsCandidate(uint32_t query_vertex, Vertex v) const {
    const std::vector<uint64_t>& bits = bits_[query_vertex];
    const size_t word = v >> 6;
    if (word >= bits.size()) return false;
    return (bits[word] >> (v & 63)) & 1;
  }

  /// Recomputes the predicate of data vertex v against every query vertex,
  /// growing the bitsets if v is new. Returns how many (query vertex, v)
  /// entries flipped.
  uint32_t RepairVertex(const DynamicGraph& data, Vertex v);

  uint32_t query_vertex_count() const {
    return static_cast<uint32_t>(bits_.size());
  }
  /// Population of one query vertex's candidate set (test/stat helper).
  uint64_t CandidateCount(uint32_t query_vertex) const;
  size_t MemoryBytes() const;

 private:
  /// True when data vertex v may map to query vertex qu. `label_counts`
  /// holds v's live-neighbor label histogram (indexed by label).
  bool Passes(uint32_t query_vertex, const DynamicGraph& data, Vertex v,
              const std::vector<uint32_t>& label_counts) const;

  const Graph* query_;
  /// bits_[qu] is a bitset over data vertex ids.
  std::vector<std::vector<uint64_t>> bits_;

  // Repair scratch, reused across calls to keep repairs allocation-free in
  // steady state.
  std::vector<Vertex> neighbor_scratch_;
  std::vector<uint32_t> label_count_scratch_;
};

}  // namespace sgm::dynamic

#endif  // SGM_DYNAMIC_CANDIDATE_MAINTENANCE_H_
