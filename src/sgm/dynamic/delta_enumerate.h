// Anchored delta enumeration (DESIGN.md §13).
//
// For one data edge (a, b), EnumerateEdgeAnchored reports exactly the
// embeddings of the query that map some query edge onto {a, b}. Because
// embeddings are injective, an embedding f that uses {a, b} determines a
// unique ordered query pair (f⁻¹(a), f⁻¹(b)) — so iterating all ordered
// adjacent query pairs as anchors finds every such embedding exactly once,
// with no cross-anchor deduplication needed.
//
// This is the primitive behind exact continuous matching: enumerate
// against the post-insert graph for an inserted edge (additions), against
// the pre-delete graph for a deleted edge (retractions), and
// matches(G+Δ) = matches(G) ⊎ Δ⁺ ∖ Δ⁻ holds exactly (continuous.h).
#ifndef SGM_DYNAMIC_DELTA_ENUMERATE_H_
#define SGM_DYNAMIC_DELTA_ENUMERATE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sgm/dynamic/candidate_maintenance.h"
#include "sgm/dynamic/dynamic_graph.h"
#include "sgm/graph/graph.h"

namespace sgm::dynamic {

/// Receives one embedding: `embedding[qu]` is the data vertex mapped to
/// query vertex qu. The span is only valid during the call.
using EmbeddingCallback = std::function<void(std::span<const Vertex>)>;

struct DeltaEnumerateStats {
  /// Ordered query-edge anchors whose endpoints passed the candidate test.
  uint64_t anchors_tried = 0;
  /// Backtracking calls (extension attempts) past the anchor seed.
  uint64_t recursion_calls = 0;
  uint64_t embeddings = 0;

  DeltaEnumerateStats& operator+=(const DeltaEnumerateStats& other) {
    anchors_tried += other.anchors_tried;
    recursion_calls += other.recursion_calls;
    embeddings += other.embeddings;
    return *this;
  }
};

/// Enumerates every embedding of `query` in the current state of `data`
/// that maps some query edge onto data edge {a, b}, invoking `callback`
/// once per embedding. `cands` must be consistent with `data`'s current
/// state. Queries with fewer than two vertices have no edges and yield
/// nothing. Returns the number of embeddings reported.
uint64_t EnumerateEdgeAnchored(const Graph& query, const DynamicGraph& data,
                               const DynamicCandidates& cands, Vertex a,
                               Vertex b, const EmbeddingCallback& callback,
                               DeltaEnumerateStats* stats);

}  // namespace sgm::dynamic

#endif  // SGM_DYNAMIC_DELTA_ENUMERATE_H_
