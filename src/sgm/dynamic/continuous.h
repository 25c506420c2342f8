// Continuous subgraph matching over a DynamicGraph (DESIGN.md §13).
//
// Register a pattern once; every applied batch then produces a MatchDelta
// per registered query — the exact additions and retractions to its match
// set, such that replaying the delta records in order over the previous
// match set reproduces a cold re-match of the updated snapshot:
//
//   matches(G + Δ) = matches(G) ⊎ Δ⁺ ∖ Δ⁻    (exactly, no over/under-count)
//
// Ops inside a batch are processed sequentially, so each new embedding is
// reported at the last inserted edge it uses and each dying embedding at
// the first deleted edge it uses — exactly once either way. An embedding
// both created and destroyed inside one batch legitimately appears as an
// addition followed by a retraction; DeltaRecords are therefore ordered,
// and consumers that only need the net effect can fold them into a set.
#ifndef SGM_DYNAMIC_CONTINUOUS_H_
#define SGM_DYNAMIC_CONTINUOUS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sgm/dynamic/candidate_maintenance.h"
#include "sgm/dynamic/delta_enumerate.h"
#include "sgm/dynamic/dynamic_graph.h"
#include "sgm/graph/graph.h"

namespace sgm::dynamic {

/// One match-set change. `embedding[qu]` is the data vertex mapped to
/// query vertex qu.
struct DeltaRecord {
  bool addition = true;  // false: retraction
  std::vector<Vertex> embedding;

  friend bool operator==(const DeltaRecord&, const DeltaRecord&) = default;
};

/// Per-query result of one batch.
struct MatchDelta {
  uint64_t query_id = 0;
  /// Additions and retractions in op order (see file comment).
  std::vector<DeltaRecord> records;
  uint64_t additions = 0;
  uint64_t retractions = 0;
  /// Candidate-bitset entries flipped while repairing this query's aux.
  uint64_t candidates_repaired = 0;
  DeltaEnumerateStats enumerate;
};

/// Result of one atomically applied batch.
struct BatchResult {
  /// Graph epoch after the batch.
  uint64_t epoch = 0;
  uint32_t ops_applied = 0;
  /// One entry per registered query, ascending query id.
  std::vector<MatchDelta> deltas;
  /// Time spent mutating the overlay and repairing candidate sets.
  double apply_ms = 0.0;
  /// Time spent in anchored delta enumeration.
  double enumerate_ms = 0.0;
};

/// Maintains registered queries and their candidate sets against one
/// DynamicGraph and turns update batches into exact match deltas. The
/// graph is borrowed, not owned, and must not be mutated behind the
/// matcher's back between batches. Not internally synchronized — the
/// serving layer serializes ApplyBatch calls under its graph mutex.
class ContinuousMatcher {
 public:
  explicit ContinuousMatcher(DynamicGraph* graph) : graph_(graph) {}

  /// Registers a pattern; returns its id (> 0), or 0 with *error set when
  /// the query is rejected (empty, > 64 vertices, disconnected, or using a
  /// label outside the graph's fixed vocabulary).
  uint64_t Register(Graph query, std::string* error);
  /// Returns false when no such registration exists.
  bool Unregister(uint64_t query_id);
  size_t registration_count() const { return registrations_.size(); }

  /// Validates and applies `batch` to the graph (bumping its epoch) while
  /// producing the exact match delta of every registered query. Returns
  /// std::nullopt with *error set — and the graph untouched — when the
  /// batch does not validate.
  std::optional<BatchResult> ApplyBatch(const UpdateBatch& batch,
                                        std::string* error);

  const DynamicGraph& graph() const { return *graph_; }

 private:
  struct Registration {
    Graph query;
    std::unique_ptr<DynamicCandidates> candidates;
  };

  /// Repairs data vertex v in every registration, crediting the flips to
  /// the matching MatchDelta entries.
  void RepairAll(Vertex v, std::vector<MatchDelta>* deltas);

  DynamicGraph* graph_;
  std::map<uint64_t, Registration> registrations_;
  uint64_t next_query_id_ = 1;
};

}  // namespace sgm::dynamic

#endif  // SGM_DYNAMIC_CONTINUOUS_H_
