// Versioned update layer over the immutable CSR Graph (DESIGN.md §13).
//
// A DynamicGraph wraps one base Graph plus a delta-adjacency overlay:
// per-vertex sorted lists of added and removed neighbors, appended vertex
// labels, and tombstone flags for deleted vertices. Update batches apply
// atomically (the whole batch is validated first) and bump a monotonically
// increasing epoch — the version number the serving layer folds into plan
// cache keys. Compaction merges the overlay back into a fresh base CSR;
// reads see the same graph before and after, so callers compact whenever
// amortization favors it (MatchService compacts lazily on the first
// snapshot request after an epoch change).
//
// Identity rules, chosen so incremental deltas and cold re-matching on a
// snapshot agree *exactly*:
//  * Vertex ids are stable forever and never reused. A deleted vertex must
//    already be isolated (remove its edges first); it stays in snapshots as
//    an isolated vertex relabeled to the tombstone label.
//  * The label vocabulary is fixed at construction: added vertices must
//    carry a label < label_limit(), and the tombstone label IS
//    label_limit() — a label no live vertex can ever carry, so a tombstone
//    can never match a query vertex. (Graph permits empty label classes,
//    so snapshots with no dead vertices don't pay for the extra label.)
#ifndef SGM_DYNAMIC_DYNAMIC_GRAPH_H_
#define SGM_DYNAMIC_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sgm/dynamic/update_batch.h"
#include "sgm/graph/graph.h"

namespace sgm::dynamic {

/// See file comment. Not internally synchronized: one writer at a time,
/// and no concurrent reads during a write (MatchService guards it with its
/// graph mutex; snapshots are plain immutable Graphs and need no guard).
class DynamicGraph {
 public:
  explicit DynamicGraph(Graph base);

  /// Number of batches applied since construction.
  uint64_t epoch() const { return epoch_; }
  /// Number of Compact() merges performed.
  uint64_t compactions() const { return compactions_; }
  /// True when the overlay holds changes the base CSR does not.
  bool dirty() const { return dirty_; }

  /// Total ids ever allocated — live and dead vertices alike.
  uint32_t vertex_count() const {
    return base_->vertex_count() + static_cast<uint32_t>(added_labels_.size());
  }
  /// Live (non-deleted) edges.
  uint64_t edge_count() const { return edge_count_; }
  /// Labels live vertices may carry are exactly [0, label_limit()).
  Label label_limit() const { return label_limit_; }
  /// The reserved label dead vertices carry in snapshots (== label_limit()).
  Label tombstone_label() const { return label_limit_; }

  bool alive(Vertex v) const {
    SGM_CHECK(v < vertex_count());
    return !dead_[v];
  }
  /// Tombstone label when v is dead.
  Label label(Vertex v) const;
  uint32_t degree(Vertex v) const;
  bool HasEdge(Vertex u, Vertex v) const;
  /// Replaces *out with the sorted live neighbor list of v (base merged
  /// with the overlay).
  void CopyNeighbors(Vertex v, std::vector<Vertex>* out) const;

  /// Checks that `batch` applies cleanly to the current state, honoring the
  /// sequential in-batch semantics (an op may consume what an earlier op of
  /// the same batch produced). On failure fills *error (when non-null) with
  /// the offending op and leaves the graph untouched.
  bool ValidateBatch(const UpdateBatch& batch, std::string* error) const;

  /// Validates, applies every op in order and bumps the epoch. Returns
  /// false (graph unchanged) when validation fails.
  bool Apply(const UpdateBatch& batch, std::string* error);

  /// Applies one already-validated op WITHOUT bumping the epoch — the
  /// hook ContinuousMatcher uses to interleave delta enumeration with
  /// op application. The op must be valid in the current state (checked).
  void ApplyOp(const UpdateOp& op);
  /// Closes an ApplyOp sequence: bumps the epoch by one.
  void BumpEpoch() { ++epoch_; }

  /// Materializes the current graph as an immutable CSR: live edges, dead
  /// vertices isolated under the tombstone label.
  Graph Snapshot() const;
  /// Snapshot without a copy when the overlay is clean (returns the shared
  /// base); builds a fresh graph otherwise. The returned snapshot is
  /// immutable and safe to read concurrently with later updates.
  std::shared_ptr<const Graph> SnapshotShared() const;
  /// Merges the overlay into a new base CSR. Reads are unchanged;
  /// SnapshotShared() becomes free again until the next update.
  void Compact();

  const Graph& base() const { return *base_; }
  /// Heap footprint of the overlay (not the base CSR).
  size_t OverlayMemoryBytes() const;

 private:
  /// Net adjacency change of one touched vertex. `added` and `removed` are
  /// sorted and disjoint; `removed` only ever holds base edges.
  struct VertexDelta {
    std::vector<Vertex> added;
    std::vector<Vertex> removed;
  };

  const VertexDelta* FindDelta(Vertex v) const;
  /// Records the insertion of edge half (from, to) in from's delta.
  void AddHalfEdge(Vertex from, Vertex to);
  void RemoveHalfEdge(Vertex from, Vertex to);

  std::shared_ptr<const Graph> base_;
  std::unordered_map<Vertex, VertexDelta> overlay_;
  /// Labels of vertices appended after the base (id = base count + index).
  std::vector<Label> added_labels_;
  /// Tombstones, indexed by vertex id; grows with added vertices.
  std::vector<bool> dead_;

  Label label_limit_ = 0;
  uint64_t edge_count_ = 0;
  uint64_t epoch_ = 0;
  uint64_t compactions_ = 0;
  bool dirty_ = false;
};

}  // namespace sgm::dynamic

#endif  // SGM_DYNAMIC_DYNAMIC_GRAPH_H_
