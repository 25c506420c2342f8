// Update batches and replayable update streams for the dynamic-graph
// subsystem (DESIGN.md §13).
//
// An UpdateBatch is an ordered list of primitive graph mutations — edge
// inserts/deletes and vertex inserts/deletes — applied atomically to a
// DynamicGraph: the whole batch is validated against the current graph
// state (including earlier ops of the same batch) before anything mutates.
// Ops inside a batch have sequential semantics: `ae 0 1` followed by
// `re 0 1` is a valid batch that nets to no change.
//
// An UpdateStream is a sequence of batches with a plain-text serialization
// (the replay format of `sgm_serve --updates` and the fuzzer's `upd=`
// dimension):
//
//   # sgm update stream v1
//   batch
//   ae 0 5
//   re 2 3
//   av 1
//   rv 7
//   end
//   batch
//   end
//
// Records: `ae u v` inserts edge (u, v); `re u v` deletes it; `av l`
// appends a vertex with label l (its id is the vertex count at that
// point); `rv v` deletes vertex v, which must already be isolated (delete
// its edges first — ids are never reused, see dynamic_graph.h). `batch` /
// `end` bracket each batch; an empty batch is legal and bumps the epoch
// without changing the graph. Lines starting with '#' are comments.
#ifndef SGM_DYNAMIC_UPDATE_BATCH_H_
#define SGM_DYNAMIC_UPDATE_BATCH_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sgm/graph/graph.h"
#include "sgm/util/prng.h"

namespace sgm::dynamic {

/// The four primitive mutations.
enum class UpdateKind : uint8_t {
  kAddEdge = 0,
  kRemoveEdge,
  kAddVertex,
  kRemoveVertex,
};

/// Short record name: "ae", "re", "av", "rv".
const char* UpdateKindName(UpdateKind kind);

/// One primitive mutation.
struct UpdateOp {
  UpdateKind kind = UpdateKind::kAddEdge;
  /// Edge endpoints for kAddEdge/kRemoveEdge; the victim for kRemoveVertex
  /// (v is unused there).
  Vertex u = 0;
  Vertex v = 0;
  /// New vertex label for kAddVertex (u and v are unused there).
  Label label = 0;

  static UpdateOp AddEdge(Vertex u, Vertex v) {
    return {UpdateKind::kAddEdge, u, v, 0};
  }
  static UpdateOp RemoveEdge(Vertex u, Vertex v) {
    return {UpdateKind::kRemoveEdge, u, v, 0};
  }
  static UpdateOp AddVertex(Label label) {
    return {UpdateKind::kAddVertex, 0, 0, label};
  }
  static UpdateOp RemoveVertex(Vertex victim) {
    return {UpdateKind::kRemoveVertex, victim, 0, 0};
  }

  friend bool operator==(const UpdateOp&, const UpdateOp&) = default;
};

/// One atomic unit of change. Applying a batch bumps the graph epoch by
/// exactly one, even when the batch is empty.
struct UpdateBatch {
  std::vector<UpdateOp> ops;

  bool empty() const { return ops.empty(); }
};

/// A replayable sequence of batches.
struct UpdateStream {
  std::vector<UpdateBatch> batches;

  /// Total ops across all batches.
  size_t op_count() const {
    size_t total = 0;
    for (const UpdateBatch& batch : batches) total += batch.ops.size();
    return total;
  }
};

/// Serializes the stream in the format of the file comment.
void WriteUpdateStream(const UpdateStream& stream, std::ostream& out);

/// Saves to a file path. Returns false (and sets *error) on IO failure.
bool SaveUpdateStreamFile(const UpdateStream& stream, const std::string& path,
                          std::string* error);

/// Parses a stream. Returns std::nullopt and fills *error (when non-null)
/// on malformed input; hardened like the graph reader — hostile input
/// produces an error, never UB. Structural validity against a particular
/// graph (edge exists, vertex isolated, ...) is checked at apply time by
/// DynamicGraph, not here.
std::optional<UpdateStream> ReadUpdateStream(std::istream& in,
                                             std::string* error);

/// Loads from a file path.
std::optional<UpdateStream> LoadUpdateStreamFile(const std::string& path,
                                                 std::string* error);

/// Knobs of the seeded stream generator.
struct StreamGenOptions {
  uint32_t batches = 16;
  /// Ops per batch are drawn uniformly from [0, max_ops_per_batch]; a draw
  /// of 0 produces an empty (epoch-only) batch.
  uint32_t max_ops_per_batch = 8;
  /// Relative weights of the op kinds. Edge deletes target existing edges
  /// (including ones the stream itself inserted), vertex deletes target
  /// isolated vertices, so every generated stream replays cleanly.
  double add_edge_weight = 0.55;
  double remove_edge_weight = 0.33;
  double add_vertex_weight = 0.07;
  double remove_vertex_weight = 0.05;
};

/// Generates a stream that is valid against `base`: the generator tracks
/// the live graph state op by op, so every edge delete hits an existing
/// edge, every insert is new, and every vertex delete hits an isolated
/// vertex. Deterministic for a fixed (base, options, PRNG state).
UpdateStream GenerateUpdateStream(const Graph& base,
                                  const StreamGenOptions& options, Prng* prng);

}  // namespace sgm::dynamic

#endif  // SGM_DYNAMIC_UPDATE_BATCH_H_
