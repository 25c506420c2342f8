// Mutable staging area for constructing Graph instances.
//
// GraphBuilder accepts vertices and edges in any order, silently ignores
// duplicate edges and self loops, and produces a validated immutable Graph.
// It is the construction path used by the generators, the query extractor
// and the tests. (The text reader collects its edges itself and builds
// through the Graph constructor directly.)
#ifndef SGM_GRAPH_GRAPH_BUILDER_H_
#define SGM_GRAPH_GRAPH_BUILDER_H_

#include <unordered_set>
#include <utility>
#include <vector>

#include "sgm/graph/graph.h"

namespace sgm {

/// Incrementally assembles a labeled undirected graph.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Creates a builder with vertex_count vertices, all labeled 0.
  explicit GraphBuilder(uint32_t vertex_count) : labels_(vertex_count, 0) {}

  /// Appends a vertex with the given label; returns its id.
  Vertex AddVertex(Label label);

  /// Sets the label of an existing vertex.
  void SetLabel(Vertex v, Label label);

  /// Adds the undirected edge (u, v). Self loops and duplicates are ignored
  /// (returns false); returns true when the edge is new.
  bool AddEdge(Vertex u, Vertex v);

  /// True iff (u, v) was added before.
  bool HasEdge(Vertex u, Vertex v) const;

  uint32_t vertex_count() const { return static_cast<uint32_t>(labels_.size()); }
  uint32_t edge_count() const { return static_cast<uint32_t>(edges_.size()); }
  Label label(Vertex v) const {
    SGM_CHECK(v < labels_.size());
    return labels_[v];
  }

  /// Finalizes into an immutable Graph. The builder remains usable.
  Graph Build() const;

 private:
  static uint64_t EdgeKey(Vertex u, Vertex v);

  std::vector<Label> labels_;
  std::vector<std::pair<Vertex, Vertex>> edges_;
  std::unordered_set<uint64_t> edge_keys_;
};

}  // namespace sgm

#endif  // SGM_GRAPH_GRAPH_BUILDER_H_
