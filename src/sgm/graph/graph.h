// Immutable labeled undirected graph in compressed-sparse-row (CSR) layout.
//
// This is the shared in-memory representation of both query graphs and data
// graphs (Section 2.1 of the paper): undirected, vertex-labeled, no self
// loops, no parallel edges. Neighbor lists are sorted ascending, so edge
// lookups are binary searches and candidate-adjacency intersections can use
// the kernels in util/set_intersection.h.
//
// Construct instances through GraphBuilder (graph_builder.h) or the loaders
// in graph_io.h; the constructor here validates and finalizes a prepared
// edge list.
#ifndef SGM_GRAPH_GRAPH_H_
#define SGM_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sgm/core/types.h"

namespace sgm {

/// Immutable labeled undirected graph (CSR).
///
/// Invariants (checked at construction):
///  * neighbor lists sorted ascending, no duplicates, no self loops;
///  * labels dense in [0, label_count).
class Graph {
 public:
  /// One (label, count) entry of a vertex's neighbor-label frequency table.
  struct LabelCount {
    Label label;
    uint32_t count;

    friend bool operator==(const LabelCount&, const LabelCount&) = default;
  };

  Graph() = default;

  /// Builds a graph from per-vertex labels and an undirected edge list.
  /// Each edge must appear exactly once (either orientation); duplicate or
  /// self-loop edges are invariant violations. Prefer GraphBuilder, which
  /// deduplicates for you. This is the one CSR builder: an edge list of
  /// strictly increasing (lo, hi) pairs with lo < hi is used without a copy
  /// or a sort; any other order is sorted as (lo << 32 | hi) keys first.
  Graph(std::vector<Label> labels, std::span<const std::pair<Vertex, Vertex>> edges);

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Number of vertices.
  uint32_t vertex_count() const { return vertex_count_; }
  /// Number of undirected edges.
  uint32_t edge_count() const { return edge_count_; }
  /// Number of distinct labels (labels are dense in [0, label_count)).
  uint32_t label_count() const { return label_count_; }
  /// Largest vertex degree.
  uint32_t max_degree() const { return max_degree_; }
  /// Size of the largest label class (used by ordering heuristics).
  uint32_t max_label_frequency() const { return max_label_frequency_; }
  /// Average degree 2|E|/|V|.
  double average_degree() const {
    return vertex_count_ == 0
               ? 0.0
               : 2.0 * static_cast<double>(edge_count_) / vertex_count_;
  }

  Label label(Vertex v) const {
    SGM_CHECK(v < vertex_count_);
    return labels_[v];
  }

  uint32_t degree(Vertex v) const {
    SGM_CHECK(v < vertex_count_);
    return offsets_[v + 1] - offsets_[v];
  }

  /// Sorted neighbor list of v.
  std::span<const Vertex> neighbors(Vertex v) const {
    SGM_CHECK(v < vertex_count_);
    return {neighbors_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// True iff the undirected edge (u, v) exists. O(log d) binary search.
  bool HasEdge(Vertex u, Vertex v) const;

  /// Sorted list of vertices carrying the given label.
  std::span<const Vertex> VerticesWithLabel(Label l) const {
    SGM_CHECK(l < label_count_);
    return {vertices_by_label_.data() + label_offsets_[l],
            label_offsets_[l + 1] - label_offsets_[l]};
  }

  /// Number of vertices carrying the given label.
  uint32_t LabelFrequency(Label l) const {
    SGM_CHECK(l < label_count_);
    return label_offsets_[l + 1] - label_offsets_[l];
  }

  /// Neighbor-label frequency table of v: sorted by label, one entry per
  /// distinct neighbor label. Powers the NLF filter (Section 3.1.1).
  std::span<const LabelCount> NeighborLabelFrequency(Vertex v) const {
    SGM_CHECK(v < vertex_count_);
    return {nlf_data_.data() + nlf_offsets_[v],
            nlf_offsets_[v + 1] - nlf_offsets_[v]};
  }

  /// Number of neighbors of v with the given label (0 if none).
  uint32_t NeighborCountWithLabel(Vertex v, Label l) const;

  /// Approximate heap footprint in bytes (for the memory metrics in §5.6).
  size_t MemoryBytes() const;

 private:
  uint32_t vertex_count_ = 0;
  uint32_t edge_count_ = 0;
  uint32_t label_count_ = 0;
  uint32_t max_degree_ = 0;
  uint32_t max_label_frequency_ = 0;

  std::vector<uint32_t> offsets_;    // size vertex_count_ + 1
  std::vector<Vertex> neighbors_;    // size 2 * edge_count_
  std::vector<Label> labels_;        // size vertex_count_

  // Label index: vertices grouped by label.
  std::vector<uint32_t> label_offsets_;     // size label_count_ + 1
  std::vector<Vertex> vertices_by_label_;   // size vertex_count_

  // Per-vertex neighbor-label frequency in CSR layout, sorted by label.
  std::vector<uint32_t> nlf_offsets_;  // size vertex_count_ + 1
  std::vector<LabelCount> nlf_data_;
};

}  // namespace sgm

#endif  // SGM_GRAPH_GRAPH_H_
