#include "sgm/dynamic/dynamic_graph.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace sgm::dynamic {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

uint64_t EdgeKey(Vertex u, Vertex v) {
  const Vertex lo = std::min(u, v);
  const Vertex hi = std::max(u, v);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

bool SortedContains(const std::vector<Vertex>& values, Vertex v) {
  return std::binary_search(values.begin(), values.end(), v);
}

void SortedInsert(std::vector<Vertex>* values, Vertex v) {
  values->insert(std::lower_bound(values->begin(), values->end(), v), v);
}

/// Erases v if present; returns whether it was.
bool SortedErase(std::vector<Vertex>* values, Vertex v) {
  const auto it = std::lower_bound(values->begin(), values->end(), v);
  if (it == values->end() || *it != v) return false;
  values->erase(it);
  return true;
}

}  // namespace

DynamicGraph::DynamicGraph(Graph base)
    : base_(std::make_shared<const Graph>(std::move(base))),
      dead_(base_->vertex_count(), false),
      label_limit_(std::max(base_->label_count(), 1u)),
      edge_count_(base_->edge_count()) {}

Label DynamicGraph::label(Vertex v) const {
  SGM_CHECK(v < vertex_count());
  if (dead_[v]) return tombstone_label();
  if (v < base_->vertex_count()) return base_->label(v);
  return added_labels_[v - base_->vertex_count()];
}

uint32_t DynamicGraph::degree(Vertex v) const {
  SGM_CHECK(v < vertex_count());
  uint32_t degree = v < base_->vertex_count() ? base_->degree(v) : 0;
  if (const VertexDelta* delta = FindDelta(v)) {
    degree += static_cast<uint32_t>(delta->added.size());
    degree -= static_cast<uint32_t>(delta->removed.size());
  }
  return degree;
}

bool DynamicGraph::HasEdge(Vertex u, Vertex v) const {
  SGM_CHECK(u < vertex_count() && v < vertex_count());
  if (u == v) return false;
  if (const VertexDelta* delta = FindDelta(u)) {
    if (SortedContains(delta->added, v)) return true;
    if (SortedContains(delta->removed, v)) return false;
  }
  if (u < base_->vertex_count() && v < base_->vertex_count()) {
    return base_->HasEdge(u, v);
  }
  return false;
}

void DynamicGraph::CopyNeighbors(Vertex v, std::vector<Vertex>* out) const {
  SGM_CHECK(v < vertex_count());
  out->clear();
  const std::span<const Vertex> base_neighbors =
      v < base_->vertex_count() ? base_->neighbors(v)
                                : std::span<const Vertex>();
  const VertexDelta* delta = FindDelta(v);
  if (delta == nullptr) {
    out->assign(base_neighbors.begin(), base_neighbors.end());
    return;
  }
  out->reserve(base_neighbors.size() + delta->added.size());
  // Merge (base − removed) with added; all three inputs are sorted.
  size_t ai = 0;
  size_t ri = 0;
  for (const Vertex w : base_neighbors) {
    if (ri < delta->removed.size() && delta->removed[ri] == w) {
      ++ri;
      continue;
    }
    while (ai < delta->added.size() && delta->added[ai] < w) {
      out->push_back(delta->added[ai++]);
    }
    out->push_back(w);
  }
  while (ai < delta->added.size()) out->push_back(delta->added[ai++]);
}

bool DynamicGraph::ValidateBatch(const UpdateBatch& batch,
                                 std::string* error) const {
  // Scratch simulation of the batch against the current state — records
  // only what the batch itself changes, so validation is O(batch), not
  // O(graph).
  std::unordered_map<uint64_t, bool> edge_override;  // key -> present after op
  std::unordered_map<Vertex, int64_t> degree_delta;
  std::unordered_set<Vertex> killed;
  std::vector<Label> new_labels;

  const uint32_t existing = vertex_count();
  const auto known = [&](Vertex v) {
    return static_cast<uint64_t>(v) <
           existing + static_cast<uint64_t>(new_labels.size());
  };
  const auto live = [&](Vertex v) {
    if (killed.count(v) != 0) return false;
    return v < existing ? !dead_[v] : true;
  };
  const auto edge_present = [&](Vertex u, Vertex v) {
    const auto it = edge_override.find(EdgeKey(u, v));
    if (it != edge_override.end()) return it->second;
    return u < existing && v < existing && HasEdge(u, v);
  };
  const auto sim_degree = [&](Vertex v) -> int64_t {
    int64_t d = v < existing ? static_cast<int64_t>(degree(v)) : 0;
    const auto it = degree_delta.find(v);
    if (it != degree_delta.end()) d += it->second;
    return d;
  };
  const auto fail = [&](size_t index, const std::string& what) {
    const UpdateOp& op = batch.ops[index];
    SetError(error, "op " + std::to_string(index) + " (" +
                        UpdateKindName(op.kind) + "): " + what);
    return false;
  };

  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const UpdateOp& op = batch.ops[i];
    switch (op.kind) {
      case UpdateKind::kAddEdge:
      case UpdateKind::kRemoveEdge: {
        if (!known(op.u) || !known(op.v)) return fail(i, "unknown endpoint");
        if (op.u == op.v) return fail(i, "self loop");
        if (!live(op.u) || !live(op.v)) return fail(i, "dead endpoint");
        const bool present = edge_present(op.u, op.v);
        if (op.kind == UpdateKind::kAddEdge) {
          if (present) return fail(i, "edge already present");
          edge_override[EdgeKey(op.u, op.v)] = true;
          ++degree_delta[op.u];
          ++degree_delta[op.v];
        } else {
          if (!present) return fail(i, "edge not present");
          edge_override[EdgeKey(op.u, op.v)] = false;
          --degree_delta[op.u];
          --degree_delta[op.v];
        }
        break;
      }
      case UpdateKind::kAddVertex:
        if (op.label >= label_limit_) {
          return fail(i, "label outside the fixed vocabulary [0, " +
                             std::to_string(label_limit_) + ")");
        }
        new_labels.push_back(op.label);
        break;
      case UpdateKind::kRemoveVertex:
        if (!known(op.u)) return fail(i, "unknown vertex");
        if (!live(op.u)) return fail(i, "vertex already dead");
        if (sim_degree(op.u) != 0) {
          return fail(i, "vertex not isolated (delete its edges first)");
        }
        killed.insert(op.u);
        break;
    }
  }
  return true;
}

bool DynamicGraph::Apply(const UpdateBatch& batch, std::string* error) {
  if (!ValidateBatch(batch, error)) return false;
  for (const UpdateOp& op : batch.ops) ApplyOp(op);
  BumpEpoch();
  return true;
}

void DynamicGraph::ApplyOp(const UpdateOp& op) {
  switch (op.kind) {
    case UpdateKind::kAddEdge:
      SGM_CHECK(op.u != op.v && alive(op.u) && alive(op.v));
      SGM_CHECK(!HasEdge(op.u, op.v));
      AddHalfEdge(op.u, op.v);
      AddHalfEdge(op.v, op.u);
      ++edge_count_;
      dirty_ = true;
      break;
    case UpdateKind::kRemoveEdge:
      SGM_CHECK(HasEdge(op.u, op.v));
      RemoveHalfEdge(op.u, op.v);
      RemoveHalfEdge(op.v, op.u);
      --edge_count_;
      dirty_ = true;
      break;
    case UpdateKind::kAddVertex:
      SGM_CHECK(op.label < label_limit_);
      added_labels_.push_back(op.label);
      dead_.push_back(false);
      dirty_ = true;
      break;
    case UpdateKind::kRemoveVertex:
      SGM_CHECK(alive(op.u) && degree(op.u) == 0);
      dead_[op.u] = true;
      dirty_ = true;
      break;
  }
}

void DynamicGraph::AddHalfEdge(Vertex from, Vertex to) {
  VertexDelta& delta = overlay_[from];
  // Re-adding a removed base edge cancels the removal instead of growing
  // `added` — the overlay stays a minimal diff against the base.
  if (SortedErase(&delta.removed, to)) return;
  SortedInsert(&delta.added, to);
}

void DynamicGraph::RemoveHalfEdge(Vertex from, Vertex to) {
  VertexDelta& delta = overlay_[from];
  if (SortedErase(&delta.added, to)) return;
  SGM_CHECK(from < base_->vertex_count());
  SortedInsert(&delta.removed, to);
}

const DynamicGraph::VertexDelta* DynamicGraph::FindDelta(Vertex v) const {
  const auto it = overlay_.find(v);
  return it == overlay_.end() ? nullptr : &it->second;
}

Graph DynamicGraph::Snapshot() const {
  const uint32_t count = vertex_count();
  std::vector<Label> labels(count);
  for (Vertex v = 0; v < count; ++v) labels[v] = label(v);

  // Edges row by row, each row's (u, v > u) pairs in ascending v, so they
  // come out in key order and the Graph constructor neither copies nor
  // sorts them. Untouched rows come straight from the base; touched rows
  // (every row past the base is touched, or empty) merge through
  // CopyNeighbors.
  std::vector<Vertex> touched;
  touched.reserve(overlay_.size());
  for (const auto& [v, delta] : overlay_) touched.push_back(v);
  std::sort(touched.begin(), touched.end());
  std::vector<std::pair<Vertex, Vertex>> edges;
  edges.reserve(edge_count_);
  std::vector<Vertex> row;
  auto next_touched = touched.begin();
  for (Vertex u = 0; u < count; ++u) {
    std::span<const Vertex> neighbors;
    if (next_touched != touched.end() && *next_touched == u) {
      ++next_touched;
      CopyNeighbors(u, &row);
      neighbors = row;
    } else if (u < base_->vertex_count()) {
      neighbors = base_->neighbors(u);
    }
    for (auto it = std::upper_bound(neighbors.begin(), neighbors.end(), u);
         it != neighbors.end(); ++it) {
      edges.emplace_back(u, *it);
    }
  }
  SGM_CHECK(edges.size() == edge_count_);
  return Graph(std::move(labels), edges);
}

std::shared_ptr<const Graph> DynamicGraph::SnapshotShared() const {
  if (!dirty_) return base_;
  return std::make_shared<const Graph>(Snapshot());
}

void DynamicGraph::Compact() {
  if (!dirty_) return;
  base_ = std::make_shared<const Graph>(Snapshot());
  overlay_.clear();
  added_labels_.clear();
  dirty_ = false;
  ++compactions_;
  SGM_CHECK(base_->edge_count() == edge_count_);
}

size_t DynamicGraph::OverlayMemoryBytes() const {
  size_t bytes = overlay_.size() *
                 (sizeof(Vertex) + sizeof(VertexDelta) + 2 * sizeof(void*));
  for (const auto& [v, delta] : overlay_) {
    bytes += (delta.added.capacity() + delta.removed.capacity()) *
             sizeof(Vertex);
  }
  bytes += added_labels_.capacity() * sizeof(Label);
  bytes += dead_.capacity() / 8;
  return bytes;
}

}  // namespace sgm::dynamic
