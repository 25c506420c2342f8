#include "sgm/graph/graph.h"

#include <algorithm>

namespace sgm {

namespace {

uint64_t EdgeKey(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

Graph::Graph(std::vector<Label> labels,
             std::span<const std::pair<Vertex, Vertex>> edges)
    : vertex_count_(static_cast<uint32_t>(labels.size())),
      edge_count_(static_cast<uint32_t>(edges.size())),
      labels_(std::move(labels)) {
  // Validation and degree counting pass. The edges are kept as sorted
  // (lo << 32 | hi) keys; a list that already comes as strictly increasing
  // (lo, hi) pairs — what the text reader and DynamicGraph::Snapshot emit —
  // is read in place, with no copy and no sort.
  offsets_.assign(vertex_count_ + 1, 0);
  bool sorted = true;
  uint64_t previous = 0;
  for (size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = edges[i];
    SGM_CHECK(u < vertex_count_ && v < vertex_count_);
    SGM_CHECK_MSG(u != v, "self loops are not allowed");
    ++offsets_[u + 1];
    ++offsets_[v + 1];
    const uint64_t key = EdgeKey(u, v);
    if (u > v || (i > 0 && key <= previous)) sorted = false;
    previous = key;
  }
  for (uint32_t v = 0; v < vertex_count_; ++v) {
    max_degree_ = std::max(max_degree_, offsets_[v + 1]);
    offsets_[v + 1] += offsets_[v];
  }
  std::vector<uint64_t> keys;
  if (!sorted) {
    keys.reserve(edges.size());
    for (const auto& [u, v] : edges) keys.push_back(EdgeKey(u, v));
    std::sort(keys.begin(), keys.end());
    SGM_CHECK_MSG(std::adjacent_find(keys.begin(), keys.end()) == keys.end(),
                  "parallel edges are not allowed");
  }

  // Fill pass in key order. Row v first receives its smaller neighbors (from
  // the keys (w, v), ordered by w) and then its larger ones (from the keys
  // (v, w), ordered by w), so every row comes out sorted.
  neighbors_.resize(2ULL * edge_count_);
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t i = 0; i < edges.size(); ++i) {
    const uint64_t key = sorted ? EdgeKey(edges[i].first, edges[i].second)
                                : keys[i];
    const auto lo = static_cast<Vertex>(key >> 32);
    const auto hi = static_cast<Vertex>(key);
    neighbors_[cursor[lo]++] = hi;
    neighbors_[cursor[hi]++] = lo;
  }
  keys = {};

  // Label index.
  for (const Label l : labels_) {
    SGM_CHECK_MSG(l != kInvalidLabel, "invalid label");
    label_count_ = std::max(label_count_, l + 1);
  }
  label_offsets_.assign(label_count_ + 1, 0);
  for (const Label l : labels_) ++label_offsets_[l + 1];
  for (uint32_t l = 0; l < label_count_; ++l) {
    max_label_frequency_ = std::max(max_label_frequency_, label_offsets_[l + 1]);
    label_offsets_[l + 1] += label_offsets_[l];
  }
  vertices_by_label_.resize(vertex_count_);
  cursor.assign(label_offsets_.begin(), label_offsets_.end() - 1);
  for (Vertex v = 0; v < vertex_count_; ++v) {
    vertices_by_label_[cursor[labels_[v]]++] = v;
  }

  // Neighbor-label frequency tables. A row's labels are counted in dense
  // per-label counters and read out in label order by sorting just the
  // row's distinct labels. A first pass sizes every row, so nlf_data_ is
  // allocated exactly.
  std::vector<uint32_t> label_counts(label_count_, 0);
  std::vector<Label> row_labels;
  const auto count_row = [&](Vertex v) {
    for (const Vertex w : neighbors(v)) {
      if (label_counts[labels_[w]]++ == 0) row_labels.push_back(labels_[w]);
    }
  };
  nlf_offsets_.assign(vertex_count_ + 1, 0);
  for (Vertex v = 0; v < vertex_count_; ++v) {
    count_row(v);
    nlf_offsets_[v + 1] =
        nlf_offsets_[v] + static_cast<uint32_t>(row_labels.size());
    for (const Label l : row_labels) label_counts[l] = 0;
    row_labels.clear();
  }
  nlf_data_.resize(nlf_offsets_[vertex_count_]);
  for (Vertex v = 0; v < vertex_count_; ++v) {
    count_row(v);
    LabelCount* out = nlf_data_.data() + nlf_offsets_[v];
    std::sort(row_labels.begin(), row_labels.end());
    for (const Label l : row_labels) {
      *out++ = {l, label_counts[l]};
      label_counts[l] = 0;
    }
    row_labels.clear();
  }
}

bool Graph::HasEdge(Vertex u, Vertex v) const {
  SGM_CHECK(u < vertex_count_ && v < vertex_count_);
  // Search the shorter list.
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

uint32_t Graph::NeighborCountWithLabel(Vertex v, Label l) const {
  const auto nlf = NeighborLabelFrequency(v);
  const auto it = std::lower_bound(
      nlf.begin(), nlf.end(), l,
      [](const LabelCount& entry, Label value) { return entry.label < value; });
  if (it == nlf.end() || it->label != l) return 0;
  return it->count;
}

size_t Graph::MemoryBytes() const {
  return offsets_.capacity() * sizeof(uint32_t) +
         neighbors_.capacity() * sizeof(Vertex) +
         labels_.capacity() * sizeof(Label) +
         label_offsets_.capacity() * sizeof(uint32_t) +
         vertices_by_label_.capacity() * sizeof(Vertex) +
         nlf_offsets_.capacity() * sizeof(uint32_t) +
         nlf_data_.capacity() * sizeof(LabelCount);
}

}  // namespace sgm
