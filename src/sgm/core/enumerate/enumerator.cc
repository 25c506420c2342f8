#include "sgm/core/enumerate/enumerator.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "sgm/core/enumerate/enumeration_engine.h"
#include "sgm/core/filter/filter.h"
#include "sgm/util/bitmap_intersection.h"
#include "sgm/util/qfilter.h"
#include "sgm/util/timer.h"

namespace sgm {

const char* LocalCandidateMethodName(LocalCandidateMethod method) {
  switch (method) {
    case LocalCandidateMethod::kNeighborScan:
      return "neighbor-scan";
    case LocalCandidateMethod::kCandidateScan:
      return "candidate-scan";
    case LocalCandidateMethod::kPivotIndex:
      return "pivot-index";
    case LocalCandidateMethod::kIntersect:
      return "intersect";
  }
  return "unknown";
}

EnumerationEngine::EnumerationEngine(
    const Graph& query, const Graph& data, const CandidateSets& candidates,
    const AuxStructure* aux, std::span<const Vertex> order,
    const EnumerateOptions& options, const DpisoWeights* weights,
    MatchCallback callback)
    : query_(query),
      data_(data),
      candidates_(candidates),
      aux_(aux),
      order_(order.begin(), order.end()),
      options_(options),
      weights_(weights),
      callback_(std::move(callback)),
      n_(query.vertex_count()),
      slice_end_(options.root_slice_end) {
  SGM_CHECK(n_ >= 1 && n_ <= kMaxQueryVertices);
  SGM_CHECK(order.size() == n_);
  full_mask_ = QuerySetFull(n_);

  position_.assign(n_, 0);
  for (uint32_t i = 0; i < n_; ++i) position_[order_[i]] = i;

  // Backward neighbors (w.r.t. the order), their masks, and pivots.
  backward_neighbors_.assign(n_, {});
  backward_mask_.assign(n_, 0);
  pivot_.assign(n_, kInvalidVertex);
  for (Vertex u = 0; u < n_; ++u) {
    uint32_t best_pos = std::numeric_limits<uint32_t>::max();
    for (const Vertex w : query_.neighbors(u)) {
      if (position_[w] < position_[u]) {
        backward_neighbors_[u].push_back(w);
        backward_mask_[u] |= QuerySetBit(w);
        if (position_[w] < best_pos) {
          best_pos = position_[w];
          pivot_[u] = w;
        }
      }
    }
    if (options_.lc_method == LocalCandidateMethod::kPivotIndex &&
        !backward_neighbors_[u].empty()) {
      // The pivot must carry a candidate-adjacency index (a tree edge of
      // q_t). Prefer the earliest such backward neighbor.
      SGM_CHECK_MSG(aux_ != nullptr, "pivot-index needs an aux structure");
      Vertex indexed = kInvalidVertex;
      uint32_t indexed_pos = std::numeric_limits<uint32_t>::max();
      for (const Vertex w : backward_neighbors_[u]) {
        if (aux_->HasIndex(w, u) && position_[w] < indexed_pos) {
          indexed_pos = position_[w];
          indexed = w;
        }
      }
      SGM_CHECK_MSG(indexed != kInvalidVertex,
                    "pivot-index requires an indexed backward edge per vertex");
      pivot_[u] = indexed;
    }
  }
  if (options_.lc_method == LocalCandidateMethod::kIntersect) {
    SGM_CHECK_MSG(aux_ != nullptr, "intersect needs an aux structure");
  }

  mapping_.assign(n_, kInvalidVertex);
  inverse_.assign(data_.vertex_count(), kInvalidVertex);
  lc_buffer_.assign(n_, {});
  backward_lists_.reserve(n_);
  backward_index_.reserve(n_);
  bitmap_rows_.reserve(n_);
  lc_cache_.resize(n_);

  if (options_.vf2pp_lookahead) {
    // Forward-neighbor label requirements per query vertex.
    forward_label_counts_.assign(n_, {});
    for (Vertex u = 0; u < n_; ++u) {
      std::vector<std::pair<Label, uint32_t>> counts;
      for (const Vertex w : query_.neighbors(u)) {
        if (position_[w] > position_[u]) {
          bool found = false;
          for (auto& [l, c] : counts) {
            if (l == query_.label(w)) {
              ++c;
              found = true;
            }
          }
          if (!found) counts.emplace_back(query_.label(w), 1);
        }
      }
      forward_label_counts_[u] = std::move(counts);
    }
  }

  if (options_.adaptive_order) {
    SGM_CHECK_MSG(weights_ != nullptr && !weights_->empty(),
                  "adaptive ordering needs DP-iso weights");
    SGM_CHECK_MSG(options_.lc_method == LocalCandidateMethod::kIntersect,
                  "adaptive ordering requires the intersect method");
    unmapped_backward_.assign(n_, 0);
    adaptive_lc_.assign(n_, {});
    adaptive_lc_valid_.assign(n_, 0);
    adaptive_weight_.assign(n_, 0.0);
    for (Vertex u = 0; u < n_; ++u) {
      unmapped_backward_[u] =
          static_cast<uint32_t>(backward_neighbors_[u].size());
      if (unmapped_backward_[u] == 0) MakeExtendable(u);
    }
  }

  profile_ = options_.depth_profile;
  if (profile_ != nullptr) profile_->Resize(n_);
}

void EnumerationEngine::Reset() {
  // Backtracking restores the scratch state even on abort, so this scan
  // normally finds nothing; it exists so a future mid-search suspension
  // cannot leak mappings into the next run.
  bool dirty = false;
  for (Vertex u = 0; u < n_; ++u) {
    if (mapping_[u] != kInvalidVertex) {
      inverse_[mapping_[u]] = kInvalidVertex;
      mapping_[u] = kInvalidVertex;
      dirty = true;
    }
  }
  aborted_ = false;
  current_root_image_ = kInvalidVertex;
  mapped_mask_ = 0;
  if (options_.adaptive_order && dirty) {
    extendable_mask_ = 0;
    for (Vertex u = 0; u < n_; ++u) {
      unmapped_backward_[u] =
          static_cast<uint32_t>(backward_neighbors_[u].size());
    }
    for (Vertex u = 0; u < n_; ++u) {
      if (unmapped_backward_[u] == 0) MakeExtendable(u);
    }
  }
  // lc_cache_ deliberately survives: its key (u, backward images) stays
  // sound across runs, and per-worker engines profit from the warm entries.
}

void EnumerationEngine::RunSlice(uint32_t begin, uint32_t end) {
  if (aborted_ || n_ == 0 || candidates_.AnyEmpty()) return;
  slice_depth_ = 0;
  slice_begin_ = begin;
  slice_end_ = end;
  Explore(0);
}

void EnumerationEngine::RunSubtree(Vertex root_image, uint32_t d1_begin,
                                   uint32_t d1_end) {
  if (aborted_ || n_ < 2 || candidates_.AnyEmpty()) return;
  const Vertex u0 = SelectVertex(0);
  SGM_CHECK(inverse_[root_image] == kInvalidVertex);
  mapping_[u0] = root_image;
  inverse_[root_image] = u0;
  mapped_mask_ |= QuerySetBit(u0);
  current_root_image_ = root_image;
  OnMapped(u0);
  slice_depth_ = 1;
  slice_begin_ = d1_begin;
  slice_end_ = d1_end;
  Explore(1);
  OnUnmapped(u0);
  inverse_[root_image] = kInvalidVertex;
  mapping_[u0] = kInvalidVertex;
  mapped_mask_ &= ~QuerySetBit(u0);
  current_root_image_ = kInvalidVertex;
  slice_depth_ = 0;
}

EnumerateStats EnumerationEngine::Run() {
  timer_.Reset();
  profile_last_ms_ = 0.0;
  RunSlice(0, options_.root_slice_end);
  stats_.enumeration_ms = timer_.ElapsedMillis();
  return stats_;
}

// ---- Adaptive-order bookkeeping (DP-iso). ----

void EnumerationEngine::MakeExtendable(Vertex u) {
  // Only the *weight* of LC(u, M) is needed until u is actually selected;
  // the list itself is materialized lazily (MaterializeAdaptiveLc), which
  // spares the per-vertex copies for vertices that never win the selection.
  extendable_mask_ |= QuerySetBit(u);
  adaptive_lc_valid_[u] = 0;
  adaptive_weight_[u] = ComputeExtendableWeight(u);
}

// Sum of the DP-iso weights over `subset`, a sorted subset of C(u): a
// resumed merge walk recovers each member's candidate index in one pass,
// without per-element binary searches.
static double WeightSumOverSubset(const DpisoWeights& weights, Vertex u,
                                  std::span<const Vertex> cands,
                                  std::span<const Vertex> subset) {
  double sum = 0.0;
  size_t pos = 0;
  for (const Vertex v : subset) {
    while (cands[pos] != v) ++pos;
    sum += weights.WeightByIndex(u, static_cast<uint32_t>(pos));
    ++pos;
  }
  return sum;
}

double EnumerationEngine::ComputeExtendableWeight(Vertex u) {
  double uniform = 0.0;
  const bool is_uniform = weights_->UniformWeight(u, &uniform);
  const auto& backward = backward_neighbors_[u];
  if (backward.empty()) {
    if (is_uniform) return uniform * candidates_.Count(u);
    double sum = 0.0;
    for (uint32_t i = 0; i < candidates_.Count(u); ++i) {
      sum += weights_->WeightByIndex(u, i);
    }
    return sum;
  }
  if (backward.size() == 1) {
    const auto list =
        aux_->NeighborsOfVertex(backward[0], mapping_[backward[0]], u);
    if (is_uniform) return uniform * static_cast<double>(list.size());
    return WeightSumOverSubset(*weights_, u, candidates_.candidates(u), list);
  }
  if (is_uniform) {
    // Uniform weights collapse the sum to value × |LC(u, M)|, served by
    // count-only kernels with nothing materialized: a popcount-only bitmap
    // multi-AND when sidecars exist, else the SIMD count intersection.
    if (WantBitmapIntersection(u) && FillBackwardIndexes(u)) {
      const uint32_t stride = aux_->BitmapStride(backward[0], u);
      bitmap_rows_.clear();
      for (size_t i = 0; i < backward.size(); ++i) {
        bitmap_rows_.push_back(
            aux_->BitmapByIndex(backward[i], backward_index_[i], u).data());
      }
      ++stats_.bitmap_intersections;
      return uniform *
             static_cast<double>(BitmapMultiAndCount(bitmap_rows_, stride));
    }
    if (backward.size() == 2) {
      const auto a =
          aux_->NeighborsOfVertex(backward[0], mapping_[backward[0]], u);
      const auto b =
          aux_->NeighborsOfVertex(backward[1], mapping_[backward[1]], u);
      return uniform * static_cast<double>(IntersectQFilterCount(a, b));
    }
  }
  // General case: materialize into the shared scratch — still no
  // per-vertex adaptive_lc_ allocation.
  ComputeIntersectionLc(u, &weight_scratch_);
  if (is_uniform) return uniform * static_cast<double>(weight_scratch_.size());
  return WeightSumOverSubset(*weights_, u, candidates_.candidates(u),
                             weight_scratch_);
}

void EnumerationEngine::MaterializeAdaptiveLc(Vertex u) {
  if (adaptive_lc_valid_[u]) return;
  // Sound because the backward images cannot change while u stays
  // extendable: they were all mapped when MakeExtendable ran, and unmapping
  // any of them retracts u from the extendable set first.
  auto& lc = adaptive_lc_[u];
  lc.clear();
  if (backward_neighbors_[u].empty()) {
    const auto cands = candidates_.candidates(u);
    lc.assign(cands.begin(), cands.end());
  } else {
    ComputeIntersectionLc(u, &lc);
  }
  adaptive_lc_valid_[u] = 1;
}

void EnumerationEngine::OnMapped(Vertex u) {
  if (!options_.adaptive_order) return;
  for (const Vertex w : query_.neighbors(u)) {
    if (position_[w] > position_[u]) {
      if (--unmapped_backward_[w] == 0) MakeExtendable(w);
    }
  }
}

void EnumerationEngine::OnUnmapped(Vertex u) {
  if (!options_.adaptive_order) return;
  for (const Vertex w : query_.neighbors(u)) {
    if (position_[w] > position_[u]) {
      if (unmapped_backward_[w]++ == 0) {
        extendable_mask_ &= ~QuerySetBit(w);
      }
    }
  }
}

// Selects the next query vertex to extend (line 6 of Algorithm 1).
Vertex EnumerationEngine::SelectVertex(uint32_t depth) {
  if (!options_.adaptive_order) return order_[depth];
  Vertex best = kInvalidVertex;
  double best_weight = std::numeric_limits<double>::infinity();
  // Walk only the extendable-and-unmapped bits; ascending bit order keeps
  // the historical lowest-index tie-break (strict <) intact.
  QueryVertexSet pending = extendable_mask_ & ~mapped_mask_;
  while (pending != 0) {
    const Vertex u = static_cast<Vertex>(std::countr_zero(pending));
    pending &= pending - 1;
    if (adaptive_weight_[u] < best_weight) {
      best_weight = adaptive_weight_[u];
      best = u;
    }
  }
  SGM_CHECK_MSG(best != kInvalidVertex, "no extendable vertex");
  return best;
}

// ---- Local candidate computation (Algorithms 2-5). ----

bool EnumerationEngine::WantBitmapIntersection(Vertex u) const {
  const IntersectionMethod method = options_.intersection;
  if (method != IntersectionMethod::kBitmap &&
      method != IntersectionMethod::kAuto) {
    return false;
  }
  if (aux_ == nullptr) return false;
  const auto& backward = backward_neighbors_[u];
  for (const Vertex w : backward) {
    if (!aux_->HasBitmap(w, u)) return false;
  }
  return !backward.empty();
}

bool EnumerationEngine::FillBackwardIndexes(Vertex u) {
  const auto& backward = backward_neighbors_[u];
  backward_index_.clear();
  for (const Vertex w : backward) {
    const uint32_t index = candidates_.IndexOf(w, mapping_[w]);
    if (index >= candidates_.Count(w)) return false;
    backward_index_.push_back(index);
  }
  return true;
}

// Intersects the candidate-adjacency lists of all backward neighbors of u
// into *out (Algorithm 5 with more than one backward neighbor).
void EnumerationEngine::ComputeIntersectionLc(Vertex u,
                                              std::vector<Vertex>* out) {
  const auto& backward = backward_neighbors_[u];
  SGM_CHECK(!backward.empty());
  if (backward.size() == 1) {
    const auto list =
        aux_->NeighborsOfVertex(backward[0], mapping_[backward[0]], u);
    out->assign(list.begin(), list.end());
    return;
  }
  backward_lists_.clear();
  if (WantBitmapIntersection(u) && FillBackwardIndexes(u)) {
    const uint32_t stride = aux_->BitmapStride(backward[0], u);
    bool use_bitmaps = true;
    if (options_.intersection == IntersectionMethod::kAuto) {
      // The word-wise AND touches `stride` words per operand regardless of
      // selectivity; take it only when that fixed cost undercuts walking
      // the smallest sorted list, else fall through to the merge kernels.
      // The spans are resolved through the already-computed indexes (cheap
      // CSR offset lookups) and kept for the fallback below, so a rejected
      // bitmap costs no second binary search per list.
      size_t smallest_list = std::numeric_limits<size_t>::max();
      for (size_t i = 0; i < backward.size(); ++i) {
        backward_lists_.push_back(
            aux_->NeighborsByIndex(backward[i], backward_index_[i], u));
        smallest_list = std::min(smallest_list, backward_lists_.back().size());
      }
      // One AND+popcount step consumes a 64-bit word per cycle while the
      // merge kernels advance roughly one element per comparison, so a
      // stride word is worth several walked elements; 8 keeps auto on
      // the bitmap side of the crossover measured on the bench analogs
      // without losing to the sorted kernels on the sparse ones.
      use_bitmaps = stride <= 8 * smallest_list;
    }
    if (use_bitmaps) {
      bitmap_rows_.clear();
      for (size_t i = 0; i < backward.size(); ++i) {
        bitmap_rows_.push_back(
            aux_->BitmapByIndex(backward[i], backward_index_[i], u).data());
      }
      bitmap_scratch_.resize(stride);
      const uint64_t count =
          BitmapMultiAnd(bitmap_rows_, stride, bitmap_scratch_.data());
      ++stats_.bitmap_intersections;
      out->clear();
      if (count > 0) {
        out->reserve(count);
        // Bit i of the result is the i-th candidate of C(u), so decoding
        // against the candidate array yields the sorted LC directly.
        BitmapDecode({bitmap_scratch_.data(), stride},
                     candidates_.candidates(u), out);
      }
      return;
    }
  }
  // Fetch every backward adjacency list exactly once (each lookup is a
  // binary search in C(w), unless the auto path above resolved the spans
  // already), then start from the smallest to bound the intersection cost.
  if (backward_lists_.empty()) {
    for (const Vertex w : backward) {
      backward_lists_.push_back(aux_->NeighborsOfVertex(w, mapping_[w], u));
    }
  }
  size_t smallest = 0;
  for (size_t i = 1; i < backward_lists_.size(); ++i) {
    if (backward_lists_[i].size() < backward_lists_[smallest].size()) {
      smallest = i;
    }
  }
  out->assign(backward_lists_[smallest].begin(),
              backward_lists_[smallest].end());
  for (size_t i = 0; i < backward_lists_.size(); ++i) {
    if (i == smallest) continue;
    Intersect(options_.intersection, *out, backward_lists_[i],
              &intersect_scratch_);
    out->swap(intersect_scratch_);
    if (out->empty()) return;
  }
}

// VF2++ look-ahead: every forward-neighbor label class of u must have
// enough unmapped neighbors around v.
bool EnumerationEngine::PassesVf2ppLookahead(Vertex u, Vertex v) {
  const auto& required = forward_label_counts_[u];
  if (required.empty()) return true;
  for (const auto& [label, count] : required) {
    uint32_t available = 0;
    for (const Vertex w : data_.neighbors(v)) {
      if (inverse_[w] == kInvalidVertex && data_.label(w) == label &&
          ++available >= count) {
        break;
      }
    }
    if (available < count) return false;
  }
  return true;
}

// Computes LC(u, M) at the given depth into a span valid until the next
// ComputeLocalCandidates call at the same depth.
std::span<const Vertex> EnumerationEngine::ComputeLocalCandidates(
    Vertex u, uint32_t depth) {
  lc_lookahead_dropped_ = false;
  if (options_.adaptive_order) {
    // The weight was computed when u became extendable; the list itself is
    // materialized here, the first time u is actually selected (and stays
    // valid while u remains extendable; see DESIGN.md).
    MaterializeAdaptiveLc(u);
    return adaptive_lc_[u];
  }
  const auto& backward = backward_neighbors_[u];
  if (depth == 0 || backward.empty()) return candidates_.candidates(u);

  auto& buffer = lc_buffer_[depth];
  buffer.clear();
  switch (options_.lc_method) {
    case LocalCandidateMethod::kNeighborScan: {
      // Algorithm 2: scan the neighbors of the pivot's image.
      const Vertex pivot = pivot_[u];
      for (const Vertex v : data_.neighbors(mapping_[pivot])) {
        const bool admissible =
            options_.restrict_neighbor_scan_to_candidates
                ? candidates_.Contains(u, v)
                : PassesLdf(query_, data_, u, v);
        if (!admissible) continue;
        bool ok = true;
        for (const Vertex w : backward) {
          if (w != pivot && !data_.HasEdge(v, mapping_[w])) {
            ok = false;
            break;
          }
        }
        if (ok && options_.vf2pp_lookahead && !PassesVf2ppLookahead(u, v)) {
          ok = false;
          lc_lookahead_dropped_ = true;
        }
        if (ok) buffer.push_back(v);
      }
      break;
    }
    case LocalCandidateMethod::kCandidateScan: {
      // Algorithm 3: scan C(u) and verify every backward edge.
      for (const Vertex v : candidates_.candidates(u)) {
        bool ok = true;
        for (const Vertex w : backward) {
          if (!data_.HasEdge(v, mapping_[w])) {
            ok = false;
            break;
          }
        }
        if (ok) buffer.push_back(v);
      }
      break;
    }
    case LocalCandidateMethod::kPivotIndex: {
      // Algorithm 4: pivot list from A, remaining edges against G.
      const Vertex pivot = pivot_[u];
      const auto base = aux_->NeighborsOfVertex(pivot, mapping_[pivot], u);
      if (backward.size() == 1) return base;
      for (const Vertex v : base) {
        bool ok = true;
        for (const Vertex w : backward) {
          if (w != pivot && !data_.HasEdge(v, mapping_[w])) {
            ok = false;
            break;
          }
        }
        if (ok) buffer.push_back(v);
      }
      break;
    }
    case LocalCandidateMethod::kIntersect: {
      // Algorithm 5: set intersections over A.
      if (backward.size() == 1) {
        return aux_->NeighborsOfVertex(backward[0], mapping_[backward[0]], u);
      }
      if (options_.use_lc_cache) {
        // LC(u, M) here depends only on (u, images of u's backward
        // neighbors): when a sibling subtree left the same key at this
        // depth — common when the vertex extended in between is not a
        // backward neighbor of u — the intersection is skipped entirely.
        LcCacheEntry& entry = lc_cache_[depth];
        bool hit = entry.u == u;
        if (hit) {
          for (size_t i = 0; i < backward.size(); ++i) {
            if (entry.images[i] != mapping_[backward[i]]) {
              hit = false;
              break;
            }
          }
        }
        if (hit) {
          ++stats_.lc_cache_hits;
          return entry.lc;
        }
        ++stats_.lc_cache_misses;
        entry.u = u;
        entry.images.resize(backward.size());
        for (size_t i = 0; i < backward.size(); ++i) {
          entry.images[i] = mapping_[backward[i]];
        }
        ComputeIntersectionLc(u, &entry.lc);
        return entry.lc;
      }
      ComputeIntersectionLc(u, &buffer);
      break;
    }
  }
  return buffer;
}

// ---- The search (lines 4-12 of Algorithm 1). ----

// Explores all extensions of the current partial match. Returns the
// failing set of this subtree (meaningful only when failing sets are on).
QueryVertexSet EnumerationEngine::Explore(uint32_t depth) {
  ++stats_.recursion_calls;
  if (profile_ != nullptr) ++profile_->depths[depth].recursion_calls;
  if ((stats_.recursion_calls & 1023) == 0) {
    if (options_.time_limit_ms > 0 || profile_ != nullptr) {
      const double now_ms = timer_.ElapsedMillis();
      if (options_.time_limit_ms > 0 && now_ms > options_.time_limit_ms) {
        aborted_ = true;
        stats_.timed_out = true;
      }
      if (profile_ != nullptr) {
        // Sampled time attribution: charge the wall time since the last
        // checkpoint to the depth active now. Unbiased over long runs; runs
        // shorter than 1024 calls leave sampled_ms at zero.
        profile_->depths[depth].sampled_ms += now_ms - profile_last_ms_;
        profile_last_ms_ = now_ms;
      }
    }
    if (options_.cancel_flag != nullptr &&
        options_.cancel_flag->load(std::memory_order_relaxed)) {
      aborted_ = true;
    }
  }
  if (aborted_) return full_mask_;

  const Vertex u = SelectVertex(depth);
  auto local_candidates = ComputeLocalCandidates(u, depth);
  // When the VF2++ lookahead dropped a candidate, LC(u, M) depended on the
  // whole mapping — the lookahead counts unmapped data neighbors, so any
  // ancestor's image can exclude a candidate here. The failure of this node
  // must then be attributed to every mapped vertex, or a failing-set prune
  // above could skip a sibling under which the dropped candidate survives.
  const QueryVertexSet lc_extra_mask =
      lc_lookahead_dropped_ ? mapped_mask_ : 0;
  size_t offset = 0;
  if (depth == slice_depth_) {
    const auto begin = std::min<size_t>(slice_begin_, local_candidates.size());
    const auto end = std::min<size_t>(slice_end_, local_candidates.size());
    local_candidates = local_candidates.subspan(begin, end - begin);
    offset = begin;
  }
  stats_.local_candidates_scanned += local_candidates.size();
  if (profile_ != nullptr) {
    profile_->depths[depth].local_candidates += local_candidates.size();
  }

  if (local_candidates.empty()) {
    if (profile_ != nullptr) ++profile_->depths[depth].empty_local_candidates;
    // "Emptyset class" failing set: u and its mapped neighbors.
    return QuerySetBit(u) | backward_mask_[u] | lc_extra_mask;
  }

  QueryVertexSet node_set = 0;
  size_t limit = local_candidates.size();
  bool donated = false;
  for (size_t i = 0; i < limit; ++i) {
    if (depth == 1 && split_hook_ && i + 1 < limit) {
      // Work-stealing endgame: offer the depth-1 candidates we have not
      // started yet as stealable subtasks. Indices are absolute within the
      // full depth-1 list, so a thief recomputes the identical list and
      // takes exactly the donated window.
      const uint32_t kept =
          split_hook_(current_root_image_, static_cast<uint32_t>(offset + i + 1),
                      static_cast<uint32_t>(offset + limit));
      if (kept < offset + limit) {
        donated = true;
        limit = kept - offset;
      }
    }
    const Vertex v = local_candidates[i];
    QueryVertexSet child_set;
    if (inverse_[v] != kInvalidVertex) {
      // Injectivity conflict: the failure involves u and the query vertex
      // already holding v ("conflict class").
      if (profile_ != nullptr) ++profile_->depths[depth].conflicts;
      child_set = QuerySetBit(u) | QuerySetBit(inverse_[v]);
    } else {
      mapping_[u] = v;
      inverse_[v] = u;
      mapped_mask_ |= QuerySetBit(u);
      if (depth == 0) current_root_image_ = v;
      OnMapped(u);
      if (depth + 1 == n_) {
        if (profile_ != nullptr) ++profile_->depths[depth].matches;
        RecordMatch();
        child_set = full_mask_;
      } else {
        child_set = Explore(depth + 1);
      }
      OnUnmapped(u);
      inverse_[v] = kInvalidVertex;
      mapping_[u] = kInvalidVertex;
      mapped_mask_ &= ~QuerySetBit(u);
    }
    if (aborted_) return full_mask_;
    if (options_.use_failing_sets) {
      if (!QuerySetContains(child_set, u)) {
        // The failure did not involve u: re-binding u cannot help, skip
        // the remaining siblings (Example 3.5). Donated siblings provably
        // fail too, so the set stays valid even after a split.
        stats_.failing_set_prunes += limit - i - 1;
        if (profile_ != nullptr) {
          profile_->depths[depth].failing_set_prunes += limit - i - 1;
        }
        return child_set;
      }
      node_set |= child_set;
    }
  }
  // When part of this node's children were donated to thieves, we cannot
  // claim the node failed — a donated subtree may still contain matches —
  // so return the full mask, which never prunes anything above.
  if (donated) return full_mask_;
  // Every extension of u failed for u-dependent reasons. The node's
  // failure additionally depends on u's mapped neighbors: they determine
  // LC(u, M), so a different assignment of one of them could surface a
  // fresh candidate. Their bits must stay in the failing set (this is why
  // DP-iso uses ancestor sets).
  return node_set | QuerySetBit(u) | backward_mask_[u] | lc_extra_mask;
}

void EnumerationEngine::RecordMatch() {
  // Delivered-match semantics: the match is counted even when the callback
  // vetoes it — the veto stops the search *after* this delivery. The
  // parallel path implements the same rule (see parallel_enumerate.cc).
  ++stats_.match_count;
  if (callback_ && !callback_(mapping_)) aborted_ = true;
  if (options_.max_matches > 0 && stats_.match_count >= options_.max_matches) {
    aborted_ = true;
    stats_.reached_match_limit = true;
  }
}

EnumerateStats Enumerate(const Graph& query, const Graph& data,
                         const CandidateSets& candidates,
                         const AuxStructure* aux,
                         std::span<const Vertex> order,
                         const EnumerateOptions& options,
                         const DpisoWeights* weights,
                         const MatchCallback& callback) {
  EnumerationEngine engine(query, data, candidates, aux, order, options,
                           weights, callback);
  return engine.Run();
}

}  // namespace sgm
