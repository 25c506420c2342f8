// Reusable enumeration engine: the recursive backtracking search of
// Algorithm 1 as a long-lived object. Construction precomputes the
// order-dependent structures (backward neighbors, pivots, masks) and
// allocates every scratch buffer (partial mapping, inverse index, per-depth
// local-candidate buffers, intersection scratch) exactly once; afterwards
// the engine can run any number of root slices or stolen depth-1 subtrees
// without reallocating — the per-worker reuse that makes fine-grained
// work-stealing dispatch affordable (see sgm/parallel/).
//
// Single-run callers should keep using the Enumerate() wrapper in
// enumerator.h; this header exists for schedulers that own one engine per
// worker.
#ifndef SGM_CORE_ENUMERATE_ENUMERATION_ENGINE_H_
#define SGM_CORE_ENUMERATE_ENUMERATION_ENGINE_H_

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "sgm/core/aux_structure.h"
#include "sgm/core/candidate_sets.h"
#include "sgm/core/enumerate/enumerator.h"
#include "sgm/core/enumerate/failing_set.h"
#include "sgm/core/order/dpiso_order.h"
#include "sgm/graph/graph.h"
#include "sgm/util/timer.h"

namespace sgm {

/// Subtree-splitting hook, consulted while the engine iterates the depth-1
/// local candidates of a root. `root_image` is the data vertex the root is
/// mapped to; [next, end) are the absolute depth-1 indices the engine has
/// not started yet. The hook may take ownership of a suffix [k, end)
/// (publishing it as stealable subtasks) and returns k; returning `end`
/// declines the split. Must be thread-safe when engines run concurrently.
using SubtreeSplitHook =
    std::function<uint32_t(Vertex root_image, uint32_t next, uint32_t end)>;

/// One enumeration engine. Not thread-safe: one engine per thread. The
/// referenced graph/candidate/aux/weights structures must outlive it and are
/// only read, so any number of engines may share them concurrently.
class EnumerationEngine {
 public:
  /// `order`, `options`, `weights` and `callback` are captured at
  /// construction (callback by value, so a per-worker lambda may be a
  /// temporary). See Enumerate() for the parameter contract.
  EnumerationEngine(const Graph& query, const Graph& data,
                    const CandidateSets& candidates, const AuxStructure* aux,
                    std::span<const Vertex> order,
                    const EnumerateOptions& options,
                    const DpisoWeights* weights = nullptr,
                    MatchCallback callback = {});

  EnumerationEngine(const EnumerationEngine&) = delete;
  EnumerationEngine& operator=(const EnumerationEngine&) = delete;

  /// Installs (or clears) the depth-1 split hook.
  void set_split_hook(SubtreeSplitHook hook) {
    split_hook_ = std::move(hook);
  }

  /// Clears per-run search state — partial mapping, inverse index, abort
  /// flag, adaptive-order bookkeeping — without touching the accumulated
  /// statistics or reallocating any buffer. O(|V(q)|) when the previous
  /// run finished cleanly (backtracking already restored the scratch).
  void Reset();

  /// Enumerates root candidates [begin, end) of the start vertex (clamped
  /// to the candidate count). Statistics accumulate across calls.
  void RunSlice(uint32_t begin, uint32_t end);

  /// Enumerates the depth-1 local candidates [d1_begin, d1_end) of the
  /// subtree rooted at `root_image` — the executor side of a stolen
  /// subtask. The depth-1 candidate list of a given root is deterministic,
  /// so thief and victim agree on the indices.
  void RunSubtree(Vertex root_image, uint32_t d1_begin, uint32_t d1_end);

  /// Single-shot convenience used by Enumerate(): restarts the clock, runs
  /// [0, options.root_slice_end), stamps stats().enumeration_ms.
  EnumerateStats Run();

  const EnumerateStats& stats() const { return stats_; }

  /// True once the search stopped early (callback veto, match limit, time
  /// limit, or cancel flag). Sticky until Reset().
  bool aborted() const { return aborted_; }

 private:
  void MakeExtendable(Vertex u);
  void OnMapped(Vertex u);
  void OnUnmapped(Vertex u);
  Vertex SelectVertex(uint32_t depth);
  /// True when the configured kernel is kBitmap/kAuto and every backward
  /// edge of u carries a bitmap sidecar. kAuto's cost comparison against
  /// the sorted lists happens in ComputeIntersectionLc, where the list
  /// sizes are known.
  bool WantBitmapIntersection(Vertex u) const;
  /// Fills backward_index_ with the candidate index of each backward image
  /// within its own candidate set. Returns false if some image is not a
  /// candidate of its query vertex (possible for kNeighborScan-admitted
  /// mappings), in which case callers fall back to the by-vertex lookup.
  bool FillBackwardIndexes(Vertex u);
  /// Weight sum of LC(u, M) under the DP-iso weights, computed without
  /// materializing the candidate list (bitmap multi-AND, count-only SIMD
  /// intersection for uniform weights, or a merge walk against C(u)).
  double ComputeExtendableWeight(Vertex u);
  /// Materializes adaptive_lc_[u] for the currently-extendable u (called
  /// lazily, only once u is actually selected for extension).
  void MaterializeAdaptiveLc(Vertex u);
  void ComputeIntersectionLc(Vertex u, std::vector<Vertex>* out);
  bool PassesVf2ppLookahead(Vertex u, Vertex v);
  std::span<const Vertex> ComputeLocalCandidates(Vertex u, uint32_t depth);
  QueryVertexSet Explore(uint32_t depth);
  void RecordMatch();

  const Graph& query_;
  const Graph& data_;
  const CandidateSets& candidates_;
  const AuxStructure* aux_;
  std::vector<Vertex> order_;
  EnumerateOptions options_;
  const DpisoWeights* weights_;
  MatchCallback callback_;
  SubtreeSplitHook split_hook_;
  uint32_t n_;
  QueryVertexSet full_mask_ = 0;

  std::vector<uint32_t> position_;
  std::vector<std::vector<Vertex>> backward_neighbors_;
  std::vector<QueryVertexSet> backward_mask_;
  std::vector<Vertex> pivot_;

  std::vector<Vertex> mapping_;
  std::vector<Vertex> inverse_;
  /// Bitset of currently-mapped query vertices, kept in sync with
  /// mapping_. Failing-set attribution needs it when the VF2++ lookahead
  /// drops a candidate: the lookahead reads the whole mapping (it counts
  /// unmapped data neighbors), so such a failure depends on every ancestor,
  /// not just the backward neighbors of the current vertex.
  QueryVertexSet mapped_mask_ = 0;
  /// Set by ComputeLocalCandidates when the lookahead rejected at least one
  /// otherwise-admissible candidate of the vertex being extended; consumed
  /// immediately by Explore (recursion clobbers it).
  bool lc_lookahead_dropped_ = false;
  std::vector<std::vector<Vertex>> lc_buffer_;
  std::vector<Vertex> intersect_scratch_;
  /// Backward candidate-adjacency spans of the vertex currently being
  /// extended; filled once per ComputeIntersectionLc call so every list is
  /// fetched from the aux structure exactly once.
  std::vector<std::span<const Vertex>> backward_lists_;
  /// Candidate index of each backward image within its own candidate set,
  /// aligned with backward_neighbors_[u]; lets both representations address
  /// the aux structure without repeating the binary search.
  std::vector<uint32_t> backward_index_;
  /// Bitmap rows of the backward edges plus the multi-AND result buffer.
  std::vector<const uint64_t*> bitmap_rows_;
  std::vector<uint64_t> bitmap_scratch_;
  /// LC materialization buffer for ComputeExtendableWeight's general case
  /// (shared across vertices — the point of the lazy adaptive_lc_ scheme).
  std::vector<Vertex> weight_scratch_;

  /// Per-depth local-candidate reuse cache. LC(u, M) under kIntersect
  /// depends only on (u, images of u's backward neighbors), so when a
  /// sibling subtree revisits the same key at the same depth the cached
  /// list is reused verbatim. kInvalidVertex marks an empty slot. Entries
  /// deliberately survive Reset() — per-worker engines keep their warm
  /// cache across stolen subtrees (the key check stays sound regardless).
  struct LcCacheEntry {
    Vertex u = kInvalidVertex;
    std::vector<Vertex> images;
    std::vector<Vertex> lc;
  };
  std::vector<LcCacheEntry> lc_cache_;

  std::vector<std::vector<std::pair<Label, uint32_t>>> forward_label_counts_;

  std::vector<uint32_t> unmapped_backward_;
  /// Bitset of currently-extendable vertices, so SelectVertex walks only
  /// the set bits instead of scanning all |V(q)| flags.
  QueryVertexSet extendable_mask_ = 0;
  std::vector<std::vector<Vertex>> adaptive_lc_;
  /// adaptive_lc_[u] holds the list for the *current* backward images only
  /// when this flag is set; MakeExtendable computes the weight without
  /// materializing and leaves it unset until u is actually selected.
  std::vector<uint8_t> adaptive_lc_valid_;
  std::vector<double> adaptive_weight_;

  /// Slice window applied when Explore reaches slice_depth_: depth 0 for
  /// root slices, depth 1 for stolen subtrees.
  uint32_t slice_depth_ = 0;
  size_t slice_begin_ = 0;
  size_t slice_end_ = 0;
  /// Data vertex of the current root extension (valid at depth >= 1);
  /// identifies the subtree in split offers.
  Vertex current_root_image_ = kInvalidVertex;

  EnumerateStats stats_;
  Timer timer_;
  bool aborted_ = false;

  /// Depth-profile sink (= options_.depth_profile). The hot path tests this
  /// pointer once per event; with the default null profile the recursion
  /// carries no profiling cost beyond those predictable branches.
  obs::DepthProfile* profile_ = nullptr;
  /// Wall-clock of the last profiling checkpoint, used to charge elapsed
  /// time to the depth observed every 1024 recursion calls.
  double profile_last_ms_ = 0.0;
};

}  // namespace sgm

#endif  // SGM_CORE_ENUMERATE_ENUMERATION_ENGINE_H_
