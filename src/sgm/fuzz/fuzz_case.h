// Structured case generation for the differential fuzzer.
//
// A FuzzCase bundles everything one differential check needs: a data graph,
// a query graph, and a set of engine configurations to cross-check against
// the brute-force reference and each other. Cases are generated
// deterministically from a single 64-bit seed (seeded RMAT/Erdős–Rényi data
// graph × random-walk query × sampled configuration matrix), so any failure
// is reproducible from the seed alone — and still self-contained once
// serialized, because reproducer files embed the graphs verbatim
// (see reproducer.h).
#ifndef SGM_FUZZ_FUZZ_CASE_H_
#define SGM_FUZZ_FUZZ_CASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sgm/dynamic/update_batch.h"
#include "sgm/graph/graph.h"
#include "sgm/matcher.h"

namespace sgm::fuzz {

/// One engine configuration under differential test. `preset` selects the
/// MatchOptions factory: a Classic/Optimized framework algorithm, or the
/// paper's Recommended combination (the 8th preset).
struct ConfigSpec {
  /// Ignored when `recommended` is set.
  Algorithm algorithm = Algorithm::kGraphQL;
  /// Classic(algorithm) instead of Optimized(algorithm).
  bool classic = false;
  /// MatchOptions::Recommended(query size) — the paper's §6 pick.
  bool recommended = false;
  bool failing_sets = false;
  IntersectionMethod intersection = IntersectionMethod::kHybrid;
  /// Per-depth local-candidate reuse cache (MatchOptions::use_lc_cache).
  bool lc_cache = true;
  /// MatchOptions::threads: 1 = serial engine; >1 = work-stealing parallel
  /// enumeration.
  uint32_t threads = 1;
  /// Route the query through a MatchService (service/service.h): submitted
  /// twice against one service, so the second run executes a plan-cache
  /// hit — the differential check covers the cached-plan path. Serial
  /// engine only: the service runs every request on one worker.
  bool service = false;
  /// Enables MatchOptions::debug_skip_last_root_candidate — the emulated
  /// off-by-one used to exercise the oracle and minimizer end to end.
  bool inject_fault = false;

  /// Short identifier, e.g. "GQL/fs/hybrid/t1" (suffix "/svc" when routed
  /// through a MatchService).
  std::string Name() const;

  /// Materializes the MatchOptions for this configuration. The caller's
  /// match budget and time limit (from the FuzzCase) are applied on top of
  /// the preset.
  MatchOptions ToMatchOptions(uint32_t query_vertex_count,
                              uint64_t max_matches,
                              double time_limit_ms) const;
};

/// One self-contained differential test case.
struct FuzzCase {
  uint64_t seed = 0;
  Graph data;
  Graph query;
  std::vector<ConfigSpec> configs;
  /// Per-config match budget. 0 = unlimited (the oracle still applies its
  /// own safety cap, see OracleOptions::count_cap).
  uint64_t max_matches = 0;
  /// Per-config wall-clock limit. Generated cases always use 0 (unlimited)
  /// so verdicts never depend on machine speed.
  double time_limit_ms = 0.0;
  /// Dynamic dimension (`upd=`): when non-empty, the oracle additionally
  /// replays these update batches through the continuous matcher and
  /// cross-checks the incrementally maintained embedding set against a
  /// cold brute-force rematch of the final graph (see oracle.h).
  dynamic::UpdateStream updates;
};

/// Knobs of the case generator. Defaults keep cases small enough that the
/// brute-force reference finishes in milliseconds.
struct CaseGenOptions {
  uint32_t min_data_vertices = 8;
  uint32_t max_data_vertices = 96;
  uint32_t max_query_vertices = 10;
  uint32_t max_labels = 6;
  /// Fraction of cases generated with a small max_matches budget, to
  /// exercise the limit-status agreement checks.
  double limited_budget_fraction = 0.25;
  /// Fraction of cases whose data graph is relabeled with one dominant
  /// label (the WordNet-style skew that stresses candidate filtering).
  double skewed_label_fraction = 0.2;
  /// Fraction of cases that carry an update stream (the `upd=` dimension):
  /// the oracle replays it incrementally and compares against a cold full
  /// rematch of the final graph.
  double update_fraction = 0.35;
};

/// Generates the case for `seed`, deterministically: equal seeds produce
/// byte-identical cases on every platform. The sampled configuration list
/// always contains all 8 presets (7 framework algorithms, classic or
/// optimized at random, plus Recommended), cycles the 6 intersection
/// kernels across them (including bitmap and auto), randomizes failing
/// sets and the LC reuse cache, and promotes one intersect-capable config
/// to parallel execution.
FuzzCase GenerateCase(uint64_t seed, const CaseGenOptions& options = {});

}  // namespace sgm::fuzz

#endif  // SGM_FUZZ_FUZZ_CASE_H_
