// RunReport: one structured, JSON-serializable record per query run — the
// single schema shared by serial and parallel runs, the sgm_match CLI
// (--report) and the bench runners' BENCH_*.json files.
//
// Design rules:
//  * Built from the returned results by a pure function (BuildRunReport);
//    the match pipeline itself carries no report plumbing.
//  * Every key is always emitted: a serial run produces the same shape as a
//    parallel one (with a degenerate "parallel" section), so downstream
//    tooling never branches on presence. Asserted in obs_test.cc.
//  * Config fields are stored as the canonical short names ("GQL",
//    "intersect", "all-edges", ...), so a report is self-describing and
//    FromJson needs no enum tables.
#ifndef SGM_OBS_RUN_REPORT_H_
#define SGM_OBS_RUN_REPORT_H_

#include <string>
#include <vector>

#include "sgm/matcher.h"
#include "sgm/obs/depth_profile.h"
#include "sgm/obs/json.h"

namespace sgm::obs {

/// Per-worker accounting carried by a report of a parallel run.
struct RunReportWorker {
  uint32_t root_chunks = 0;
  uint32_t stolen_subtasks = 0;
  uint64_t recursion_calls = 0;
  uint64_t matches_found = 0;
  double busy_ms = 0.0;
};

/// The structured record of one matching run. See file comment.
struct RunReport {
  /// Bumped on any change to the JSON shape.
  /// v2: added the always-emitted "service" section.
  /// v3: added the "build" provenance section and "service.metrics".
  /// v4: added the always-emitted "sharding" section.
  /// v5: added the always-emitted "dynamic" section.
  /// v6: removed the "sharding" section (sharded execution was deleted).
  /// v7: added "phases.ingest_ms" and the "process" section
  ///     ("peak_rss_bytes").
  static constexpr uint64_t kSchemaVersion = 7;

  /// "parallel" when more than one worker ran, else "serial".
  std::string engine = "serial";

  // ---- Build/run provenance (BuildProvenance fills these), so a
  // BENCH_*.json file is self-describing across machines. ----
  /// Compiler id and version, e.g. "gcc 13.2.0" or "clang 18.1.3".
  std::string compiler;
  /// CMAKE_BUILD_TYPE the binary was built with, e.g. "Release".
  std::string build_type;
  /// SGM_SANITIZE list the binary was built with ("" = none).
  std::string sanitizers;
  /// std::thread::hardware_concurrency() of the reporting machine.
  uint32_t hardware_threads = 0;

  // ---- Graph shapes. ----
  uint32_t query_vertices = 0;
  uint32_t query_edges = 0;
  uint32_t data_vertices = 0;
  uint32_t data_edges = 0;
  uint32_t data_labels = 0;

  // ---- Configuration (canonical short names). ----
  std::string filter;
  std::string order;
  std::string lc_method;
  std::string aux_scope;
  std::string intersection;
  bool use_lc_cache = false;
  bool use_failing_sets = false;
  bool adaptive_order = false;
  bool vf2pp_lookahead = false;
  bool postpone_degree_one = false;
  uint64_t max_matches = 0;
  double time_limit_ms = 0.0;

  // ---- Per-phase wall times. ----
  /// Time spent loading the data and query graphs. The matcher never sees
  /// it, so the caller that loaded them (sgm_match) fills it; 0 otherwise.
  double ingest_ms = 0.0;
  double filter_ms = 0.0;
  double aux_build_ms = 0.0;
  double order_ms = 0.0;
  double enumeration_ms = 0.0;
  double preprocessing_ms = 0.0;
  double total_ms = 0.0;

  // ---- Candidate statistics. ----
  double average_candidates = 0.0;
  uint64_t candidate_memory_bytes = 0;
  uint64_t aux_memory_bytes = 0;
  /// Pruning trajectory of the filtering phase, one entry per round.
  std::vector<FilterRound> filter_rounds;

  std::vector<uint32_t> matching_order;

  // ---- Enumeration counters (identical to EnumerateStats). ----
  uint64_t match_count = 0;
  uint64_t recursion_calls = 0;
  uint64_t local_candidates_scanned = 0;
  uint64_t failing_set_prunes = 0;
  uint64_t bitmap_intersections = 0;
  uint64_t lc_cache_hits = 0;
  uint64_t lc_cache_misses = 0;
  bool timed_out = false;
  bool reached_match_limit = false;

  /// Peak resident set size of the reporting process when the report was
  /// written (PeakRssBytes()); 0 when the caller did not fill it.
  uint64_t peak_rss_bytes = 0;

  /// Per-depth search profile; empty unless the run collected one.
  DepthProfile depth_profile;

  // ---- Parallel execution (degenerate for serial runs). ----
  /// "work-stealing" when more than one worker ran, else "none".
  std::string parallel_mode = "none";
  uint32_t workers_used = 1;
  uint32_t chunk_size = 0;
  uint64_t subtasks_published = 0;
  double load_imbalance = 1.0;
  std::vector<RunReportWorker> workers;

  // ---- Service execution (degenerate for direct runs). ----
  /// True when the run was answered by a MatchService; the fields below are
  /// meaningful only then (service::BuildServedRunReport fills them).
  bool served = false;
  bool plan_cache_hit = false;
  /// Time the request waited in the admission queue.
  double queue_ms = 0.0;
  /// Queue depth observed when the request was admitted.
  uint32_t queue_depth = 0;
  /// "none" (direct run), else "ok", "timeout", "cancelled" or "rejected".
  std::string request_status = "none";
  /// Point-in-time MetricsRegistry::ToJson() snapshot of the service that
  /// answered the request (serialized under service.metrics); Null for
  /// direct runs and when the caller did not pass a registry.
  Json service_metrics = Json::Null();

  // ---- Dynamic-graph execution (degenerate for immutable graphs). ----
  /// True when the answering service exposes the update layer; the fields
  /// below are its cumulative counters at report time
  /// (service::BuildServedRunReport fills them from ServiceDynamicStats).
  bool dynamic_enabled = false;
  /// Data-graph epoch (applied update batches).
  uint64_t graph_epoch = 0;
  uint64_t update_batches = 0;
  uint64_t update_ops = 0;
  /// Continuous-query match additions/retractions across all batches.
  uint64_t delta_additions = 0;
  uint64_t delta_retractions = 0;
  /// Candidate-bitset entries repaired by incremental maintenance.
  uint64_t candidates_repaired = 0;
  /// Overlay→CSR merges performed (lazy, on first post-update request).
  uint64_t graph_compactions = 0;
  /// Current delta-overlay heap footprint.
  uint64_t overlay_bytes = 0;
  /// Overlay mutation + candidate repair vs anchored enumeration split.
  double update_apply_ms = 0.0;
  double delta_enumerate_ms = 0.0;
  uint64_t continuous_queries = 0;

  /// Serializes to the stable JSON schema (every key always present).
  Json ToJson() const;

  /// Rebuilds a report from ToJson() output. Unknown keys are ignored and
  /// missing keys default, so old readers tolerate newer files.
  static RunReport FromJson(const Json& json);

  /// Writes ToJson() to `path` (pretty-printed). Returns false and fills
  /// *error on failure.
  bool WriteFile(const std::string& path, std::string* error = nullptr) const;
};

/// Build/run provenance of this binary and machine: compiler id + version,
/// CMAKE_BUILD_TYPE, SGM_SANITIZE flags and the hardware thread count.
/// BuildRunReport applies it to every report; exposed for tools that emit
/// bench JSON without a RunReport.
struct BuildProvenance {
  std::string compiler;
  std::string build_type;
  std::string sanitizers;
  uint32_t hardware_threads = 0;

  /// The running binary's provenance.
  static BuildProvenance Current();

  Json ToJson() const;
};

/// Peak resident set size of this process so far, in bytes (getrusage);
/// 0 if the call fails.
uint64_t PeakRssBytes();

/// Builds the report of a MatchQuery/ExecutePlan run.
RunReport BuildRunReport(const Graph& query, const Graph& data,
                         const MatchOptions& options,
                         const MatchResult& result);

}  // namespace sgm::obs

#endif  // SGM_OBS_RUN_REPORT_H_
