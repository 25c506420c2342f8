// perfbench_run: runs one workload on the inputs perfbench_gen wrote and
// prints its metrics; the last line of standard output is the JSON result.
//
//   perfbench_run --workload NAME --base DIR --inputs DIR --seconds S
//                 --trace 0|1 [--trace-out FILE] [--inject-fault]
//
// Every workload first sets up `setup_reps` times (setup_s is the median),
// then measures for S seconds with tracing off. With --trace 1 a traced
// phase of S seconds runs first, right after the last set-up; its spans go
// to --trace-out as Chrome trace-event JSON and give the per-layer metrics,
// and the untraced phase that follows gives trace.overhead_frac.
//
// Correctness (each failure counts into `failed`):
//  * cold-large, deep-search: every query's count, capped, must equal the
//    count of a second engine configuration (CrossCheckOptions), and the
//    traced phase's decomposed pipeline must agree with MatchQuery.
//  * serve-churn: every request must finish ok; every response for one
//    (query, epoch) must report one count; each round one sampled query is
//    rematched cold on that epoch's snapshot; every batch must apply; and
//    the continuous-query deltas, folded over the initial match sets, must
//    equal a cold rematch of the final graph rebuilt from the base graph.
// --inject-fault adds one to the first expected count, so a run must fail:
// it proves the gate can fire. The exit code is 0 only when nothing failed.
#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "sgm/core/aux_structure.h"
#include "sgm/core/enumerate/enumerator.h"
#include "sgm/core/filter/filter.h"
#include "sgm/core/order/order.h"
#include "sgm/dynamic/dynamic_graph.h"
#include "sgm/dynamic/update_batch.h"
#include "sgm/graph/graph_io.h"
#include "sgm/matcher.h"
#include "sgm/obs/metrics.h"
#include "sgm/service/service.h"

namespace perfbench {
namespace {

using sgm::Graph;
using sgm::Vertex;

struct RunConfig {
  std::string workload;
  /// Inputs shared by all seeds (data graph, query pool) and those of
  /// this seed; see gen.cc.
  std::string base;
  std::string inputs;
  std::string trace_out;
  double seconds = 0.0;
  bool trace = false;
  bool inject_fault = false;

  std::string data_path() const { return base + "/data.graph"; }
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  size_t samples = 0;
};

/// Collects metrics and the attempted/failed operation counts, and prints
/// the table and the final JSON line.
class Report {
 public:
  void EndToEnd(const std::string& name, const std::string& unit, double value,
                size_t samples) {
    end_to_end_.push_back({name, unit, value, samples});
  }
  void Layer(const std::string& name, const std::string& unit, double value,
             size_t samples) {
    per_layer_.push_back({name, unit, value, samples});
  }
  /// A figure for the table only, never in the JSON result.
  void TableOnly(const std::string& name, const std::string& unit, double value,
                 size_t samples) {
    table_only_.push_back({name, unit, value, samples});
  }
  /// Counts one operation; `ok` false counts it as failed and says why.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    if (++failed_ <= 20) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }

  /// Prints the table, then the JSON result (end-to-end metrics, or the
  /// per-layer ones when traced). Returns the process exit code.
  int Print(const RunConfig& config) const {
    const bool correct = failed_ == 0 && attempted_ > 0;
    std::printf("workload %s  seconds %g  trace %d\n", config.workload.c_str(),
                config.seconds, config.trace ? 1 : 0);
    std::printf("%-34s %16s  %-6s %8s\n", "metric", "value", "unit", "samples");
    for (const auto* group : {&end_to_end_, &table_only_, &per_layer_}) {
      for (const Metric& m : *group) {
        std::printf("%-34s %16.6g  %-6s %8zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
      }
    }
    std::printf("%-34s %16.6g  %-6s %8llu\n", "failed_frac",
                attempted_ == 0 ? 1.0 : static_cast<double>(failed_) / attempted_,
                "1", static_cast<unsigned long long>(attempted_));
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : config.trace ? per_layer_ : end_to_end_) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
      json += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
              value + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> table_only_;
  std::vector<Metric> per_layer_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

Graph LoadGraph(const std::string& path) {
  std::string error;
  std::optional<Graph> graph = sgm::LoadGraphFile(path, &error);
  if (!graph) Die(path + ": " + error);
  return std::move(*graph);
}

std::vector<Graph> LoadQueries(const std::string& dir) {
  std::ifstream list(dir + "/queries.txt");
  if (!list) Die("cannot read " + dir + "/queries.txt");
  std::vector<Graph> queries;
  std::string name;
  while (list >> name) queries.push_back(LoadGraph(dir + "/" + name));
  if (queries.empty()) Die("no queries in " + dir);
  return queries;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The second engine configuration every static query's count is checked
/// against: DP-iso's filter, GraphQL's order and failing sets. DP-iso's own
/// adaptive order takes over 20 s on some 8-vertex queries that the
/// GraphQL order answers in 0.1 s.
inline sgm::MatchOptions CrossCheckOptions(uint64_t max_matches, double time_limit_ms) {
  sgm::MatchOptions options = sgm::MatchOptions::Optimized(sgm::Algorithm::kDPiso);
  options.order = sgm::OrderMethod::kGraphQL;
  options.adaptive_order = false;
  options.postpone_degree_one = false;
  options.use_failing_sets = true;
  options.max_matches = max_matches;
  options.time_limit_ms = time_limit_ms;
  return options;
}

sgm::MatchOptions QueryOptions(const Graph& query, const Params& params) {
  sgm::MatchOptions options = sgm::MatchOptions::Recommended(query.vertex_count());
  options.max_matches = params.U64("max_matches");
  options.time_limit_ms = static_cast<double>(params.U64("time_limit_ms"));
  return options;
}

/// One query's (or served request's) cost split over the engine layers.
struct LayerSample {
  double total_ms = 0.0;
  double filter_ms = 0.0;
  double aux_ms = 0.0;
  double order_ms = 0.0;
  double enumerate_ms = 0.0;
  /// The filter ran: a cold query, or a plan-cache miss.
  bool filtered = false;
  /// The aux structure, order and enumeration ran (no empty candidate set).
  bool enumerated = false;
  double candidates_avg = 0.0;
  /// Candidates left after the last filter round over those after the first.
  double kept_ratio = 0.0;
  double aux_bytes = 0.0;
  sgm::EnumerateStats stats;
};

double KeptRatio(const std::vector<sgm::FilterRound>& rounds) {
  if (rounds.empty() || rounds.front().total_candidates == 0) return 0.0;
  return static_cast<double>(rounds.back().total_candidates) /
         static_cast<double>(rounds.front().total_candidates);
}

/// filter.*, aux.*, order.* and enumerate.* from per-query samples. A
/// layer's share is its time summed over the samples divided by their
/// summed total time; the layer spans have no children, so span time is
/// self time. `first_over_steady` is the first filter call after the graph
/// load over a repeat of the same call (0 where nothing measured it).
void AddEngineLayers(const std::vector<LayerSample>& samples, double first_over_steady,
                     Report* report) {
  double total = 0.0;
  std::vector<double> filter_ms, aux_ms, enumerate_ms, candidates, kept, aux_bytes;
  std::vector<double> calls, prunes;
  double filter_sum = 0, aux_sum = 0, order_sum = 0, enumerate_sum = 0;
  double matches = 0, lc_hits = 0, lc_lookups = 0;
  for (const LayerSample& s : samples) {
    total += s.total_ms;
    filter_sum += s.filter_ms;
    aux_sum += s.aux_ms;
    order_sum += s.order_ms;
    enumerate_sum += s.enumerate_ms;
    if (s.filtered) {
      filter_ms.push_back(s.filter_ms);
      candidates.push_back(s.candidates_avg);
      kept.push_back(s.kept_ratio);
    }
    if (s.filtered && s.enumerated) {
      aux_ms.push_back(s.aux_ms);
      aux_bytes.push_back(s.aux_bytes);
    }
    if (s.enumerated) {
      enumerate_ms.push_back(s.enumerate_ms);
      calls.push_back(static_cast<double>(s.stats.recursion_calls));
      prunes.push_back(static_cast<double>(s.stats.failing_set_prunes));
      matches += static_cast<double>(s.stats.match_count);
      lc_hits += static_cast<double>(s.stats.lc_cache_hits);
      lc_lookups += static_cast<double>(s.stats.lc_cache_hits + s.stats.lc_cache_misses);
    }
  }
  const auto share = [&](double part) { return total > 0 ? part / total : 0.0; };
  const size_t n = samples.size();
  const double call_sum = Sum(calls);
  const double median_filter = Quantile(filter_ms, 0.5);
  report->Layer("filter.ms_p50", "ms", median_filter, filter_ms.size());
  report->Layer("filter.share", "1", share(filter_sum), n);
  report->Layer("filter.candidates_avg", "count", Mean(candidates), candidates.size());
  report->Layer("filter.kept_ratio", "1", Mean(kept), kept.size());
  report->Layer("filter.first_over_steady", "1", first_over_steady,
                first_over_steady > 0 ? 2 : 0);
  report->Layer("aux.ms_p50", "ms", Quantile(aux_ms, 0.5), aux_ms.size());
  report->Layer("aux.share", "1", share(aux_sum), n);
  report->Layer("aux.bytes_avg", "B", Mean(aux_bytes), aux_bytes.size());
  report->Layer("order.share", "1", share(order_sum), n);
  report->Layer("enumerate.ms_p50", "ms", Quantile(enumerate_ms, 0.5), enumerate_ms.size());
  report->Layer("enumerate.share", "1", share(enumerate_sum), n);
  report->Layer("enumerate.calls_per_query", "count", Mean(calls), calls.size());
  report->Layer("enumerate.matches_per_call", "1", call_sum > 0 ? matches / call_sum : 0.0,
                calls.size());
  report->Layer("enumerate.lc_cache_hit_ratio", "1",
                lc_lookups > 0 ? lc_hits / lc_lookups : 0.0, calls.size());
  report->Layer("enumerate.failing_set_prunes_per_query", "count", Mean(prunes),
                prunes.size());
}

/// The serving and dynamic layers' figures.
struct ServeLayers {
  std::vector<double> hit_ms, miss_ms, apply_ms, first_read_ms, delta_records;
  double hit_ratio = 0.0;
  double evictions = 0.0;
  double compactions = 0.0;
  size_t lookups = 0;
};

/// Table figures only: the JSON's per-layer metrics are those every
/// workload in BENCHMARK.json measures, and cold-large has no service.
void AddServeLayers(const ServeLayers& s, Report* report) {
  report->TableOnly("service.hit_ms_p50", "ms", Quantile(s.hit_ms, 0.5), s.hit_ms.size());
  report->TableOnly("service.miss_ms_p50", "ms", Quantile(s.miss_ms, 0.5),
                    s.miss_ms.size());
  report->TableOnly("plan_cache.hit_ratio", "1", s.hit_ratio, s.lookups);
  report->TableOnly("plan_cache.evictions", "count", s.evictions, s.lookups);
  report->TableOnly("dynamic.apply_ms_p50", "ms", Quantile(s.apply_ms, 0.5),
                    s.apply_ms.size());
  report->TableOnly("dynamic.first_read_ms_p50", "ms", Quantile(s.first_read_ms, 0.5),
                    s.first_read_ms.size());
  report->TableOnly("dynamic.delta_records_per_batch", "count", Mean(s.delta_records),
                    s.delta_records.size());
  report->TableOnly("dynamic.compactions", "count", s.compactions, s.apply_ms.size());
}

void AddGraphLayer(const std::vector<double>& load_ms, uintmax_t file_bytes,
                   Report* report) {
  const double median = Quantile(load_ms, 0.5);
  report->Layer("graph.load_ms", "ms", median, load_ms.size());
  report->Layer("graph.load_mb_per_s", "MiB/s",
                median > 0 ? static_cast<double>(file_bytes) / 1048576.0 / (median / 1000.0)
                           : 0.0,
                load_ms.size());
}

void AddLatencyMetrics(const std::vector<double>& setup_s, const std::vector<double>& ms,
                       double wall_ms, double rss_mib, Report* report) {
  report->EndToEnd("setup_s", "s", Quantile(setup_s, 0.5), setup_s.size());
  report->EndToEnd("queries_per_s", "1/s",
                   static_cast<double>(ms.size()) / (wall_ms / 1000.0), ms.size());
  report->EndToEnd("query_p50_ms", "ms", Quantile(ms, 0.5), ms.size());
  report->EndToEnd("query_p90_ms", "ms", Quantile(ms, 0.9), ms.size());
  report->EndToEnd("peak_rss_mb", "MiB", rss_mib, 1);
}

// ---------------------------------------------------------------------------
// cold-large and deep-search: queries run serially through MatchQuery.
// ---------------------------------------------------------------------------

struct Execution {
  size_t query = 0;
  double ms = 0.0;
  uint64_t count = 0;
  bool timed_out = false;
};

/// Untraced phase: MatchQuery on queries order[0], order[1], ... in whole
/// passes until `seconds` have passed. The clock is read only when a pass
/// ends, so every query runs equally often.
std::vector<Execution> RunPlain(const std::vector<Graph>& queries,
                                const std::vector<size_t>& order, const Graph& data,
                                const Params& params, double seconds, double* wall_ms) {
  std::vector<Execution> runs;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;
       i % order.size() != 0 || MsBetween(start, Clock::now()) < seconds * 1000.0; ++i) {
    const size_t q = order[i % order.size()];
    const sgm::MatchOptions options = QueryOptions(queries[q], params);
    const Clock::time_point t0 = Clock::now();
    const sgm::MatchResult result = sgm::MatchQuery(queries[q], data, options);
    runs.push_back({q, MsBetween(t0, Clock::now()), result.match_count, result.unsolved()});
  }
  *wall_ms = MsBetween(start, Clock::now());
  return runs;
}

/// One query through the four calls MatchQuery makes for the Recommended
/// preset (BuildMatchPlan + ExecutePlan), each wrapped in a span.
Execution RunDecomposed(size_t index, const Graph& query, const Graph& data,
                        const Params& params, SpanLog* log, LayerSample* sample) {
  const sgm::MatchOptions o = QueryOptions(query, params);
  if (o.aux_scope != sgm::AuxEdgeScope::kAllEdges || o.adaptive_order ||
      o.postpone_degree_one) {
    Die("the traced pipeline assumes the Recommended preset's shape");
  }
  Execution run{index, 0.0, 0, false};
  const size_t root = log->Begin("query", 0, index);
  const uint64_t parent = log->id(root);

  size_t span = log->Begin("filter", parent, index);
  const sgm::FilterResult filtered = sgm::RunFilter(o.filter, query, data, o.filter_options);
  sample->filter_ms = log->End(span);
  sample->filtered = true;
  sample->candidates_avg = filtered.candidates.AverageCount();
  sample->kept_ratio = KeptRatio(filtered.rounds);

  if (!filtered.candidates.AnyEmpty()) {
    span = log->Begin("aux", parent, index);
    sgm::AuxBuildOptions aux_options;
    aux_options.build_bitmaps =
        o.lc_method == sgm::LocalCandidateMethod::kIntersect &&
        (o.intersection == sgm::IntersectionMethod::kBitmap ||
         o.intersection == sgm::IntersectionMethod::kAuto);
    aux_options.bitmap_max_candidates = o.bitmap_max_candidates;
    const sgm::AuxStructure aux =
        sgm::AuxStructure::BuildAllEdges(query, data, filtered.candidates, aux_options);
    sample->aux_ms = log->End(span);
    sample->aux_bytes = static_cast<double>(aux.MemoryBytes());

    span = log->Begin("order", parent, index);
    sgm::OrderInputs inputs;
    inputs.candidates = &filtered.candidates;
    inputs.tree = filtered.bfs_tree ? &*filtered.bfs_tree : nullptr;
    inputs.aux = &aux;
    const std::vector<Vertex> order = sgm::ComputeOrder(o.order, query, data, inputs);
    sample->order_ms = log->End(span);

    span = log->Begin("enumerate", parent, index);
    sgm::EnumerateOptions e;
    e.lc_method = o.lc_method;
    e.use_failing_sets = o.use_failing_sets;
    e.vf2pp_lookahead = o.vf2pp_lookahead;
    e.restrict_neighbor_scan_to_candidates = o.filter != sgm::FilterMethod::kLDF;
    e.max_matches = o.max_matches;
    e.time_limit_ms = o.time_limit_ms;
    e.intersection = o.intersection;
    e.use_lc_cache = o.use_lc_cache;
    sample->stats = sgm::Enumerate(query, data, filtered.candidates, &aux, order, e);
    sample->enumerate_ms = log->End(span);
    sample->enumerated = true;
    run.count = sample->stats.match_count;
    run.timed_out = sample->stats.timed_out;
  }
  sample->total_ms = run.ms = log->End(root);
  return run;
}

void RunStatic(const RunConfig& config, const Params& params, Report* report) {
  const std::string data_path = config.data_path();
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  Graph data;
  for (uint32_t rep = 0; rep < params.U32("setup_reps"); ++rep) {
    data = Graph();  // free the previous copy outside the timed region
    const Clock::time_point t0 = Clock::now();
    Graph loaded = LoadGraph(data_path);
    load_ms.push_back(MsBetween(t0, Clock::now()));
    setup_s.push_back(load_ms.back() / 1000.0);
    data = std::move(loaded);
  }
  const std::vector<Graph> queries = LoadQueries(config.base);
  // Both phases run the pool in this order, cycling; the seed shuffles it.
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(params.U64("seed") * 4 + 1);
  for (size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
  const size_t first = order.front();

  std::vector<Execution> traced;
  std::vector<LayerSample> samples;
  double first_over_steady = 0.0;
  SpanLog log(0);
  const Clock::time_point origin = Clock::now();
  if (config.trace) {
    // Right after the last load, so filter.first_over_steady sees the
    // first query after ingest.
    for (size_t i = 0; MsBetween(origin, Clock::now()) < config.seconds * 1000.0; ++i) {
      const size_t q = order[i % order.size()];
      samples.emplace_back();
      traced.push_back(RunDecomposed(q, queries[q], data, params, &log, &samples.back()));
    }
    // The first query's filter again, now that the allocator has settled.
    const sgm::MatchOptions o = QueryOptions(queries[first], params);
    const Clock::time_point t0 = Clock::now();
    sgm::RunFilter(o.filter, queries[first], data, o.filter_options);
    first_over_steady = samples.front().filter_ms / MsBetween(t0, Clock::now());
  }
  double wall_ms = 0.0;
  const std::vector<Execution> plain =
      RunPlain(queries, order, data, params, config.seconds, &wall_ms);
  const double rss = PeakRssMiB();

  // Cross-check every query that ran, outside the timed region.
  const uint64_t cap = params.U64("max_matches");
  std::map<size_t, std::optional<uint64_t>> expected;
  for (const Execution& run : traced) expected[run.query];
  for (const Execution& run : plain) expected[run.query];
  {
    // Two threads: the check is outside the timed region, so it may use
    // the spare core.
    std::vector<std::pair<const size_t, std::optional<uint64_t>>*> todo;
    for (auto& entry : expected) todo.push_back(&entry);
    std::atomic<size_t> next{0};
    const auto check = [&] {
      for (size_t i; (i = next.fetch_add(1)) < todo.size();) {
        const sgm::MatchResult result = sgm::MatchQuery(
            queries[todo[i]->first], data,
            CrossCheckOptions(cap, static_cast<double>(params.U64("time_limit_ms"))));
        if (!result.unsolved()) todo[i]->second = std::min(result.match_count, cap);
      }
    };
    std::thread helper(check);
    check();
    helper.join();
  }
  if (config.inject_fault && expected.begin()->second) ++*expected.begin()->second;

  std::map<size_t, uint64_t> plain_counts;
  for (const Execution& run : plain) {
    const uint64_t count = std::min(run.count, cap);
    report->Check(!run.timed_out && expected[run.query] == count,
                  "query " + std::to_string(run.query) + ": count " +
                      std::to_string(count) + (run.timed_out ? " (timed out)" : ""));
    plain_counts.emplace(run.query, count);
  }
  for (const Execution& run : traced) {
    const uint64_t count = std::min(run.count, cap);
    const auto plain_count = plain_counts.find(run.query);
    report->Check(!run.timed_out && expected[run.query] == count &&
                      (plain_count == plain_counts.end() || plain_count->second == count),
                  "traced query " + std::to_string(run.query) + ": count " +
                      std::to_string(count));
  }

  std::vector<double> ms;
  for (const Execution& run : plain) ms.push_back(run.ms);
  AddLatencyMetrics(setup_s, ms, wall_ms, rss, report);
  if (config.trace) {
    AddGraphLayer(load_ms, std::filesystem::file_size(data_path), report);
    AddEngineLayers(samples, first_over_steady, report);
    // Both phases run the queries in the same order: compare them on the
    // common prefix, so the mix of query sizes is the same on both sides.
    const size_t common = std::min(traced.size(), plain.size());
    double traced_ms = 0.0, plain_ms = 0.0;
    for (size_t i = 0; i < common; ++i) {
      traced_ms += traced[i].ms;
      plain_ms += plain[i].ms;
    }
    report->Layer("trace.overhead_frac", "1", traced_ms / plain_ms - 1.0, common);
    if (!WriteChromeTrace(config.trace_out, {&log}, origin)) {
      Die("cannot write " + config.trace_out);
    }
  }
}

// ---------------------------------------------------------------------------
// serve-churn: one MatchService under update batches and a closed loop.
// ---------------------------------------------------------------------------

struct Served {
  uint32_t query = 0;
  double ms = 0.0;
  sgm::service::MatchResponse response;
};

class ServeChurn {
 public:
  ServeChurn(const RunConfig& config, const Params& params, Report* report)
      : config_(config), params_(params), report_(report) {}

  void Run();

 private:
  using Embedding = std::vector<Vertex>;

  struct Phase {
    std::vector<Served> served;
    std::vector<double> apply_ms;
    std::vector<double> first_read_ms;
    std::vector<double> delta_records;
    double measured_ms = 0.0;
  };

  void SetUp();
  /// Runs rounds until `seconds` of measured time have passed. With
  /// `logs`, records a span per round, batch and request (logs[0] is the
  /// writer's, logs[1..] the clients').
  Phase RunRounds(std::vector<SpanLog>* logs);
  /// The untimed per-round checks: batch applied, delta fold, response
  /// status, one count per (query, epoch), one sampled cold rematch.
  void CheckRound(uint32_t round, const sgm::service::UpdateReport& update,
                  const std::vector<Served>& served);
  void CheckFinalGraph();

  const RunConfig& config_;
  const Params& params_;
  Report* report_;

  std::vector<Graph> hot_;
  std::vector<sgm::MatchOptions> options_;
  std::vector<Graph> continuous_;
  sgm::dynamic::UpdateStream stream_;
  std::vector<std::vector<uint32_t>> requests_;

  std::vector<double> setup_s_;
  std::vector<double> load_ms_;
  std::unique_ptr<sgm::obs::MetricsRegistry> registry_;
  std::unique_ptr<sgm::service::MatchService> service_;
  std::vector<uint64_t> continuous_ids_;
  /// Folded match sets of the continuous queries, and whether a delta
  /// record ever failed to fold (an addition already present or a
  /// retraction absent).
  std::vector<std::set<Embedding>> folded_;
  std::vector<bool> fold_broken_;
  /// Filter time of hot query 0 as the first request after the last load.
  double first_filter_ms_ = 0.0;
  uint32_t next_round_ = 0;
};

void ServeChurn::SetUp() {
  const std::string& dir = config_.inputs;
  hot_ = LoadQueries(config_.base);
  for (const Graph& q : hot_) options_.push_back(QueryOptions(q, params_));
  for (uint32_t i = 0; i < params_.U32("cq_count"); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "/cq%04u.graph", i);
    continuous_.push_back(LoadGraph(dir + name));
  }
  std::string error;
  std::optional<sgm::dynamic::UpdateStream> stream =
      sgm::dynamic::LoadUpdateStreamFile(dir + "/updates.txt", &error);
  if (!stream) Die("updates.txt: " + error);
  stream_ = std::move(*stream);
  std::ifstream requests(dir + "/requests.txt");
  for (std::string line; std::getline(requests, line);) {
    std::istringstream in(line);
    requests_.emplace_back();
    for (uint32_t q; in >> q;) {
      if (q >= hot_.size()) Die("requests.txt names a query out of range");
      requests_.back().push_back(q);
    }
  }
  if (requests_.size() != stream_.batches.size()) Die("rounds and batches disagree");

  sgm::service::ServiceOptions options;
  options.worker_count = params_.U32("workers");
  options.plan_cache_budget_bytes = params_.U64("plan_cache_mb") << 20;
  for (uint32_t rep = 0; rep < params_.U32("setup_reps"); ++rep) {
    service_.reset();  // tear down the previous copy outside the timed region
    registry_ = std::make_unique<sgm::obs::MetricsRegistry>();
    options.metrics = registry_.get();
    const Clock::time_point t0 = Clock::now();
    Graph data = LoadGraph(config_.data_path());
    load_ms_.push_back(MsBetween(t0, Clock::now()));
    service_ = std::make_unique<sgm::service::MatchService>(std::move(data), options);
    continuous_ids_.clear();
    for (const Graph& q : continuous_) {
      continuous_ids_.push_back(service_->RegisterContinuousQuery(q, &error));
      if (continuous_ids_.back() == 0) Die("continuous query rejected: " + error);
    }
    for (size_t q = 0; q < hot_.size(); ++q) {
      sgm::service::MatchRequest request;
      request.query = hot_[q];
      request.options = options_[q];
      const sgm::service::MatchResponse response = service_->Match(std::move(request));
      if (response.status != sgm::service::RequestStatus::kOk) Die("warming request failed");
      if (q == 0) first_filter_ms_ = response.engine.filter_ms;
    }
    setup_s_.push_back(MsBetween(t0, Clock::now()) / 1000.0);
  }

  // The continuous queries' initial match sets, from an independent load.
  const Graph base = LoadGraph(config_.data_path());
  for (const Graph& q : continuous_) {
    sgm::MatchOptions options = sgm::MatchOptions::Recommended(q.vertex_count());
    options.max_matches = params_.U64("cq_max_matches") + 1;
    const auto matches = sgm::CollectMatches(q, base, options);
    folded_.emplace_back(matches.begin(), matches.end());
    fold_broken_.push_back(matches.size() > params_.U64("cq_max_matches"));
  }
}

ServeChurn::Phase ServeChurn::RunRounds(std::vector<SpanLog>* logs) {
  Phase phase;
  const uint32_t clients = params_.U32("clients");
  while (phase.measured_ms < config_.seconds * 1000.0) {
    if (next_round_ >= requests_.size()) Die("update stream exhausted; raise rounds");
    const uint32_t round = next_round_++;
    const std::vector<uint32_t>& draws = requests_[round];
    std::vector<Served> served(draws.size());

    const Clock::time_point start = Clock::now();
    const size_t round_span = logs ? (*logs)[0].Begin("round", 0, round) : 0;
    const uint64_t round_id = logs ? (*logs)[0].id(round_span) : 0;
    const size_t apply_span = logs ? (*logs)[0].Begin("dynamic.apply", round_id, round) : 0;
    const sgm::service::UpdateReport update = service_->ApplyUpdates(stream_.batches[round]);
    phase.apply_ms.push_back(MsBetween(start, Clock::now()));
    if (logs) (*logs)[0].End(apply_span);

    // Closed loop: each client has one request in flight, so `clients`
    // requests are outstanding until the round's draws run out.
    std::atomic<size_t> next{0};
    const auto client = [&](SpanLog* log) {
      for (size_t i; (i = next.fetch_add(1)) < draws.size();) {
        sgm::service::MatchRequest request;
        request.query = hot_[draws[i]];
        request.options = options_[draws[i]];
        const uint64_t id = static_cast<uint64_t>(round) * draws.size() + i;
        const size_t span = log ? log->Begin("service.request", round_id, id) : 0;
        const Clock::time_point t0 = Clock::now();
        served[i].response = service_->Match(std::move(request));
        served[i].ms = MsBetween(t0, Clock::now());
        served[i].query = draws[i];
        if (log) log->End(span);
      }
    };
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back(client, logs ? &(*logs)[c + 1] : nullptr);
    }
    for (std::thread& t : threads) t.join();
    phase.measured_ms += MsBetween(start, Clock::now());
    if (logs) (*logs)[0].End(round_span);

    phase.first_read_ms.push_back(served.front().ms);
    double records = 0;
    for (const auto& delta : update.deltas) records += static_cast<double>(delta.records.size());
    phase.delta_records.push_back(records);
    CheckRound(round, update, served);
    for (Served& s : served) phase.served.push_back(std::move(s));
  }
  return phase;
}

void ServeChurn::CheckRound(uint32_t round, const sgm::service::UpdateReport& update,
                            const std::vector<Served>& served) {
  const std::string where = "round " + std::to_string(round);
  report_->Check(update.applied && update.epoch == round + 1 &&
                     update.ops_applied == stream_.batches[round].ops.size(),
                 where + ": batch not applied: " + update.error);
  for (const auto& delta : update.deltas) {
    size_t cq = 0;
    while (cq < continuous_ids_.size() && continuous_ids_[cq] != delta.query_id) ++cq;
    if (cq == continuous_ids_.size()) {
      report_->Check(false, where + ": delta for an unknown continuous query");
      continue;
    }
    for (const auto& record : delta.records) {
      const bool folded = record.addition ? folded_[cq].insert(record.embedding).second
                                          : folded_[cq].erase(record.embedding) == 1;
      if (!folded) fold_broken_[cq] = true;
    }
  }

  const uint64_t cap = params_.U64("max_matches");
  std::map<uint32_t, uint64_t> counts;  // this round's epoch: query -> count
  for (const Served& s : served) {
    const uint64_t count = std::min(s.response.engine.match_count, cap);
    const bool ok = s.response.status == sgm::service::RequestStatus::kOk &&
                    counts.emplace(s.query, count).first->second == count;
    report_->Check(ok, where + ": query " + std::to_string(s.query) + " status " +
                           sgm::service::RequestStatusName(s.response.status) +
                           " count " + std::to_string(count));
  }
  // One sampled query, rematched cold on this epoch's snapshot. No update
  // races this read: the writer is this thread.
  const uint32_t q = served.front().query;
  const sgm::MatchResult cold = sgm::MatchQuery(hot_[q], service_->data(), options_[q]);
  const uint64_t expected =
      std::min(cold.match_count, cap) + (config_.inject_fault && round == 0 ? 1 : 0);
  report_->Check(!cold.unsolved() && expected == counts[q],
                 where + ": cold rematch of query " + std::to_string(q) + " gives " +
                     std::to_string(expected) + ", served " + std::to_string(counts[q]));
}

void ServeChurn::CheckFinalGraph() {
  // Rebuild the final graph independently: base + every applied batch.
  sgm::dynamic::DynamicGraph replay(LoadGraph(config_.data_path()));
  std::string error;
  for (uint32_t round = 0; round < next_round_; ++round) {
    if (!replay.Apply(stream_.batches[round], &error)) Die("replay failed: " + error);
  }
  const Graph final_graph = replay.Snapshot();
  report_->Check(final_graph.edge_count() == service_->data().edge_count(),
                 "final graph edge count differs from the service's");
  for (size_t cq = 0; cq < continuous_.size(); ++cq) {
    sgm::MatchOptions options = sgm::MatchOptions::Recommended(continuous_[cq].vertex_count());
    options.max_matches = UINT64_MAX;
    const auto matches = sgm::CollectMatches(continuous_[cq], final_graph, options);
    const std::set<Embedding> cold(matches.begin(), matches.end());
    report_->Check(!fold_broken_[cq] && cold == folded_[cq],
                   "continuous query " + std::to_string(cq) + ": folded " +
                       std::to_string(folded_[cq].size()) + " matches, cold rematch " +
                       std::to_string(cold.size()));
  }
}

void ServeChurn::Run() {
  SetUp();
  const Clock::time_point origin = Clock::now();
  std::vector<SpanLog> logs;
  for (uint32_t t = 0; t <= params_.U32("clients"); ++t) logs.emplace_back(t);
  Phase traced;
  const sgm::service::ServiceStats before = service_->Stats();
  const sgm::service::ServiceDynamicStats dynamic_before = service_->DynamicStats();
  ServeLayers layers;
  if (config_.trace) {
    traced = RunRounds(&logs);
    const sgm::service::ServiceStats after = service_->Stats();
    const uint64_t hits = after.plan_cache.hits - before.plan_cache.hits;
    const uint64_t misses = after.plan_cache.misses - before.plan_cache.misses;
    layers.lookups = hits + misses;
    layers.hit_ratio = layers.lookups ? static_cast<double>(hits) / layers.lookups : 0.0;
    layers.evictions =
        static_cast<double>(after.plan_cache.evictions - before.plan_cache.evictions);
    layers.compactions = static_cast<double>(service_->DynamicStats().compactions -
                                             dynamic_before.compactions);
  }
  const Phase plain = RunRounds(nullptr);
  const double rss = PeakRssMiB();
  CheckFinalGraph();

  std::vector<double> ms;
  for (const Served& s : plain.served) ms.push_back(s.ms);
  AddLatencyMetrics(setup_s_, ms, plain.measured_ms, rss, report_);
  // Every gated workload must report every end-to-end metric and
  // cold-large applies no updates, so the writer's latency is a table figure.
  report_->TableOnly("update_p50_ms", "ms", Quantile(plain.apply_ms, 0.5),
                     plain.apply_ms.size());
  if (config_.trace) {
    AddGraphLayer(load_ms_, std::filesystem::file_size(config_.data_path()),
                  report_);
    // The engine layers run inside the service's workers, out of reach of
    // spans placed around public calls; their times come from each
    // response's MatchResult.
    std::vector<LayerSample> samples;
    std::vector<double> query0_filter_ms;  // its misses, for first_over_steady
    for (const Served& s : traced.served) {
      if (s.query == 0 && !s.response.plan_cache_hit) {
        query0_filter_ms.push_back(s.response.engine.filter_ms);
      }
      const sgm::MatchResult& e = s.response.engine;
      LayerSample sample;
      sample.total_ms = s.ms;
      sample.filter_ms = e.filter_ms;
      sample.aux_ms = e.aux_build_ms;
      sample.order_ms = e.order_ms;
      sample.enumerate_ms = e.enumeration_ms;
      sample.filtered = !s.response.plan_cache_hit;
      sample.enumerated = true;
      sample.candidates_avg = e.average_candidates;
      sample.kept_ratio = KeptRatio(e.filter_rounds);
      sample.aux_bytes = static_cast<double>(e.aux_memory_bytes);
      sample.stats = e.enumerate;
      samples.push_back(sample);
      (s.response.plan_cache_hit ? layers.hit_ms : layers.miss_ms).push_back(s.ms);
    }
    const double steady = Quantile(query0_filter_ms, 0.5);
    AddEngineLayers(samples, steady > 0 ? first_filter_ms_ / steady : 0.0, report_);
    layers.apply_ms = traced.apply_ms;
    layers.first_read_ms = traced.first_read_ms;
    layers.delta_records = traced.delta_records;
    AddServeLayers(layers, report_);
    // Time per request, traced over untraced, less one (as on cold-large).
    const double plain_qps = static_cast<double>(plain.served.size()) / plain.measured_ms;
    const double traced_qps = static_cast<double>(traced.served.size()) / traced.measured_ms;
    report_->Layer("trace.overhead_frac", "1", plain_qps / traced_qps - 1.0,
                   traced.served.size());
    std::vector<const SpanLog*> views;
    for (const SpanLog& log : logs) views.push_back(&log);
    if (!WriteChromeTrace(config_.trace_out, views, origin)) {
      Die("cannot write " + config_.trace_out);
    }
  }
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string trace_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--base" && has_value) {
      config.base = argv[++i];
    } else if (arg == "--inputs" && has_value) {
      config.inputs = argv[++i];
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace_flag = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      config.trace_out = argv[++i];
    } else if (arg == "--inject-fault") {
      config.inject_fault = true;
    } else {
      Die("unknown argument " + arg);
    }
  }
  if (config.base.empty() || config.inputs.empty() || !(config.seconds > 0) ||
      (trace_flag != "0" && trace_flag != "1")) {
    Die("usage: perfbench_run --workload NAME --base DIR --inputs DIR --seconds S "
        "--trace 0|1 [--trace-out FILE] [--inject-fault]");
  }
  config.trace = trace_flag == "1";
  if (config.trace && config.trace_out.empty()) Die("--trace 1 needs --trace-out");
  const Params params = Params::Load(config.inputs + "/params.txt");
  if (params.Str("workload") != config.workload) Die("inputs are for another workload");

  Report report;
  if (config.workload == "serve-churn") {
    ServeChurn(config, params, &report).Run();
  } else {
    RunStatic(config, params, &report);
  }
  return report.Print(config);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
