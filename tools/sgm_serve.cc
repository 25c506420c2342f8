// Batch driver for the serving layer (sgm/service/service.h): loads one
// data graph, reads a workload file of queries, and replays the workload
// against a MatchService with configurable concurrency and repeat factor,
// reporting throughput, latency percentiles and plan-cache effectiveness.
//
//   sgm_serve --data g.graph --workload queries.txt [options]
//
// Workload file: one entry per line. Blank lines and lines starting with
// '#' are ignored. Each entry is either
//   * a path to a query graph file, or
//   * an inline generator spec "gen size=N [density=any|dense|sparse]
//     [seed=S]" extracting a random-walk query from the data graph
//     (deterministic per seed, so replays are reproducible).
//
// The full workload (entries x repeat) is submitted with at most
// --concurrency requests in flight; the service executes them on --workers
// threads. --compare-cache runs the workload twice — plan cache enabled
// then disabled — verifies both passes return identical match counts, and
// reports the throughput speedup.
//
// With --updates STREAM the driver switches to continuous-matching replay
// (DESIGN.md §13): every workload query is registered as a continuous
// query, the update stream's batches are applied one by one, and each
// batch prints (and records in --out) its exact match delta — embeddings
// that appeared and embeddings that were retracted — plus the apply /
// delta-enumeration time split. After the replay the workload runs once
// as ordinary requests against the final graph, which also verifies that
// the incrementally maintained match sets agree with cold re-matching.
//
// Exit codes: 0 ok, 1 load/workload error, 2 usage error, 3 cache/no-cache
// match counts diverged under --compare-cache, 4 incremental/rematch
// divergence under --updates.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sgm/dynamic/continuous.h"
#include "sgm/dynamic/update_batch.h"
#include "sgm/graph/graph_io.h"
#include "sgm/graph/query_generator.h"
#include "sgm/obs/json.h"
#include "sgm/obs/metrics.h"
#include "sgm/obs/run_report.h"
#include "sgm/obs/slow_query_log.h"
#include "sgm/service/service.h"
#include "sgm/util/parse.h"
#include "sgm/util/prng.h"
#include "sgm/util/timer.h"

namespace {

struct CliArgs {
  std::string data_path;
  std::string workload_path;
  uint32_t workers = 4;
  uint32_t concurrency = 8;
  uint32_t repeat = 1;
  uint64_t cache_mb = 256;
  bool compare_cache = false;
  uint64_t max_matches = 100000;
  double deadline_ms = 0.0;
  double time_limit_ms = 300000.0;
  uint32_t max_queue = 0;
  std::string out_path = "BENCH_service.json";
  std::string report_path;
  std::string metrics_out;
  uint32_t metrics_interval_ms = 0;
  double slow_query_ms = 100.0;
  std::string slow_query_log_path;
  uint64_t seed = 1;
  std::string updates_path;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: sgm_serve --data g.graph --workload FILE"
               " [--workers N] [--concurrency K] [--repeat R]"
               " [--cache-mb MB] [--no-cache] [--compare-cache]"
               " [--max-matches N] [--deadline-ms N] [--time-limit-ms N]"
               " [--max-queue N] [--out FILE.json] [--report FILE.json]"
               " [--metrics-out FILE] [--metrics-interval-ms N]"
               " [--slow-query-ms N] [--slow-query-log FILE]"
               " [--seed S] [--updates STREAM]\n"
               "run 'sgm_serve --help' for details\n");
}

void PrintHelp() {
  std::printf(
      "usage: sgm_serve --data g.graph --workload FILE [options]\n"
      "\n"
      "Replays a workload of subgraph-match queries against an in-process\n"
      "MatchService and writes a throughput/latency report.\n"
      "\n"
      "required:\n"
      "  --data FILE         data graph to serve\n"
      "  --workload FILE     workload file: one query path or inline\n"
      "                      'gen size=N [density=D] [seed=S]' spec per\n"
      "                      line; '#' starts a comment\n"
      "options:\n"
      "  --workers N         service worker threads, 1-256 (default 4)\n"
      "  --concurrency K     max requests in flight (default 8)\n"
      "  --repeat R          replay each workload entry R times (default 1)\n"
      "  --cache-mb MB       plan cache memory budget in MiB (default 256)\n"
      "  --no-cache          disable the plan cache (same as --cache-mb 0)\n"
      "  --compare-cache     run cache-on and cache-off passes, verify\n"
      "                      identical match counts, report the speedup\n"
      "  --max-matches N     per-request match budget (default 100000)\n"
      "  --deadline-ms N     per-request deadline incl. queueing\n"
      "                      (default 0 = none)\n"
      "  --time-limit-ms N   per-request enumeration limit (default 300000)\n"
      "  --max-queue N       admission queue bound; overflow is rejected\n"
      "                      (default 0 = unbounded)\n"
      "  --out FILE          benchmark JSON output\n"
      "                      (default BENCH_service.json)\n"
      "  --report FILE       RunReport JSON of the last served request\n"
      "  --metrics-out FILE  write a service metrics snapshot on exit:\n"
      "                      Prometheus text when FILE ends in .prom,\n"
      "                      JSON otherwise\n"
      "  --metrics-interval-ms N\n"
      "                      rewrite --metrics-out every N ms while the\n"
      "                      workload runs (default 0 = final snapshot only)\n"
      "  --slow-query-ms N   slow-query threshold for --slow-query-log\n"
      "                      (default 100)\n"
      "  --slow-query-log FILE\n"
      "                      append a JSONL record (with a sgm_fuzz --replay\n"
      "                      reproducer) for each request at or above the\n"
      "                      slow-query threshold\n"
      "  --seed S            base seed for 'gen' workload entries without\n"
      "                      their own (default 1)\n"
      "  --updates STREAM    continuous-matching replay: register every\n"
      "                      workload query as a continuous query, apply\n"
      "                      the update stream (the sgm_generate\n"
      "                      update-stream format) batch by batch and\n"
      "                      report each batch's exact match delta; the\n"
      "                      workload then runs once against the final\n"
      "                      graph and the incrementally maintained match\n"
      "                      sets are checked against cold re-matching.\n"
      "                      Incompatible with --compare-cache\n"
      "  --help              show this message and exit\n"
      "\n"
      "exit codes: 0 ok, 1 load/workload error, 2 usage error,\n"
      "            3 match counts diverged under --compare-cache,\n"
      "            4 incremental/rematch divergence under --updates\n");
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::optional<std::string> inline_value;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag.resize(eq);
    }
    const auto next = [&]() -> std::optional<std::string> {
      if (inline_value.has_value()) return inline_value;
      if (i + 1 < argc) return std::string(argv[++i]);
      return std::nullopt;
    };
    std::optional<std::string> value;
    // Numeric values parse strictly; a malformed one names its flag.
    const auto parsed = [&](bool ok) {
      if (!ok) {
        std::fprintf(stderr, "invalid value for %s: '%s'\n", flag.c_str(),
                     value.has_value() ? value->c_str() : "");
      }
      return ok;
    };
    const auto number = [&](auto* out) {
      value = next();
      return parsed(value.has_value() && sgm::ParseUint(*value, out));
    };
    const auto millis = [&](double* out) {
      value = next();
      return parsed(value.has_value() && sgm::ParseDouble(*value, out) &&
                    *out >= 0.0);
    };
    if (flag == "--help") {
      PrintHelp();
      std::exit(0);
    } else if (flag == "--data" && (value = next())) {
      args->data_path = *value;
    } else if (flag == "--workload" && (value = next())) {
      args->workload_path = *value;
    } else if (flag == "--workers") {
      value = next();
      if (!parsed(value.has_value() &&
                  sgm::ParseUint(*value, &args->workers, sgm::kMaxThreads))) {
        return false;
      }
    } else if (flag == "--concurrency") {
      if (!number(&args->concurrency)) return false;
    } else if (flag == "--repeat") {
      if (!number(&args->repeat)) return false;
    } else if (flag == "--cache-mb") {
      // Shifted into bytes below; a larger value would wrap the budget.
      value = next();
      if (!parsed(value.has_value() &&
                  sgm::ParseUint(*value, &args->cache_mb, UINT64_MAX >> 20))) {
        return false;
      }
    } else if (flag == "--no-cache") {
      args->cache_mb = 0;
    } else if (flag == "--compare-cache") {
      args->compare_cache = true;
    } else if (flag == "--max-matches") {
      if (!number(&args->max_matches)) return false;
    } else if (flag == "--deadline-ms") {
      if (!millis(&args->deadline_ms)) return false;
    } else if (flag == "--time-limit-ms") {
      if (!millis(&args->time_limit_ms)) return false;
    } else if (flag == "--max-queue") {
      if (!number(&args->max_queue)) return false;
    } else if (flag == "--out" && (value = next())) {
      args->out_path = *value;
    } else if (flag == "--report" && (value = next())) {
      args->report_path = *value;
    } else if (flag == "--metrics-out" && (value = next())) {
      args->metrics_out = *value;
    } else if (flag == "--metrics-interval-ms") {
      if (!number(&args->metrics_interval_ms)) return false;
    } else if (flag == "--slow-query-ms") {
      if (!millis(&args->slow_query_ms)) return false;
    } else if (flag == "--slow-query-log" && (value = next())) {
      args->slow_query_log_path = *value;
    } else if (flag == "--seed") {
      if (!number(&args->seed)) return false;
    } else if (flag == "--updates" && (value = next())) {
      args->updates_path = *value;
    } else {
      std::fprintf(stderr, "unknown flag or missing value: %s\n",
                   flag.c_str());
      return false;
    }
  }
  if (args->workers == 0 || args->concurrency == 0 || args->repeat == 0) {
    std::fprintf(stderr,
                 "--workers, --concurrency and --repeat must be positive\n");
    return false;
  }
  if (args->metrics_interval_ms > 0 && args->metrics_out.empty()) {
    std::fprintf(stderr, "--metrics-interval-ms needs --metrics-out\n");
    return false;
  }
  if (!args->updates_path.empty() && args->compare_cache) {
    std::fprintf(stderr, "--updates is incompatible with --compare-cache\n");
    return false;
  }
  return !args->data_path.empty() && !args->workload_path.empty();
}

/// Parses one "gen size=N [density=D] [seed=S]" workload entry and extracts
/// the query from the data graph. Returns nullopt with a message on error.
std::optional<sgm::Graph> QueryFromGenSpec(const std::string& line,
                                           const sgm::Graph& data,
                                           uint64_t default_seed,
                                           std::string* error) {
  uint32_t size = 0;
  sgm::QueryDensity density = sgm::QueryDensity::kAny;
  uint64_t seed = default_seed;
  std::istringstream stream(line);
  std::string token;
  stream >> token;  // consume "gen"
  while (stream >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      *error = "bad gen spec token '" + token + "'";
      return std::nullopt;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "size") {
      if (!sgm::ParseUint(value, &size)) {
        *error = "bad gen size '" + value + "'";
        return std::nullopt;
      }
    } else if (key == "density") {
      if (value == "any") {
        density = sgm::QueryDensity::kAny;
      } else if (value == "dense") {
        density = sgm::QueryDensity::kDense;
      } else if (value == "sparse") {
        density = sgm::QueryDensity::kSparse;
      } else {
        *error = "bad gen density '" + value + "'";
        return std::nullopt;
      }
    } else if (key == "seed") {
      if (!sgm::ParseUint(value, &seed)) {
        *error = "bad gen seed '" + value + "'";
        return std::nullopt;
      }
    } else {
      *error = "unknown gen spec key '" + key + "'";
      return std::nullopt;
    }
  }
  if (size == 0) {
    *error = "gen spec needs size=N";
    return std::nullopt;
  }
  sgm::Prng prng(seed);
  auto query = sgm::ExtractQuery(data, size, density, &prng);
  if (!query.has_value()) {
    *error = "gen spec produced no query (density unsatisfiable?)";
  }
  return query;
}

/// Loads the workload: one query graph per (non-comment) line.
std::optional<std::vector<sgm::Graph>> LoadWorkload(const CliArgs& args,
                                                    const sgm::Graph& data) {
  std::ifstream file(args.workload_path);
  if (!file) {
    std::fprintf(stderr, "cannot open workload file %s\n",
                 args.workload_path.c_str());
    return std::nullopt;
  }
  std::vector<sgm::Graph> queries;
  std::string line;
  uint64_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    line = line.substr(start);
    std::string error;
    if (line.rfind("gen ", 0) == 0 || line == "gen") {
      // Entry index seeds unseeded specs so two identical specs still make
      // distinct queries.
      auto query = QueryFromGenSpec(line, data,
                                    args.seed + queries.size(), &error);
      if (!query.has_value()) {
        std::fprintf(stderr, "%s:%llu: %s\n", args.workload_path.c_str(),
                     static_cast<unsigned long long>(line_number),
                     error.c_str());
        return std::nullopt;
      }
      queries.push_back(std::move(*query));
    } else {
      auto query = sgm::LoadGraphFile(line, &error);
      if (!query.has_value()) {
        std::fprintf(stderr, "%s:%llu: failed to load %s: %s\n",
                     args.workload_path.c_str(),
                     static_cast<unsigned long long>(line_number),
                     line.c_str(), error.c_str());
        return std::nullopt;
      }
      queries.push_back(std::move(*query));
    }
  }
  if (queries.empty()) {
    std::fprintf(stderr, "workload file %s holds no queries\n",
                 args.workload_path.c_str());
    return std::nullopt;
  }
  return queries;
}

struct PassResult {
  bool cache_enabled = false;
  double wall_ms = 0.0;
  std::vector<double> latencies_ms;  // sorted on finish
  std::vector<uint64_t> match_counts;  // per request, submission order
  uint64_t status_counts[4] = {0, 0, 0, 0};  // by RequestStatus value
  sgm::service::ServiceStats stats;
  /// Last completed response + its query index, for --report.
  sgm::service::MatchResponse last_response;
  size_t last_query = 0;
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t low = static_cast<size_t>(rank);
  const size_t high = std::min(low + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(low);
  return sorted[low] * (1.0 - frac) + sorted[high] * frac;
}

/// Replays the whole workload (queries x repeat) against one fresh service
/// with at most args.concurrency requests in flight. Every pass instruments
/// the process-wide metrics registry (counters accumulate across passes).
PassResult RunPass(const CliArgs& args, const sgm::Graph& data,
                   const std::vector<sgm::Graph>& queries, bool cache_enabled,
                   sgm::obs::SlowQueryLog* slow_query_log) {
  sgm::service::ServiceOptions service_options;
  service_options.worker_count = args.workers;
  service_options.plan_cache_budget_bytes =
      cache_enabled ? args.cache_mb << 20 : 0;
  service_options.max_queue_depth = args.max_queue;
  service_options.slow_query_log = slow_query_log;
  sgm::service::MatchService service(data, service_options);

  PassResult pass;
  pass.cache_enabled = cache_enabled;
  const size_t total = queries.size() * args.repeat;
  pass.match_counts.assign(total, 0);
  pass.latencies_ms.reserve(total);

  struct InFlight {
    std::future<sgm::service::MatchResponse> future;
    size_t request_index;
  };
  std::deque<InFlight> in_flight;
  const auto drain_one = [&] {
    InFlight front = std::move(in_flight.front());
    in_flight.pop_front();
    sgm::service::MatchResponse response = front.future.get();
    pass.latencies_ms.push_back(response.service_ms);
    pass.match_counts[front.request_index] = response.engine.match_count;
    ++pass.status_counts[static_cast<size_t>(response.status)];
    pass.last_response = std::move(response);
    pass.last_query = front.request_index % queries.size();
  };

  sgm::Timer wall;
  // Interleave the entries (q0, q1, ..., q0, q1, ...) so cache hits come
  // from genuinely repeated queries, not from back-to-back duplicates.
  for (size_t request = 0; request < total; ++request) {
    while (in_flight.size() >= args.concurrency) drain_one();
    sgm::service::MatchRequest match_request;
    match_request.query = queries[request % queries.size()];
    match_request.options.max_matches = args.max_matches;
    match_request.options.time_limit_ms = args.time_limit_ms;
    match_request.deadline_ms = args.deadline_ms;
    in_flight.push_back(
        InFlight{service.Submit(std::move(match_request)), request});
  }
  while (!in_flight.empty()) drain_one();
  pass.wall_ms = wall.ElapsedMillis();
  pass.stats = service.Stats();
  std::sort(pass.latencies_ms.begin(), pass.latencies_ms.end());
  return pass;
}

sgm::obs::Json PassToJson(const PassResult& pass) {
  using sgm::obs::Json;
  Json json = Json::Object();
  json.Set("cache", Json::Bool(pass.cache_enabled));
  json.Set("wall_ms", Json::Number(pass.wall_ms));
  const size_t requests = pass.match_counts.size();
  json.Set("requests", Json::Number(uint64_t{requests}));
  json.Set("throughput_qps",
           Json::Number(pass.wall_ms > 0.0
                            ? 1000.0 * static_cast<double>(requests) /
                                  pass.wall_ms
                            : 0.0));

  Json latency = Json::Object();
  double sum = 0.0;
  for (const double ms : pass.latencies_ms) sum += ms;
  latency.Set("mean_ms",
              Json::Number(requests > 0
                               ? sum / static_cast<double>(requests)
                               : 0.0));
  latency.Set("p50_ms", Json::Number(Percentile(pass.latencies_ms, 0.50)));
  latency.Set("p90_ms", Json::Number(Percentile(pass.latencies_ms, 0.90)));
  latency.Set("p99_ms", Json::Number(Percentile(pass.latencies_ms, 0.99)));
  latency.Set("max_ms", Json::Number(pass.latencies_ms.empty()
                                         ? 0.0
                                         : pass.latencies_ms.back()));
  json.Set("latency", std::move(latency));

  Json status = Json::Object();
  status.Set("ok", Json::Number(pass.status_counts[0]));
  status.Set("timeout", Json::Number(pass.status_counts[1]));
  status.Set("cancelled", Json::Number(pass.status_counts[2]));
  status.Set("rejected", Json::Number(pass.status_counts[3]));
  json.Set("status", std::move(status));

  json.Set("total_matches", Json::Number(pass.stats.total_matches));

  Json cache = Json::Object();
  cache.Set("hits", Json::Number(pass.stats.plan_cache.hits));
  cache.Set("misses", Json::Number(pass.stats.plan_cache.misses));
  cache.Set("hit_rate", Json::Number(pass.stats.plan_cache.hit_rate()));
  cache.Set("evictions", Json::Number(pass.stats.plan_cache.evictions));
  cache.Set("entries", Json::Number(uint64_t{pass.stats.plan_cache.entries}));
  cache.Set("memory_bytes",
            Json::Number(uint64_t{pass.stats.plan_cache.memory_bytes}));
  json.Set("plan_cache", std::move(cache));

  Json queue = Json::Object();
  queue.Set("max_depth", Json::Number(uint64_t{pass.stats.max_queue_depth}));
  queue.Set("mean_queue_ms",
            Json::Number(requests > 0
                             ? pass.stats.total_queue_ms /
                                   static_cast<double>(requests)
                             : 0.0));
  json.Set("queue", std::move(queue));
  return json;
}

/// Writes one metrics snapshot: Prometheus text exposition when the path
/// ends in ".prom", a pretty-printed JSON snapshot otherwise.
bool WriteMetricsSnapshot(const std::string& path) {
  const sgm::obs::MetricsRegistry& registry =
      sgm::obs::MetricsRegistry::Default();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool prometheus =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  if (prometheus) {
    out << registry.RenderPrometheus();
  } else {
    out << registry.ToJson().Dump(2) << "\n";
  }
  return static_cast<bool>(out);
}

/// Background writer that re-renders --metrics-out every interval while the
/// workload runs (a file-based stand-in for a Prometheus scrape endpoint;
/// point a textfile collector at it).
class MetricsSnapshotWriter {
 public:
  MetricsSnapshotWriter(std::string path, uint32_t interval_ms)
      : path_(std::move(path)) {
    if (interval_ms == 0) return;
    thread_ = std::thread([this, interval_ms] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_) {
        done_.wait_for(lock, std::chrono::milliseconds(interval_ms));
        if (stop_) return;
        WriteMetricsSnapshot(path_);
      }
    });
  }

  ~MetricsSnapshotWriter() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    done_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  const std::string path_;
  std::mutex mutex_;
  std::condition_variable done_;
  bool stop_ = false;
  std::thread thread_;
};

/// Submits one embedding-collecting request for `query` and returns the
/// embeddings as a set. Sets *truncated when the request hit max_matches
/// (the divergence check is skipped for such queries — the maintained set
/// is exact, the rematch is not).
std::optional<std::set<std::vector<sgm::Vertex>>> CollectEmbeddings(
    sgm::service::MatchService& service, const sgm::Graph& query,
    const CliArgs& args, bool* truncated) {
  sgm::service::MatchRequest request;
  request.query = query;
  request.options.max_matches = args.max_matches;
  request.options.time_limit_ms = args.time_limit_ms;
  request.collect_embeddings = true;
  sgm::service::MatchResponse response = service.Match(std::move(request));
  if (response.status != sgm::service::RequestStatus::kOk) {
    std::fprintf(stderr, "request failed: %s\n", response.error.c_str());
    return std::nullopt;
  }
  *truncated = response.engine.enumerate.reached_match_limit ||
               response.engine.enumerate.timed_out;
  return std::set<std::vector<sgm::Vertex>>(response.embeddings.begin(),
                                            response.embeddings.end());
}

/// The --updates mode (see file comment): continuous-matching replay with
/// per-batch delta reports and a final incremental-vs-rematch check.
int RunUpdateReplay(const CliArgs& args, const sgm::Graph& data,
                    const std::vector<sgm::Graph>& queries) {
  using sgm::obs::Json;
  std::string error;
  const auto stream =
      sgm::dynamic::LoadUpdateStreamFile(args.updates_path, &error);
  if (!stream.has_value()) {
    std::fprintf(stderr, "failed to load update stream: %s\n", error.c_str());
    return 1;
  }

  sgm::service::ServiceOptions service_options;
  service_options.worker_count = args.workers;
  service_options.plan_cache_budget_bytes = args.cache_mb << 20;
  sgm::service::MatchService service(data, service_options);

  // Register every workload query as a continuous query and seed its match
  // set from a cold run against the initial graph.
  std::vector<uint64_t> query_ids(queries.size(), 0);
  std::map<uint64_t, size_t> by_id;
  std::vector<std::set<std::vector<sgm::Vertex>>> matches(queries.size());
  std::vector<bool> truncated(queries.size(), false);
  for (size_t q = 0; q < queries.size(); ++q) {
    query_ids[q] = service.RegisterContinuousQuery(queries[q], &error);
    if (query_ids[q] == 0) {
      std::fprintf(stderr, "workload entry %zu rejected: %s\n", q,
                   error.c_str());
      return 1;
    }
    by_id[query_ids[q]] = q;
    bool limit_hit = false;
    auto initial = CollectEmbeddings(service, queries[q], args, &limit_hit);
    if (!initial.has_value()) return 1;
    matches[q] = std::move(*initial);
    truncated[q] = limit_hit;
    if (limit_hit) {
      std::fprintf(stderr,
                   "warning: query %zu hit the match budget; its divergence"
                   " check is skipped (raise --max-matches)\n",
                   q);
    }
  }
  std::printf("registered %zu continuous quer%s; replaying %zu batches"
              " (%zu ops) from %s\n",
              queries.size(), queries.size() == 1 ? "y" : "ies",
              stream->batches.size(), stream->op_count(),
              args.updates_path.c_str());

  // Replay, folding each batch's exact delta into the maintained sets.
  Json batches_json = Json::Array();
  uint64_t total_additions = 0;
  uint64_t total_retractions = 0;
  double total_apply_ms = 0.0;
  double total_enumerate_ms = 0.0;
  bool consistent = true;
  for (size_t b = 0; b < stream->batches.size(); ++b) {
    const sgm::service::UpdateReport report =
        service.ApplyUpdates(stream->batches[b]);
    if (!report.applied) {
      std::fprintf(stderr, "batch %zu rejected: %s\n", b,
                   report.error.c_str());
      return 1;
    }
    uint64_t additions = 0;
    uint64_t retractions = 0;
    for (const sgm::dynamic::MatchDelta& delta : report.deltas) {
      additions += delta.additions;
      retractions += delta.retractions;
      const size_t q = by_id.at(delta.query_id);
      // A truncated seed set cannot absorb exact deltas (retractions may
      // hit embeddings the budget cut off); its check is skipped anyway.
      if (truncated[q]) continue;
      auto& set = matches[q];
      for (const sgm::dynamic::DeltaRecord& record : delta.records) {
        if (record.addition) {
          consistent &= set.insert(record.embedding).second;
        } else {
          consistent &= set.erase(record.embedding) > 0;
        }
      }
    }
    total_additions += additions;
    total_retractions += retractions;
    total_apply_ms += report.apply_ms;
    total_enumerate_ms += report.enumerate_ms;
    std::printf(
        "batch %zu: epoch %llu, %u ops, +%llu matches, -%llu matches,"
        " apply %.3f ms, delta-enumerate %.3f ms\n",
        b, static_cast<unsigned long long>(report.epoch), report.ops_applied,
        static_cast<unsigned long long>(additions),
        static_cast<unsigned long long>(retractions), report.apply_ms,
        report.enumerate_ms);

    Json batch_json = Json::Object();
    batch_json.Set("epoch", Json::Number(report.epoch));
    batch_json.Set("ops", Json::Number(uint64_t{report.ops_applied}));
    batch_json.Set("additions", Json::Number(additions));
    batch_json.Set("retractions", Json::Number(retractions));
    batch_json.Set("apply_ms", Json::Number(report.apply_ms));
    batch_json.Set("enumerate_ms", Json::Number(report.enumerate_ms));
    batches_json.Append(std::move(batch_json));
  }

  // The workload now runs once as ordinary requests against the final
  // graph; cold rematch counts must agree with the maintained sets.
  for (size_t q = 0; q < queries.size(); ++q) {
    if (truncated[q]) continue;
    bool limit_hit = false;
    auto rematch = CollectEmbeddings(service, queries[q], args, &limit_hit);
    if (!rematch.has_value()) return 1;
    if (!limit_hit && *rematch != matches[q]) {
      std::fprintf(stderr,
                   "DIVERGENCE on query %zu: incremental set has %zu"
                   " embeddings, cold rematch %zu\n",
                   q, matches[q].size(), rematch->size());
      consistent = false;
    }
  }
  std::printf(
      "replayed %zu batches: +%llu / -%llu matches, apply %.1f ms,"
      " delta-enumerate %.1f ms, incremental vs rematch %s\n",
      stream->batches.size(),
      static_cast<unsigned long long>(total_additions),
      static_cast<unsigned long long>(total_retractions), total_apply_ms,
      total_enumerate_ms, consistent ? "identical" : "DIVERGED");

  const sgm::service::ServiceDynamicStats stats = service.DynamicStats();
  Json root = Json::Object();
  root.Set("bench", Json::String("service_updates"));
  Json workload = Json::Object();
  workload.Set("data", Json::String(args.data_path));
  workload.Set("updates", Json::String(args.updates_path));
  workload.Set("entries", Json::Number(uint64_t{queries.size()}));
  workload.Set("workers", Json::Number(uint64_t{args.workers}));
  root.Set("workload", std::move(workload));
  Json totals = Json::Object();
  totals.Set("batches", Json::Number(uint64_t{stream->batches.size()}));
  totals.Set("ops", Json::Number(uint64_t{stream->op_count()}));
  totals.Set("additions", Json::Number(total_additions));
  totals.Set("retractions", Json::Number(total_retractions));
  totals.Set("apply_ms", Json::Number(total_apply_ms));
  totals.Set("enumerate_ms", Json::Number(total_enumerate_ms));
  totals.Set("graph_epoch", Json::Number(stats.graph_epoch));
  totals.Set("compactions", Json::Number(stats.compactions));
  totals.Set("candidates_repaired", Json::Number(stats.candidates_repaired));
  totals.Set("consistent", Json::Bool(consistent));
  root.Set("totals", std::move(totals));
  root.Set("batches", std::move(batches_json));

  std::ofstream out(args.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.out_path.c_str());
    return 1;
  }
  out << root.Dump(2) << "\n";
  out.close();
  std::printf("wrote %s\n", args.out_path.c_str());

  if (!args.report_path.empty()) {
    sgm::service::MatchRequest last_request;
    last_request.query = queries.back();
    last_request.options.max_matches = args.max_matches;
    last_request.options.time_limit_ms = args.time_limit_ms;
    sgm::service::MatchResponse response = service.Match(last_request);
    const sgm::obs::RunReport report = sgm::service::BuildServedRunReport(
        last_request.query, service.data(), last_request, response,
        service.metrics(), &stats);
    if (!report.WriteFile(args.report_path, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.report_path.c_str());
  }
  if (!args.metrics_out.empty()) {
    if (!WriteMetricsSnapshot(args.metrics_out)) return 1;
    std::printf("wrote %s\n", args.metrics_out.c_str());
  }
  return consistent ? 0 : 4;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }

  std::string error;
  const auto data = sgm::LoadGraphFile(args.data_path, &error);
  if (!data.has_value()) {
    std::fprintf(stderr, "failed to load data graph: %s\n", error.c_str());
    return 1;
  }
  const auto queries = LoadWorkload(args, *data);
  if (!queries.has_value()) return 1;

  if (!args.updates_path.empty()) {
    return RunUpdateReplay(args, *data, *queries);
  }

  std::printf(
      "serving %zu quer%s x %u repeat%s on %u workers, concurrency %u\n",
      queries->size(), queries->size() == 1 ? "y" : "ies", args.repeat,
      args.repeat == 1 ? "" : "s", args.workers, args.concurrency);

  std::unique_ptr<sgm::obs::SlowQueryLog> slow_query_log;
  if (!args.slow_query_log_path.empty()) {
    sgm::obs::SlowQueryLog::Options log_options;
    log_options.path = args.slow_query_log_path;
    log_options.threshold_ms = args.slow_query_ms;
    slow_query_log = std::make_unique<sgm::obs::SlowQueryLog>(log_options);
    if (!slow_query_log->ok()) {
      std::fprintf(stderr, "%s\n", slow_query_log->error().c_str());
      return 1;
    }
  }

  std::vector<PassResult> passes;
  {
    MetricsSnapshotWriter snapshot_writer(args.metrics_out,
                                          args.metrics_interval_ms);
    passes.push_back(RunPass(args, *data, *queries, args.cache_mb > 0,
                             slow_query_log.get()));
    if (args.compare_cache && args.cache_mb > 0) {
      passes.push_back(RunPass(args, *data, *queries, /*cache_enabled=*/false,
                               slow_query_log.get()));
    }
  }

  for (const PassResult& pass : passes) {
    const size_t requests = pass.match_counts.size();
    std::printf(
        "pass cache=%s: %.1f ms wall, %.1f req/s, p50 %.2f ms, p99 %.2f ms,"
        " hit-rate %.2f, max queue depth %u\n",
        pass.cache_enabled ? "on" : "off", pass.wall_ms,
        pass.wall_ms > 0.0
            ? 1000.0 * static_cast<double>(requests) / pass.wall_ms
            : 0.0,
        Percentile(pass.latencies_ms, 0.50),
        Percentile(pass.latencies_ms, 0.99), pass.stats.plan_cache.hit_rate(),
        pass.stats.max_queue_depth);
  }

  sgm::obs::Json root = sgm::obs::Json::Object();
  root.Set("bench", sgm::obs::Json::String("service"));
  sgm::obs::Json workload = sgm::obs::Json::Object();
  workload.Set("data", sgm::obs::Json::String(args.data_path));
  workload.Set("entries", sgm::obs::Json::Number(uint64_t{queries->size()}));
  workload.Set("repeat", sgm::obs::Json::Number(uint64_t{args.repeat}));
  workload.Set("workers", sgm::obs::Json::Number(uint64_t{args.workers}));
  workload.Set("concurrency",
               sgm::obs::Json::Number(uint64_t{args.concurrency}));
  root.Set("workload", std::move(workload));
  sgm::obs::Json passes_json = sgm::obs::Json::Array();
  for (const PassResult& pass : passes) passes_json.Append(PassToJson(pass));
  root.Set("passes", std::move(passes_json));

  bool counts_identical = true;
  if (passes.size() == 2) {
    counts_identical = passes[0].match_counts == passes[1].match_counts;
    const double speedup =
        passes[1].wall_ms > 0.0 && passes[0].wall_ms > 0.0
            ? passes[1].wall_ms / passes[0].wall_ms
            : 0.0;
    root.Set("speedup", sgm::obs::Json::Number(speedup));
    root.Set("match_counts_identical", sgm::obs::Json::Bool(counts_identical));
    std::printf("cache speedup: %.2fx, match counts %s\n", speedup,
                counts_identical ? "identical" : "DIVERGED");
  }

  std::ofstream out(args.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", args.out_path.c_str());
    return 1;
  }
  out << root.Dump(2) << "\n";
  out.close();
  std::printf("wrote %s\n", args.out_path.c_str());

  if (!args.metrics_out.empty()) {
    if (!WriteMetricsSnapshot(args.metrics_out)) return 1;
    std::printf("wrote %s\n", args.metrics_out.c_str());
  }
  if (slow_query_log != nullptr) {
    std::printf("slow-query log %s: %llu record%s at threshold %.1f ms\n",
                slow_query_log->path().c_str(),
                static_cast<unsigned long long>(slow_query_log->entries()),
                slow_query_log->entries() == 1 ? "" : "s",
                slow_query_log->threshold_ms());
  }

  if (!args.report_path.empty() && !passes.empty() &&
      !passes.front().latencies_ms.empty()) {
    const PassResult& pass = passes.front();
    sgm::service::MatchRequest last_request;
    last_request.query = (*queries)[pass.last_query];
    last_request.options.max_matches = args.max_matches;
    last_request.options.time_limit_ms = args.time_limit_ms;
    last_request.deadline_ms = args.deadline_ms;
    const sgm::obs::RunReport report = sgm::service::BuildServedRunReport(
        last_request.query, *data, last_request, pass.last_response,
        &sgm::obs::MetricsRegistry::Default());
    if (!report.WriteFile(args.report_path, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %s\n", args.report_path.c_str());
  }

  return counts_identical ? 0 : 3;
}
