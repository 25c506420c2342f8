// Figure 17: scalability on RMAT graphs with the paper's default
// configuration (|V|=1M, d=16, |Σ|=16; scaled down by default), varying the
// average degree, the label count and the vertex count. GQLfs and RIfs must
// find all results (no match cap); per configuration the bench reports mean
// query time, unsolved counts, and the mean result count (suppressed when
// more than half the queries are unsolved, following the paper's protocol;
// killed queries contribute the results found before the kill).
//
// Beyond the paper: a multi-thread section running the work-stealing
// scheduler (MatchOptions::threads) on RMAT with dense 8-vertex queries and
// on an adversarially skewed hub instance, reporting the load-imbalance
// factor (max/mean worker load) and critical-path speedups, and writing
// BENCH_scalability.json so successive runs can track the trajectory.
// Worker loads replay per-item thread-CPU costs (see the parallel section
// comment below), which keeps the numbers about the scheduler's assignment
// rather than about how many cores the host happens to have; the JSON
// records hardware_concurrency so readers can interpret the raw wall-clock
// column.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "report.h"
#include "runner.h"
#include "sgm/graph/graph_builder.h"
#include "sgm/plan.h"
#include "sgm/util/timer.h"

namespace sgm::bench {
namespace {

struct ScaleDefaults {
  uint32_t vertices;
  uint32_t degree;
  uint32_t labels;
};

MatchOptions Configured(Algorithm algorithm, const BenchConfig& config) {
  MatchOptions options = MatchOptions::Optimized(algorithm);
  options.use_failing_sets = true;
  options.max_matches = 0;  // find all results (Section 5.6)
  options.time_limit_ms = config.time_limit_ms;
  return options;
}

void Report(const Graph& data, const BenchConfig& config,
            const std::string& label) {
  const auto queries = MakeQuerySet(data, 16, QueryDensity::kDense,
                                    config.queries_per_set, config.seed);
  if (queries.empty()) {
    PrintRow({label, "-", "-", "-", "-", "-"});
    return;
  }
  std::vector<std::string> row = {label};
  std::string results_cell = "-";
  for (const Algorithm algorithm : {Algorithm::kGraphQL, Algorithm::kRI}) {
    const QuerySetRun run =
        RunQuerySet(data, queries, Configured(algorithm, config));
    row.push_back(FormatDouble(run.enumeration_ms.mean()));
    row.push_back(FormatCount(run.unsolved));
    if (algorithm == Algorithm::kGraphQL &&
        run.unsolved * 2 <= run.executed) {
      results_cell = FormatDouble(run.match_counts.mean(), 0);
    }
  }
  row.push_back(results_cell);
  PrintRow(row);
}

// ---- Multi-thread scalability of the work-stealing scheduler. ----
//
// The host may have fewer cores than workers, in which case per-OS-thread
// busy time measures kernel scheduling rather than the scheduler's
// assignment: with a dynamic queue, whichever thread runs first drains
// everything. Work items are therefore timed individually (thread CPU
// clock) and each run is scored by greedy list-scheduling of the item
// costs onto T idealized workers — what any work-conserving scheduler
// achieves when every worker has a real core. The T = 1 row is the serial
// engine, which runs on the calling thread: the thread-CPU time of its
// ExecutePlan call is its one item, on the same clock as the workers'
// items. The modeled makespan (max worker load) yields the critical-path
// speedup and the load-imbalance factor (max/mean load); wall time is
// reported raw.

struct ParallelAgg {
  double wall_ms = 0.0;
  std::vector<double> item_costs_ms;  // every work item, execution order
  uint64_t matches = 0;
  uint64_t recursion_calls = 0;
  uint64_t root_chunks = 0;
  uint64_t stolen_subtasks = 0;
  uint64_t subtasks_published = 0;
  uint32_t unsolved = 0;
  /// Full RunReport of the set's last query under this configuration — the
  /// per-run schema every BENCH_*.json entry carries.
  obs::RunReport exemplar_report;
};

ParallelAgg RunParallelSet(const Graph& data, const std::vector<Graph>& queries,
                           MatchOptions options, uint32_t threads) {
  options.threads = threads;
  ParallelAgg agg;
  for (const Graph& query : queries) {
    Timer timer;
    const auto plan = BuildMatchPlan(query, data, options);
    ThreadCpuTimer execute_cpu_timer;
    const MatchResult run = ExecutePlan(query, data, *plan, options);
    const double execute_cpu_ms = execute_cpu_timer.ElapsedMillis();
    agg.wall_ms += timer.ElapsedMillis();
    agg.matches += run.match_count;
    agg.recursion_calls += run.enumerate.recursion_calls;
    agg.subtasks_published += run.subtasks_published;
    if (run.unsolved()) ++agg.unsolved;
    agg.exemplar_report = obs::BuildRunReport(query, data, options, run);
    if (run.worker_stats.empty()) {
      // The serial engine ran on this thread: its one item.
      agg.item_costs_ms.push_back(execute_cpu_ms);
    }
    for (const WorkerStats& ws : run.worker_stats) {
      agg.root_chunks += ws.root_chunks;
      agg.stolen_subtasks += ws.stolen_subtasks;
      agg.item_costs_ms.insert(agg.item_costs_ms.end(),
                               ws.item_costs_ms.begin(),
                               ws.item_costs_ms.end());
    }
  }
  return agg;
}

struct ModeledRun {
  double makespan_ms = 0.0;
  double total_ms = 0.0;
  double imbalance = 1.0;
};

/// Replays the measured item costs onto `threads` workers (see the section
/// comment above).
ModeledRun ModelRun(const ParallelAgg& agg, uint32_t threads) {
  std::vector<double> loads(threads, 0.0);
  for (const double cost : agg.item_costs_ms) {
    *std::min_element(loads.begin(), loads.end()) += cost;
  }
  ModeledRun modeled;
  for (const double load : loads) {
    modeled.makespan_ms = std::max(modeled.makespan_ms, load);
    modeled.total_ms += load;
  }
  if (!loads.empty() && modeled.total_ms > 0.0) {
    modeled.imbalance = modeled.makespan_ms *
                        static_cast<double>(loads.size()) / modeled.total_ms;
  }
  return modeled;
}

/// An adversarially skewed instance, scaled up from the unit test: one hub
/// vertex whose depth-1 subtree holds nearly all matches, plus `decoys`
/// cheap roots: only depth-1 subtree stealing spreads the hub's work.
Graph MakeSkewedHubGraph(uint32_t spokes, uint32_t decoys) {
  GraphBuilder builder;
  const Vertex hub = builder.AddVertex(0);
  std::vector<Vertex> spoke_ids;
  spoke_ids.reserve(spokes);
  for (uint32_t s = 0; s < spokes; ++s) spoke_ids.push_back(builder.AddVertex(1));
  for (uint32_t s = 0; s < spokes; ++s) {
    builder.AddEdge(hub, spoke_ids[s]);
    builder.AddEdge(spoke_ids[s], spoke_ids[(s + 1) % spokes]);
  }
  for (uint32_t d = 0; d < decoys; ++d) {
    const Vertex decoy = builder.AddVertex(0);
    const uint32_t s = (d * 7) % spokes;
    builder.AddEdge(decoy, spoke_ids[s]);
    builder.AddEdge(decoy, spoke_ids[(s + 1) % spokes]);
  }
  return builder.Build();
}

Graph MakeTriangleQuery() {
  GraphBuilder builder;
  builder.AddVertex(0);
  builder.AddVertex(1);
  builder.AddVertex(1);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  return builder.Build();
}

struct ParallelRow {
  const char* workload;
  uint32_t threads;
  ParallelAgg agg;
  ModeledRun modeled;
};

void RunWorkload(const char* workload, const Graph& data,
                 const std::vector<Graph>& queries, const MatchOptions& options,
                 std::vector<ParallelRow>* rows) {
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    ParallelAgg agg = RunParallelSet(data, queries, options, threads);
    const ModeledRun modeled = ModelRun(agg, threads);
    rows->push_back({workload, threads, std::move(agg), modeled});
  }
}

void RunParallelScalability(const BenchConfig& config) {
  MatchOptions options = MatchOptions::Optimized(Algorithm::kGraphQL);
  options.use_failing_sets = true;
  options.max_matches = 0;
  options.time_limit_ms = config.time_limit_ms;

  std::vector<ParallelRow> rows;

  // Workload 1: the section's RMAT graph with dense 8-vertex queries.
  const uint32_t vertices = config.full_scale ? 1000000u : 50000u;
  Prng prng(config.seed + 1717);
  const Graph rmat = GenerateRmat(vertices, vertices / 2 * 16, 16, &prng);
  const auto rmat_queries = MakeQuerySet(rmat, 8, QueryDensity::kDense,
                                         config.queries_per_set, config.seed);
  std::printf(
      "\n(parallel) work-stealing; imbalance and cp-speedup replay measured"
      " item costs (see source)\n"
      "rmat: |V|=%u d=16 |Sigma|=16, Q8D GQLfs find-all;"
      " skewed-hub: one heavy root + cheap decoys, triangle query\n",
      vertices);
  if (!rmat_queries.empty()) {
    RunWorkload("rmat", rmat, rmat_queries, options, &rows);
  } else {
    std::printf("no dense rmat queries extracted; skipping rmat workload\n");
  }

  // Workload 2: the skewed-hub acceptance instance (same shape as the
  // ParallelMatcherTest skewed workload, scaled up). Repeat the query a few
  // times so each configuration accumulates measurable work.
  // Sized so the fixed startup window (donation cannot begin until the OS
  // has scheduled every worker once) is small next to the per-query work.
  const uint32_t spokes = config.full_scale ? 1000000u : 200000u;
  const Graph skewed = MakeSkewedHubGraph(spokes, 63);
  const std::vector<Graph> skewed_queries(3, MakeTriangleQuery());
  RunWorkload("skewed-hub", skewed, skewed_queries, options, &rows);

  const auto baseline_of = [&](const char* workload) {
    for (const ParallelRow& row : rows) {
      if (row.workload == workload && row.threads == 1) {
        return row.modeled.makespan_ms;
      }
    }
    return 0.0;
  };

  PrintHeaderRow({"workload", "T", "wall-ms", "makespan", "imbal",
                  "cp-speedup", "chunks", "stolen"});
  for (const ParallelRow& row : rows) {
    const double baseline = baseline_of(row.workload);
    const double makespan = row.modeled.makespan_ms;
    PrintRow({row.workload, FormatCount(row.threads),
              FormatDouble(row.agg.wall_ms), FormatDouble(makespan),
              FormatDouble(row.modeled.imbalance),
              FormatDouble(makespan > 0.0 ? baseline / makespan : 1.0),
              FormatCount(row.agg.root_chunks),
              FormatCount(row.agg.stolen_subtasks)});
  }

  // Machine-readable trajectory record. Built as an obs::Json document so
  // each run entry embeds a full RunReport — the same per-run schema as
  // sgm_match --report and the other BENCH_*.json writers.
  obs::Json doc = obs::Json::Object();
  doc.Set("bench", obs::Json::String("fig17_scalability_parallel"));
  doc.Set("seed", obs::Json::Number(config.seed));
  doc.Set("hardware_concurrency",
          obs::Json::Number(uint64_t{std::thread::hardware_concurrency()}));
  doc.Set("scheduling_model",
          obs::Json::String(
              "per-item thread-CPU costs greedily list-scheduled onto T"
              " workers; T=1 is the serial engine's thread-CPU time"));
  obs::Json runs = obs::Json::Array();
  for (const ParallelRow& row : rows) {
    const double baseline = baseline_of(row.workload);
    const double makespan = row.modeled.makespan_ms;
    obs::Json entry = obs::Json::Object();
    entry.Set("workload", obs::Json::String(row.workload));
    entry.Set("threads", obs::Json::Number(uint64_t{row.threads}));
    entry.Set("wall_ms", obs::Json::Number(row.agg.wall_ms));
    entry.Set("total_busy_ms", obs::Json::Number(row.modeled.total_ms));
    entry.Set("makespan_ms", obs::Json::Number(makespan));
    entry.Set("load_imbalance", obs::Json::Number(row.modeled.imbalance));
    entry.Set("critical_path_speedup",
              obs::Json::Number(makespan > 0.0 ? baseline / makespan : 1.0));
    entry.Set("matches", obs::Json::Number(row.agg.matches));
    entry.Set("recursion_calls", obs::Json::Number(row.agg.recursion_calls));
    entry.Set("root_chunks", obs::Json::Number(row.agg.root_chunks));
    entry.Set("stolen_subtasks", obs::Json::Number(row.agg.stolen_subtasks));
    entry.Set("subtasks_published",
              obs::Json::Number(row.agg.subtasks_published));
    entry.Set("unsolved", obs::Json::Number(uint64_t{row.agg.unsolved}));
    entry.Set("run_report", row.agg.exemplar_report.ToJson());
    runs.Append(std::move(entry));
  }
  doc.Set("runs", std::move(runs));

  // Acceptance at 8 threads, per workload: the load-imbalance factor.
  obs::Json acceptance = obs::Json::Object();
  for (const ParallelRow& row : rows) {
    if (row.threads != 8) continue;
    obs::Json entry = obs::Json::Object();
    entry.Set("work_stealing_imbalance_8t",
              obs::Json::Number(row.modeled.imbalance));
    acceptance.Set(row.workload, std::move(entry));
  }
  doc.Set("acceptance", std::move(acceptance));

  std::FILE* json = std::fopen("BENCH_scalability.json", "w");
  if (json == nullptr) {
    std::printf("could not open BENCH_scalability.json for writing\n");
    return;
  }
  const std::string text = doc.Dump(2);
  std::fwrite(text.data(), 1, text.size(), json);
  std::fputc('\n', json);
  std::fclose(json);
  std::printf("wrote BENCH_scalability.json\n");
}

void Run() {
  const BenchConfig config = LoadBenchConfig();
  PrintBanner("Figure 17",
              "Scalability on RMAT (Q16D, find all results): mean query time"
              " / #unsolved per algorithm, #results",
              config);

  const ScaleDefaults defaults = config.full_scale
                                     ? ScaleDefaults{1000000, 16, 16}
                                     : ScaleDefaults{50000, 16, 16};
  const auto build = [&](uint32_t vertices, uint32_t degree,
                         uint32_t labels) {
    Prng prng(config.seed + vertices + degree * 131 + labels * 1313);
    return GenerateRmat(vertices, vertices / 2 * degree, labels, &prng);
  };

  std::printf("\n(a-c) vary average degree d(G), |V|=%u, |Σ|=%u\n",
              defaults.vertices, defaults.labels);
  PrintHeaderRow({"d(G)", "GQLfs", "uns-GQL", "RIfs", "uns-RI", "#results"});
  for (const uint32_t degree : {8u, 12u, 16u, 20u}) {
    Report(build(defaults.vertices, degree, defaults.labels), config,
           FormatCount(degree));
  }

  std::printf("\n(d-f) vary |Σ|, |V|=%u, d=%u\n", defaults.vertices,
              defaults.degree);
  PrintHeaderRow({"|Sigma|", "GQLfs", "uns-GQL", "RIfs", "uns-RI",
                  "#results"});
  for (const uint32_t labels : {8u, 12u, 16u, 20u}) {
    Report(build(defaults.vertices, defaults.degree, labels), config,
           FormatCount(labels));
  }

  std::printf("\n(g-i) vary |V|, d=%u, |Σ|=%u\n", defaults.degree,
              defaults.labels);
  PrintHeaderRow({"|V|", "GQLfs", "uns-GQL", "RIfs", "uns-RI", "#results"});
  for (const uint32_t scale : {1u, 2u, 4u, 8u}) {
    const uint32_t vertices = defaults.vertices / 4 * scale;
    Report(build(vertices, defaults.degree, defaults.labels), config,
           FormatCount(vertices));
  }

  RunParallelScalability(config);
}

}  // namespace
}  // namespace sgm::bench

int main() {
  sgm::bench::Run();
  return 0;
}
