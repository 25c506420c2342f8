// Dynamic-update acceptance benchmark (DESIGN.md §13): on a 100k-vertex
// RMAT graph with batches of at most 64 edge updates, compare applying a
// batch incrementally (delta overlay + candidate repair + anchored delta
// enumeration through ContinuousMatcher) against what a static system must
// do for the same batch — rebuild the CSR from scratch and re-match every
// standing query. Counts are cross-checked per batch: the incrementally
// maintained match count of every query must equal the rebuilt graph's
// cold match count, so the speedup this bench reports is for *exact* work.
// Writes BENCH_dynamic.json; bench/BENCH_dynamic_baseline.json pins the
// floor via the dynamic_speedup check in bench/regression_manifest.json.
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "report.h"
#include "workloads.h"
#include "sgm/dynamic/continuous.h"
#include "sgm/dynamic/dynamic_graph.h"
#include "sgm/dynamic/update_batch.h"
#include "sgm/graph/generators.h"
#include "sgm/graph/graph_builder.h"
#include "sgm/matcher.h"
#include "sgm/obs/json.h"
#include "sgm/util/timer.h"

namespace sgm::bench {
namespace {

// Mutable mirror of the graph a static system would maintain: the full
// label and edge lists the per-batch CSR rebuild starts from. Keeping the
// mirror current is untimed bookkeeping — a static system has its edge
// list ready too; what it cannot skip is the rebuild + rematch, which is
// exactly what the rebuild pass times.
struct MirrorGraph {
  std::vector<Label> labels;
  std::set<std::pair<Vertex, Vertex>> edges;
  Label tombstone = 0;

  void Apply(const dynamic::UpdateOp& op) {
    switch (op.kind) {
      case dynamic::UpdateKind::kAddEdge:
        edges.insert(std::minmax(op.u, op.v));
        break;
      case dynamic::UpdateKind::kRemoveEdge:
        edges.erase(std::minmax(op.u, op.v));
        break;
      case dynamic::UpdateKind::kAddVertex:
        labels.push_back(op.label);
        break;
      case dynamic::UpdateKind::kRemoveVertex:
        labels[op.u] = tombstone;  // stays as an isolated tombstone
        break;
    }
  }

  Graph Build() const {
    GraphBuilder builder;
    for (const Label label : labels) builder.AddVertex(label);
    for (const auto& [u, v] : edges) builder.AddEdge(u, v);
    return builder.Build();
  }
};

MirrorGraph MakeMirror(const Graph& graph, Label tombstone) {
  MirrorGraph mirror;
  mirror.tombstone = tombstone;
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    mirror.labels.push_back(graph.label(v));
  }
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    for (const Vertex w : graph.neighbors(v)) {
      if (v < w) mirror.edges.emplace(v, w);
    }
  }
  return mirror;
}

void Run() {
  const BenchConfig config = LoadBenchConfig();
  PrintBanner("Dynamic updates",
              "incremental batch apply vs rebuild-and-rematch, exact counts"
              " cross-checked per batch",
              config);

  // The acceptance scale is fixed at 100k vertices (the criterion this
  // bench records); SGM_BENCH_FULL bumps the edge volume, not |V|.
  const uint32_t vertices = 100000;
  const uint32_t edges = config.full_scale ? 1000000 : 400000;
  constexpr uint32_t kLabels = 24;
  constexpr uint32_t kQueries = 4;
  constexpr uint32_t kBatches = 16;
  constexpr uint32_t kMaxOpsPerBatch = 64;

  Prng prng(config.seed + 140);
  const Graph base = GenerateRmat(vertices, edges, kLabels, &prng);
  std::printf("graph: |V|=%u |E|=%u |Sigma|=%u\n", base.vertex_count(),
              base.edge_count(), kLabels);

  const std::vector<Graph> queries =
      MakeQuerySet(base, 8, QueryDensity::kAny, kQueries, config.seed + 141);
  if (queries.empty()) {
    std::printf("no queries extracted; aborting\n");
    return;
  }

  // Edge-churn stream: the acceptance criterion is about edge updates, so
  // vertex ops are weighted out.
  dynamic::StreamGenOptions stream_options;
  stream_options.batches = kBatches;
  stream_options.max_ops_per_batch = kMaxOpsPerBatch;
  stream_options.add_edge_weight = 0.55;
  stream_options.remove_edge_weight = 0.45;
  stream_options.add_vertex_weight = 0.0;
  stream_options.remove_vertex_weight = 0.0;
  const dynamic::UpdateStream stream =
      dynamic::GenerateUpdateStream(base, stream_options, &prng);

  // All matches, no budget: the per-batch count cross-check needs exact
  // counts on both sides.
  MatchOptions options = MatchOptions::Recommended(8);
  options.max_matches = 0;
  options.time_limit_ms = config.full_scale ? 300000.0 : 60000.0;

  dynamic::DynamicGraph graph(base);
  dynamic::ContinuousMatcher matcher(&graph);
  std::vector<uint64_t> maintained;  // per query, folded from the deltas
  std::vector<uint64_t> query_ids;
  for (const Graph& query : queries) {
    std::string error;
    const uint64_t id = matcher.Register(query, &error);
    if (id == 0) {
      std::printf("query rejected: %s\n", error.c_str());
      return;
    }
    query_ids.push_back(id);
    maintained.push_back(MatchQuery(query, base, options).match_count);
  }

  MirrorGraph mirror = MakeMirror(base, graph.tombstone_label());

  PrintHeaderRow({"batch", "ops", "+adds", "-retracts", "incr-ms",
                  "rebuild-ms", "speedup", "exact"});

  double incremental_ms = 0.0, rebuild_ms = 0.0;
  double apply_ms = 0.0, enumerate_ms = 0.0;
  uint64_t additions = 0, retractions = 0, candidates_repaired = 0;
  size_t total_ops = 0;
  bool consistent = true;
  obs::Json batches_json = obs::Json::Array();

  for (size_t b = 0; b < stream.batches.size(); ++b) {
    const dynamic::UpdateBatch& batch = stream.batches[b];
    total_ops += batch.ops.size();

    // Incremental side: one timed ApplyBatch.
    Timer incr_timer;
    std::string error;
    const auto result = matcher.ApplyBatch(batch, &error);
    const double batch_incr_ms = incr_timer.ElapsedMillis();
    if (!result.has_value()) {
      std::printf("batch %zu failed to apply: %s\n", b, error.c_str());
      return;
    }
    incremental_ms += batch_incr_ms;
    apply_ms += result->apply_ms;
    enumerate_ms += result->enumerate_ms;
    uint64_t batch_adds = 0, batch_retracts = 0;
    for (size_t q = 0; q < result->deltas.size(); ++q) {
      const dynamic::MatchDelta& delta = result->deltas[q];
      maintained[q] += delta.additions;
      maintained[q] -= delta.retractions;
      batch_adds += delta.additions;
      batch_retracts += delta.retractions;
      candidates_repaired += delta.candidates_repaired;
    }
    additions += batch_adds;
    retractions += batch_retracts;

    // Rebuild side: what a static system does for the same batch — a
    // fresh CSR from the full edge list, then a cold match per standing
    // query. The mirror update itself is untimed bookkeeping.
    for (const dynamic::UpdateOp& op : batch.ops) mirror.Apply(op);
    Timer rebuild_timer;
    const Graph rebuilt = mirror.Build();
    std::vector<uint64_t> cold_counts;
    for (const Graph& query : queries) {
      cold_counts.push_back(MatchQuery(query, rebuilt, options).match_count);
    }
    const double batch_rebuild_ms = rebuild_timer.ElapsedMillis();
    rebuild_ms += batch_rebuild_ms;

    bool batch_exact = true;
    for (size_t q = 0; q < queries.size(); ++q) {
      if (maintained[q] != cold_counts[q]) batch_exact = false;
    }
    consistent &= batch_exact;

    PrintRow({FormatCount(b), FormatCount(batch.ops.size()),
              FormatCount(batch_adds), FormatCount(batch_retracts),
              FormatDouble(batch_incr_ms), FormatDouble(batch_rebuild_ms),
              FormatDouble(batch_incr_ms > 0.0
                               ? batch_rebuild_ms / batch_incr_ms
                               : 0.0),
              batch_exact ? "yes" : "NO"});

    obs::Json entry = obs::Json::Object();
    entry.Set("batch", obs::Json::Number(uint64_t{b}));
    entry.Set("ops", obs::Json::Number(uint64_t{batch.ops.size()}));
    entry.Set("additions", obs::Json::Number(batch_adds));
    entry.Set("retractions", obs::Json::Number(batch_retracts));
    entry.Set("incremental_ms", obs::Json::Number(batch_incr_ms));
    entry.Set("rebuild_ms", obs::Json::Number(batch_rebuild_ms));
    entry.Set("counts_identical", obs::Json::Bool(batch_exact));
    batches_json.Append(std::move(entry));
  }

  const double speedup =
      incremental_ms > 0.0 ? rebuild_ms / incremental_ms : 0.0;
  std::printf("\ntotals: %zu batches, %zu ops, +%llu / -%llu matches\n",
              stream.batches.size(), total_ops,
              static_cast<unsigned long long>(additions),
              static_cast<unsigned long long>(retractions));
  std::printf("incremental %.2f ms vs rebuild-and-rematch %.2f ms"
              " -> speedup %.1fx, counts %s\n",
              incremental_ms, rebuild_ms, speedup,
              consistent ? "identical" : "DIVERGED");

  obs::Json root = obs::Json::Object();
  root.Set("bench", obs::Json::String("dynamic_updates"));
  root.Set("seed", obs::Json::Number(config.seed));
  obs::Json graph_json = obs::Json::Object();
  graph_json.Set("vertices", obs::Json::Number(uint64_t{base.vertex_count()}));
  graph_json.Set("edges", obs::Json::Number(uint64_t{base.edge_count()}));
  graph_json.Set("labels", obs::Json::Number(uint64_t{kLabels}));
  root.Set("graph", std::move(graph_json));
  root.Set("queries", obs::Json::Number(uint64_t{queries.size()}));
  root.Set("batches", obs::Json::Number(uint64_t{stream.batches.size()}));
  root.Set("ops", obs::Json::Number(uint64_t{total_ops}));
  root.Set("max_ops_per_batch", obs::Json::Number(uint64_t{kMaxOpsPerBatch}));
  obs::Json incr_json = obs::Json::Object();
  incr_json.Set("total_ms", obs::Json::Number(incremental_ms));
  incr_json.Set("apply_ms", obs::Json::Number(apply_ms));
  incr_json.Set("enumerate_ms", obs::Json::Number(enumerate_ms));
  incr_json.Set("additions", obs::Json::Number(additions));
  incr_json.Set("retractions", obs::Json::Number(retractions));
  incr_json.Set("candidates_repaired",
                obs::Json::Number(candidates_repaired));
  root.Set("incremental", std::move(incr_json));
  obs::Json rebuild_json = obs::Json::Object();
  rebuild_json.Set("total_ms", obs::Json::Number(rebuild_ms));
  root.Set("rebuild", std::move(rebuild_json));
  root.Set("speedup", obs::Json::Number(speedup));
  root.Set("counts_identical", obs::Json::Bool(consistent));
  root.Set("per_batch", std::move(batches_json));

  std::FILE* json = std::fopen("BENCH_dynamic.json", "w");
  if (json == nullptr) {
    std::printf("could not open BENCH_dynamic.json for writing\n");
    return;
  }
  const std::string text = root.Dump(2);
  std::fwrite(text.data(), 1, text.size(), json);
  std::fputc('\n', json);
  std::fclose(json);
  std::printf("wrote BENCH_dynamic.json\n");
}

}  // namespace
}  // namespace sgm::bench

int main() {
  sgm::bench::Run();
  return 0;
}
