#include "sgm/obs/run_report.h"

#include <sys/resource.h>

#include <cstdio>
#include <thread>
#include <utility>

// Build-type and sanitizer provenance injected by src/CMakeLists.txt;
// default to unknown/none when built outside CMake.
#ifndef SGM_BUILD_TYPE
#define SGM_BUILD_TYPE "unknown"
#endif
#ifndef SGM_SANITIZE_FLAGS
#define SGM_SANITIZE_FLAGS ""
#endif

namespace sgm::obs {

BuildProvenance BuildProvenance::Current() {
  BuildProvenance provenance;
#if defined(__clang__)
  provenance.compiler = "clang " + std::to_string(__clang_major__) + "." +
                        std::to_string(__clang_minor__) + "." +
                        std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  provenance.compiler = "gcc " + std::to_string(__GNUC__) + "." +
                        std::to_string(__GNUC_MINOR__) + "." +
                        std::to_string(__GNUC_PATCHLEVEL__);
#else
  provenance.compiler = "unknown";
#endif
  provenance.build_type = SGM_BUILD_TYPE;
  provenance.sanitizers = SGM_SANITIZE_FLAGS;
  provenance.hardware_threads = std::thread::hardware_concurrency();
  return provenance;
}

Json BuildProvenance::ToJson() const {
  Json json = Json::Object();
  json.Set("compiler", Json::String(compiler));
  json.Set("build_type", Json::String(build_type));
  json.Set("sanitizers", Json::String(sanitizers));
  json.Set("hardware_threads", Json::Number(uint64_t{hardware_threads}));
  return json;
}

uint64_t PeakRssBytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0 || usage.ru_maxrss < 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // ru_maxrss is KiB
}

RunReport BuildRunReport(const Graph& query, const Graph& data,
                         const MatchOptions& options,
                         const MatchResult& result) {
  RunReport report;
  const BuildProvenance provenance = BuildProvenance::Current();
  report.compiler = provenance.compiler;
  report.build_type = provenance.build_type;
  report.sanitizers = provenance.sanitizers;
  report.hardware_threads = provenance.hardware_threads;
  report.query_vertices = query.vertex_count();
  report.query_edges = query.edge_count();
  report.data_vertices = data.vertex_count();
  report.data_edges = data.edge_count();
  report.data_labels = data.label_count();

  report.filter = FilterMethodName(options.filter);
  report.order = OrderMethodName(options.order);
  report.lc_method = LocalCandidateMethodName(options.lc_method);
  report.aux_scope = AuxEdgeScopeName(options.aux_scope);
  report.intersection = IntersectionMethodName(options.intersection);
  report.use_lc_cache = options.use_lc_cache;
  report.use_failing_sets = options.use_failing_sets;
  report.adaptive_order = options.adaptive_order;
  report.vf2pp_lookahead = options.vf2pp_lookahead;
  report.postpone_degree_one = options.postpone_degree_one;
  report.max_matches = options.max_matches;
  report.time_limit_ms = options.time_limit_ms;

  report.filter_ms = result.filter_ms;
  report.aux_build_ms = result.aux_build_ms;
  report.order_ms = result.order_ms;
  report.enumeration_ms = result.enumeration_ms;
  report.preprocessing_ms = result.preprocessing_ms;
  report.total_ms = result.total_ms;

  report.average_candidates = result.average_candidates;
  report.candidate_memory_bytes = result.candidate_memory_bytes;
  report.aux_memory_bytes = result.aux_memory_bytes;
  report.filter_rounds = result.filter_rounds;
  report.matching_order.assign(result.matching_order.begin(),
                               result.matching_order.end());

  report.match_count = result.match_count;
  report.recursion_calls = result.enumerate.recursion_calls;
  report.local_candidates_scanned = result.enumerate.local_candidates_scanned;
  report.failing_set_prunes = result.enumerate.failing_set_prunes;
  report.bitmap_intersections = result.enumerate.bitmap_intersections;
  report.lc_cache_hits = result.enumerate.lc_cache_hits;
  report.lc_cache_misses = result.enumerate.lc_cache_misses;
  report.timed_out = result.enumerate.timed_out;
  report.reached_match_limit = result.enumerate.reached_match_limit;

  report.depth_profile = result.depth_profile;

  if (result.workers_used > 1) {
    report.engine = "parallel";
    report.parallel_mode = "work-stealing";
  }
  report.workers_used = result.workers_used;
  report.chunk_size = result.chunk_size;
  report.subtasks_published = result.subtasks_published;
  report.load_imbalance = result.LoadImbalance();
  report.workers.reserve(result.worker_stats.size());
  for (const WorkerStats& stats : result.worker_stats) {
    RunReportWorker worker;
    worker.root_chunks = stats.root_chunks;
    worker.stolen_subtasks = stats.stolen_subtasks;
    worker.recursion_calls = stats.recursion_calls;
    worker.matches_found = stats.matches_found;
    worker.busy_ms = stats.busy_ms;
    report.workers.push_back(worker);
  }
  return report;
}

Json RunReport::ToJson() const {
  Json root = Json::Object();
  root.Set("schema_version", Json::Number(kSchemaVersion));
  root.Set("engine", Json::String(engine));

  Json build = Json::Object();
  build.Set("compiler", Json::String(compiler));
  build.Set("build_type", Json::String(build_type));
  build.Set("sanitizers", Json::String(sanitizers));
  build.Set("hardware_threads", Json::Number(uint64_t{hardware_threads}));
  root.Set("build", std::move(build));

  Json query_json = Json::Object();
  query_json.Set("vertices", Json::Number(uint64_t{query_vertices}));
  query_json.Set("edges", Json::Number(uint64_t{query_edges}));
  root.Set("query", std::move(query_json));

  Json data_json = Json::Object();
  data_json.Set("vertices", Json::Number(uint64_t{data_vertices}));
  data_json.Set("edges", Json::Number(uint64_t{data_edges}));
  data_json.Set("labels", Json::Number(uint64_t{data_labels}));
  root.Set("data", std::move(data_json));

  Json config = Json::Object();
  config.Set("filter", Json::String(filter));
  config.Set("order", Json::String(order));
  config.Set("lc_method", Json::String(lc_method));
  config.Set("aux_scope", Json::String(aux_scope));
  config.Set("intersection", Json::String(intersection));
  config.Set("use_lc_cache", Json::Bool(use_lc_cache));
  config.Set("use_failing_sets", Json::Bool(use_failing_sets));
  config.Set("adaptive_order", Json::Bool(adaptive_order));
  config.Set("vf2pp_lookahead", Json::Bool(vf2pp_lookahead));
  config.Set("postpone_degree_one", Json::Bool(postpone_degree_one));
  config.Set("max_matches", Json::Number(max_matches));
  config.Set("time_limit_ms", Json::Number(time_limit_ms));
  root.Set("config", std::move(config));

  Json phases = Json::Object();
  phases.Set("ingest_ms", Json::Number(ingest_ms));
  phases.Set("filter_ms", Json::Number(filter_ms));
  phases.Set("aux_build_ms", Json::Number(aux_build_ms));
  phases.Set("order_ms", Json::Number(order_ms));
  phases.Set("enumeration_ms", Json::Number(enumeration_ms));
  phases.Set("preprocessing_ms", Json::Number(preprocessing_ms));
  phases.Set("total_ms", Json::Number(total_ms));
  root.Set("phases", std::move(phases));

  Json candidates = Json::Object();
  candidates.Set("average", Json::Number(average_candidates));
  candidates.Set("memory_bytes", Json::Number(candidate_memory_bytes));
  candidates.Set("aux_memory_bytes", Json::Number(aux_memory_bytes));
  root.Set("candidates", std::move(candidates));

  Json process = Json::Object();
  process.Set("peak_rss_bytes", Json::Number(peak_rss_bytes));
  root.Set("process", std::move(process));

  Json rounds = Json::Array();
  for (const FilterRound& round : filter_rounds) {
    Json entry = Json::Object();
    entry.Set("name", Json::String(round.name));
    entry.Set("total_candidates", Json::Number(round.total_candidates));
    entry.Set("ms", Json::Number(round.ms));
    rounds.Append(std::move(entry));
  }
  root.Set("filter_rounds", std::move(rounds));

  Json order_json = Json::Array();
  for (const uint32_t u : matching_order) {
    order_json.Append(Json::Number(uint64_t{u}));
  }
  root.Set("matching_order", std::move(order_json));

  Json enumerate = Json::Object();
  enumerate.Set("match_count", Json::Number(match_count));
  enumerate.Set("recursion_calls", Json::Number(recursion_calls));
  enumerate.Set("local_candidates_scanned",
                Json::Number(local_candidates_scanned));
  enumerate.Set("failing_set_prunes", Json::Number(failing_set_prunes));
  enumerate.Set("bitmap_intersections", Json::Number(bitmap_intersections));
  enumerate.Set("lc_cache_hits", Json::Number(lc_cache_hits));
  enumerate.Set("lc_cache_misses", Json::Number(lc_cache_misses));
  enumerate.Set("timed_out", Json::Bool(timed_out));
  enumerate.Set("reached_match_limit", Json::Bool(reached_match_limit));
  root.Set("enumerate", std::move(enumerate));

  Json profile = Json::Array();
  for (size_t d = 0; d < depth_profile.depths.size(); ++d) {
    const DepthStats& stats = depth_profile.depths[d];
    Json entry = Json::Object();
    entry.Set("depth", Json::Number(uint64_t{d}));
    entry.Set("recursion_calls", Json::Number(stats.recursion_calls));
    entry.Set("local_candidates", Json::Number(stats.local_candidates));
    entry.Set("empty_local_candidates",
              Json::Number(stats.empty_local_candidates));
    entry.Set("conflicts", Json::Number(stats.conflicts));
    entry.Set("failing_set_prunes", Json::Number(stats.failing_set_prunes));
    entry.Set("matches", Json::Number(stats.matches));
    entry.Set("sampled_ms", Json::Number(stats.sampled_ms));
    profile.Append(std::move(entry));
  }
  root.Set("depth_profile", std::move(profile));

  Json parallel = Json::Object();
  parallel.Set("mode", Json::String(parallel_mode));
  parallel.Set("workers_used", Json::Number(uint64_t{workers_used}));
  parallel.Set("chunk_size", Json::Number(uint64_t{chunk_size}));
  parallel.Set("subtasks_published", Json::Number(subtasks_published));
  parallel.Set("load_imbalance", Json::Number(load_imbalance));
  Json workers_json = Json::Array();
  for (const RunReportWorker& worker : workers) {
    Json entry = Json::Object();
    entry.Set("root_chunks", Json::Number(uint64_t{worker.root_chunks}));
    entry.Set("stolen_subtasks",
              Json::Number(uint64_t{worker.stolen_subtasks}));
    entry.Set("recursion_calls", Json::Number(worker.recursion_calls));
    entry.Set("matches_found", Json::Number(worker.matches_found));
    entry.Set("busy_ms", Json::Number(worker.busy_ms));
    workers_json.Append(std::move(entry));
  }
  parallel.Set("workers", std::move(workers_json));
  root.Set("parallel", std::move(parallel));

  Json service = Json::Object();
  service.Set("served", Json::Bool(served));
  service.Set("plan_cache_hit", Json::Bool(plan_cache_hit));
  service.Set("queue_ms", Json::Number(queue_ms));
  service.Set("queue_depth", Json::Number(uint64_t{queue_depth}));
  service.Set("request_status", Json::String(request_status));
  service.Set("metrics", service_metrics);
  root.Set("service", std::move(service));

  Json dynamic = Json::Object();
  dynamic.Set("enabled", Json::Bool(dynamic_enabled));
  dynamic.Set("graph_epoch", Json::Number(graph_epoch));
  dynamic.Set("update_batches", Json::Number(update_batches));
  dynamic.Set("update_ops", Json::Number(update_ops));
  dynamic.Set("delta_additions", Json::Number(delta_additions));
  dynamic.Set("delta_retractions", Json::Number(delta_retractions));
  dynamic.Set("candidates_repaired", Json::Number(candidates_repaired));
  dynamic.Set("compactions", Json::Number(graph_compactions));
  dynamic.Set("overlay_bytes", Json::Number(overlay_bytes));
  dynamic.Set("update_apply_ms", Json::Number(update_apply_ms));
  dynamic.Set("delta_enumerate_ms", Json::Number(delta_enumerate_ms));
  dynamic.Set("continuous_queries", Json::Number(continuous_queries));
  root.Set("dynamic", std::move(dynamic));
  return root;
}

RunReport RunReport::FromJson(const Json& json) {
  RunReport report;
  if (!json.is_object()) return report;
  report.engine = json.GetString("engine", "serial");

  if (const Json* build = json.Get("build"); build != nullptr) {
    report.compiler = build->GetString("compiler");
    report.build_type = build->GetString("build_type");
    report.sanitizers = build->GetString("sanitizers");
    report.hardware_threads =
        static_cast<uint32_t>(build->GetUint64("hardware_threads"));
  }
  if (const Json* query = json.Get("query"); query != nullptr) {
    report.query_vertices =
        static_cast<uint32_t>(query->GetUint64("vertices"));
    report.query_edges = static_cast<uint32_t>(query->GetUint64("edges"));
  }
  if (const Json* data = json.Get("data"); data != nullptr) {
    report.data_vertices = static_cast<uint32_t>(data->GetUint64("vertices"));
    report.data_edges = static_cast<uint32_t>(data->GetUint64("edges"));
    report.data_labels = static_cast<uint32_t>(data->GetUint64("labels"));
  }
  if (const Json* config = json.Get("config"); config != nullptr) {
    report.filter = config->GetString("filter");
    report.order = config->GetString("order");
    report.lc_method = config->GetString("lc_method");
    report.aux_scope = config->GetString("aux_scope");
    report.intersection = config->GetString("intersection");
    report.use_lc_cache = config->GetBool("use_lc_cache");
    report.use_failing_sets = config->GetBool("use_failing_sets");
    report.adaptive_order = config->GetBool("adaptive_order");
    report.vf2pp_lookahead = config->GetBool("vf2pp_lookahead");
    report.postpone_degree_one = config->GetBool("postpone_degree_one");
    report.max_matches = config->GetUint64("max_matches");
    report.time_limit_ms = config->GetDouble("time_limit_ms");
  }
  if (const Json* phases = json.Get("phases"); phases != nullptr) {
    report.ingest_ms = phases->GetDouble("ingest_ms");
    report.filter_ms = phases->GetDouble("filter_ms");
    report.aux_build_ms = phases->GetDouble("aux_build_ms");
    report.order_ms = phases->GetDouble("order_ms");
    report.enumeration_ms = phases->GetDouble("enumeration_ms");
    report.preprocessing_ms = phases->GetDouble("preprocessing_ms");
    report.total_ms = phases->GetDouble("total_ms");
  }
  if (const Json* candidates = json.Get("candidates"); candidates != nullptr) {
    report.average_candidates = candidates->GetDouble("average");
    report.candidate_memory_bytes = candidates->GetUint64("memory_bytes");
    report.aux_memory_bytes = candidates->GetUint64("aux_memory_bytes");
  }
  if (const Json* process = json.Get("process"); process != nullptr) {
    report.peak_rss_bytes = process->GetUint64("peak_rss_bytes");
  }
  if (const Json* rounds = json.Get("filter_rounds");
      rounds != nullptr && rounds->is_array()) {
    for (size_t i = 0; i < rounds->size(); ++i) {
      const Json& entry = rounds->at(i);
      FilterRound round;
      round.name = entry.GetString("name");
      round.total_candidates = entry.GetUint64("total_candidates");
      round.ms = entry.GetDouble("ms");
      report.filter_rounds.push_back(std::move(round));
    }
  }
  if (const Json* order = json.Get("matching_order");
      order != nullptr && order->is_array()) {
    for (size_t i = 0; i < order->size(); ++i) {
      report.matching_order.push_back(
          static_cast<uint32_t>(order->at(i).AsUint64()));
    }
  }
  if (const Json* enumerate = json.Get("enumerate"); enumerate != nullptr) {
    report.match_count = enumerate->GetUint64("match_count");
    report.recursion_calls = enumerate->GetUint64("recursion_calls");
    report.local_candidates_scanned =
        enumerate->GetUint64("local_candidates_scanned");
    report.failing_set_prunes = enumerate->GetUint64("failing_set_prunes");
    report.bitmap_intersections = enumerate->GetUint64("bitmap_intersections");
    report.lc_cache_hits = enumerate->GetUint64("lc_cache_hits");
    report.lc_cache_misses = enumerate->GetUint64("lc_cache_misses");
    report.timed_out = enumerate->GetBool("timed_out");
    report.reached_match_limit = enumerate->GetBool("reached_match_limit");
  }
  if (const Json* profile = json.Get("depth_profile");
      profile != nullptr && profile->is_array()) {
    report.depth_profile.depths.resize(profile->size());
    for (size_t i = 0; i < profile->size(); ++i) {
      const Json& entry = profile->at(i);
      const size_t depth =
          static_cast<size_t>(entry.GetUint64("depth", uint64_t{i}));
      if (depth >= report.depth_profile.depths.size()) {
        report.depth_profile.depths.resize(depth + 1);
      }
      DepthStats& stats = report.depth_profile.depths[depth];
      stats.recursion_calls = entry.GetUint64("recursion_calls");
      stats.local_candidates = entry.GetUint64("local_candidates");
      stats.empty_local_candidates =
          entry.GetUint64("empty_local_candidates");
      stats.conflicts = entry.GetUint64("conflicts");
      stats.failing_set_prunes = entry.GetUint64("failing_set_prunes");
      stats.matches = entry.GetUint64("matches");
      stats.sampled_ms = entry.GetDouble("sampled_ms");
    }
  }
  if (const Json* parallel = json.Get("parallel"); parallel != nullptr) {
    report.parallel_mode = parallel->GetString("mode", "none");
    report.workers_used =
        static_cast<uint32_t>(parallel->GetUint64("workers_used", 1));
    report.chunk_size =
        static_cast<uint32_t>(parallel->GetUint64("chunk_size"));
    report.subtasks_published = parallel->GetUint64("subtasks_published");
    report.load_imbalance = parallel->GetDouble("load_imbalance", 1.0);
    if (const Json* workers_json = parallel->Get("workers");
        workers_json != nullptr && workers_json->is_array()) {
      for (size_t i = 0; i < workers_json->size(); ++i) {
        const Json& entry = workers_json->at(i);
        RunReportWorker worker;
        worker.root_chunks =
            static_cast<uint32_t>(entry.GetUint64("root_chunks"));
        worker.stolen_subtasks =
            static_cast<uint32_t>(entry.GetUint64("stolen_subtasks"));
        worker.recursion_calls = entry.GetUint64("recursion_calls");
        worker.matches_found = entry.GetUint64("matches_found");
        worker.busy_ms = entry.GetDouble("busy_ms");
        report.workers.push_back(worker);
      }
    }
  }
  if (const Json* service = json.Get("service"); service != nullptr) {
    report.served = service->GetBool("served");
    report.plan_cache_hit = service->GetBool("plan_cache_hit");
    report.queue_ms = service->GetDouble("queue_ms");
    report.queue_depth =
        static_cast<uint32_t>(service->GetUint64("queue_depth"));
    report.request_status = service->GetString("request_status", "none");
    if (const Json* metrics = service->Get("metrics"); metrics != nullptr) {
      report.service_metrics = *metrics;
    }
  }
  if (const Json* dynamic = json.Get("dynamic"); dynamic != nullptr) {
    report.dynamic_enabled = dynamic->GetBool("enabled");
    report.graph_epoch = dynamic->GetUint64("graph_epoch");
    report.update_batches = dynamic->GetUint64("update_batches");
    report.update_ops = dynamic->GetUint64("update_ops");
    report.delta_additions = dynamic->GetUint64("delta_additions");
    report.delta_retractions = dynamic->GetUint64("delta_retractions");
    report.candidates_repaired = dynamic->GetUint64("candidates_repaired");
    report.graph_compactions = dynamic->GetUint64("compactions");
    report.overlay_bytes = dynamic->GetUint64("overlay_bytes");
    report.update_apply_ms = dynamic->GetDouble("update_apply_ms");
    report.delta_enumerate_ms = dynamic->GetDouble("delta_enumerate_ms");
    report.continuous_queries = dynamic->GetUint64("continuous_queries");
  }
  return report;
}

bool RunReport::WriteFile(const std::string& path, std::string* error) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  const std::string text = ToJson().Dump(2);
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) ==
                      text.size() &&
                  std::fputc('\n', file) != EOF;
  std::fclose(file);
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

}  // namespace sgm::obs
