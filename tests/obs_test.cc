// Tests of the observability layer (sgm/obs): the JSON model, the phase
// timer, thread-CPU timing, Chrome trace-event export, the per-depth search
// profile's exact consistency with EnumerateStats, and the RunReport schema
// shared by serial and parallel runs.
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sgm/matcher.h"
#include "sgm/obs/collector.h"
#include "sgm/obs/depth_profile.h"
#include "sgm/obs/json.h"
#include "sgm/obs/phase_timer.h"
#include "sgm/obs/run_report.h"
#include "sgm/obs/trace.h"
#include "sgm/util/timer.h"
#include "test_support.h"

namespace sgm {
namespace {

using obs::Json;
using sgm::testing::MakeGraph;
using sgm::testing::PaperData;
using sgm::testing::PaperQuery;
using sgm::testing::TriangleQuery;

// ---- Json. ----

TEST(JsonTest, DumpIsCompactAndIntegerClean) {
  Json doc = Json::Object();
  doc.Set("count", Json::Number(uint64_t{42}));
  doc.Set("ratio", Json::Number(2.5));
  doc.Set("name", Json::String("GQL"));
  doc.Set("on", Json::Bool(true));
  doc.Set("none", Json::Null());
  Json list = Json::Array();
  list.Append(Json::Number(int64_t{-7}));
  list.Append(Json::Number(uint64_t{1234567890123}));
  doc.Set("list", std::move(list));

  EXPECT_EQ(doc.Dump(),
            "{\"count\":42,\"ratio\":2.5,\"name\":\"GQL\",\"on\":true,"
            "\"none\":null,\"list\":[-7,1234567890123]}");
}

TEST(JsonTest, ParseRoundTripsDump) {
  Json doc = Json::Object();
  doc.Set("text", Json::String("quote\" slash\\ newline\n tab\t"));
  Json inner = Json::Object();
  inner.Set("empty_array", Json::Array());
  inner.Set("empty_object", Json::Object());
  doc.Set("inner", std::move(inner));
  doc.Set("pi", Json::Number(3.140625));  // Exact in binary.

  for (const int indent : {0, 2}) {
    const std::string text = doc.Dump(indent);
    std::string error;
    const std::optional<Json> parsed = Json::Parse(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->Dump(indent), text);
  }
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  for (const char* bad : {"", "{\"a\":", "[1, 2", "42 tail", "{\"a\" 1}"}) {
    std::string error;
    EXPECT_FALSE(Json::Parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(JsonTest, ParseRejectsPathologicalNesting) {
  // Recursive descent: unbounded '[' nesting would overflow the stack
  // (found by the json libFuzzer target). Deep-but-reasonable documents
  // must still parse, and flat width must not count as depth.
  std::string deep(100000, '[');
  std::string error;
  EXPECT_FALSE(Json::Parse(deep, &error).has_value());
  EXPECT_NE(error.find("nesting"), std::string::npos);

  std::string balanced = std::string(64, '[') + std::string(64, ']');
  EXPECT_TRUE(Json::Parse(balanced, &error).has_value()) << error;

  std::string wide = "[";
  for (int i = 0; i < 1000; ++i) wide += "{},";
  wide += "{}]";
  EXPECT_TRUE(Json::Parse(wide, &error).has_value()) << error;
}

TEST(JsonTest, ParseRejectsMalformedUnicodeEscape) {
  std::string error;
  EXPECT_FALSE(Json::Parse("\"\\uzzzz\"", &error).has_value());
  EXPECT_FALSE(Json::Parse("\"\\u12\"", &error).has_value());
  const auto ok = Json::Parse("\"\\u0041\"", &error);
  ASSERT_TRUE(ok.has_value()) << error;
  EXPECT_EQ(ok->AsString(), "A");
}

TEST(JsonTest, TypedLookupsFallBack) {
  Json doc = Json::Object();
  doc.Set("n", Json::Number(uint64_t{9}));
  doc.Set("s", Json::String("x"));
  EXPECT_EQ(doc.GetUint64("n"), 9u);
  EXPECT_EQ(doc.GetUint64("missing", 17), 17u);
  EXPECT_EQ(doc.GetUint64("s", 17), 17u);  // Wrong type falls back too.
  EXPECT_EQ(doc.GetString("s"), "x");
  EXPECT_EQ(doc.GetString("missing", "d"), "d");
  EXPECT_TRUE(doc.GetBool("missing", true));
  EXPECT_EQ(doc.Get("missing"), nullptr);
}

TEST(JsonTest, EscapeHandlesSpecialCharacters) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// JSON has no NaN/Inf tokens; serializing them as null keeps documents
// parseable (empty-histogram percentiles and zero-division rates hit this).
TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(Json::Number(std::nan("")).Dump(), "null");
  EXPECT_EQ(Json::Number(std::numeric_limits<double>::infinity()).Dump(),
            "null");
  EXPECT_EQ(Json::Number(-std::numeric_limits<double>::infinity()).Dump(),
            "null");

  Json doc = Json::Object();
  doc.Set("p50_ms", Json::Number(std::nan("")));
  doc.Set("count", Json::Number(uint64_t{0}));
  const std::string dumped = doc.Dump();
  EXPECT_EQ(dumped, "{\"p50_ms\":null,\"count\":0}");
  std::string error;
  const std::optional<Json> parsed = Json::Parse(dumped, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->Get("p50_ms")->is_null());
}

// ---- PhaseTimer. ----

TEST(PhaseTimerTest, MeasuresPhasesAndEmitsSpans) {
  obs::TraceBuffer trace;
  obs::PhaseTimer timer(&trace);
  timer.Begin("alpha");
  const double alpha_ms = timer.Begin("beta");
  EXPECT_GE(alpha_ms, 0.0);
  const double beta_ms = timer.End();
  EXPECT_GE(beta_ms, 0.0);
  EXPECT_EQ(timer.End(), 0.0);  // No phase running: idempotent.

  const std::vector<obs::TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "alpha");
  EXPECT_EQ(events[1].name, "beta");
  for (const obs::TraceEvent& event : events) {
    EXPECT_EQ(event.category, "phase");
    EXPECT_GE(event.ts_us, 0.0);
    EXPECT_GE(event.dur_us, 0.0);
    EXPECT_GE(event.tdur_us, 0.0);  // Thread-CPU time was sampled.
    EXPECT_EQ(event.tid, 0u);
  }
}

TEST(PhaseTimerTest, WorksWithoutTraceBuffer) {
  obs::PhaseTimer timer;  // Timing only.
  timer.Begin(obs::kPhaseFilter);
  EXPECT_GE(timer.End(), 0.0);
}

// ---- ThreadCpuTimer. ----

TEST(ThreadCpuTimerTest, IsMonotoneAndAdvancesUnderWork) {
  const int64_t before = ThreadCpuTimer::NowNanos();
  ThreadCpuTimer timer;
  volatile uint64_t sink = 0;
  while (timer.ElapsedNanos() <= 0) {
    for (int i = 0; i < 1000; ++i) {
      sink = sink + static_cast<uint64_t>(i);
    }
  }
  EXPECT_GT(timer.ElapsedNanos(), 0);
  EXPECT_GE(ThreadCpuTimer::NowNanos(), before);
  timer.Reset();
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
}

// ---- Chrome trace-event export. ----

// Validates one document against the Chrome trace event format (JSON Object
// Format): {"traceEvents": [...]} where every event carries name/ph/pid/tid
// and "X" (complete) events carry ts + dur.
void ValidateChromeTrace(const Json& doc, size_t* complete_events,
                         size_t* metadata_events) {
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.GetString("displayTimeUnit"), "ms");
  const Json* events = doc.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  for (size_t i = 0; i < events->size(); ++i) {
    const Json& event = events->at(i);
    ASSERT_TRUE(event.is_object());
    EXPECT_NE(event.Get("name"), nullptr);
    ASSERT_NE(event.Get("ph"), nullptr);
    EXPECT_NE(event.Get("pid"), nullptr);
    EXPECT_NE(event.Get("tid"), nullptr);
    const std::string ph = event.GetString("ph");
    if (ph == "X") {
      ++*complete_events;
      ASSERT_NE(event.Get("ts"), nullptr);
      ASSERT_NE(event.Get("dur"), nullptr);
      EXPECT_GE(event.Get("ts")->AsDouble(), 0.0);
      EXPECT_GE(event.Get("dur")->AsDouble(), 0.0);
    } else if (ph == "M") {
      ++*metadata_events;
      EXPECT_EQ(event.GetString("name"), "thread_name");
      const Json* args = event.Get("args");
      ASSERT_NE(args, nullptr);
      EXPECT_NE(args->Get("name"), nullptr);
    } else {
      ADD_FAILURE() << "unexpected event phase: " << ph;
    }
  }
}

TEST(TraceTest, SerialRunWritesValidChromeTraceFile) {
  obs::Collector collector;
  collector.EnableTrace();
  MatchOptions options;
  options.collector = &collector;
  const MatchResult result = MatchQuery(PaperQuery(), PaperData(), options);
  EXPECT_EQ(result.match_count, 2u);

  const std::string path = ::testing::TempDir() + "sgm_obs_trace.json";
  std::string error;
  ASSERT_TRUE(collector.trace_buffer().WriteFile(path, &error)) << error;

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());

  const std::optional<Json> doc = Json::Parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  size_t complete = 0;
  size_t metadata = 0;
  ValidateChromeTrace(*doc, &complete, &metadata);
  EXPECT_GE(metadata, 1u);  // The "pipeline" thread is named.

  // The four pipeline phases appear as complete spans.
  std::set<std::string> span_names;
  const Json* events = doc->Get("traceEvents");
  for (size_t i = 0; i < events->size(); ++i) {
    if (events->at(i).GetString("ph") == "X") {
      span_names.insert(events->at(i).GetString("name"));
    }
  }
  EXPECT_TRUE(span_names.count(obs::kPhaseFilter));
  EXPECT_TRUE(span_names.count(obs::kPhaseAuxBuild));
  EXPECT_TRUE(span_names.count(obs::kPhaseOrder));
  EXPECT_TRUE(span_names.count(obs::kPhaseEnumeration));
  EXPECT_GE(complete, 4u);
}

// A complete graph on `n` one-label vertices: dense enough that a triangle
// query exceeds the engine's 1024-call sampling checkpoint.
Graph Clique(uint32_t n) {
  std::vector<Label> labels(n, 0);
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return MakeGraph(labels, edges);
}

TEST(TraceTest, ParallelRunTracesWorkerItems) {
  obs::Collector collector;
  collector.EnableTrace();
  MatchOptions options;
  options.collector = &collector;
  options.threads = 2;
  // Six root candidates, so the pool runs two workers. (The paper example
  // has one root candidate, which any thread count runs serially.)
  const MatchResult run = MatchQuery(TriangleQuery(), Clique(6), options);
  EXPECT_EQ(run.workers_used, 2u);
  EXPECT_EQ(run.match_count, 6u * 5u * 4u);

  size_t complete = 0;
  size_t metadata = 0;
  const Json doc = collector.trace_buffer().ToJson();
  ValidateChromeTrace(doc, &complete, &metadata);

  // At least one work item ran on a worker thread (tid >= 1), and workers
  // are named for the trace viewer.
  bool worker_span = false;
  for (const obs::TraceEvent& event : collector.trace_buffer().events()) {
    if (event.tid >= 1 && event.category == "work-item") worker_span = true;
  }
  EXPECT_TRUE(worker_span);
  EXPECT_GE(metadata, 2u);  // Pipeline plus at least one worker.
}

// ---- Depth profile vs EnumerateStats. ----

void ExpectProfileTiesOut(const obs::DepthProfile& profile,
                          const EnumerateStats& stats) {
  ASSERT_FALSE(profile.empty());
  uint64_t recursion = 0;
  uint64_t local = 0;
  uint64_t prunes = 0;
  uint64_t matches = 0;
  for (const obs::DepthStats& d : profile.depths) {
    recursion += d.recursion_calls;
    local += d.local_candidates;
    prunes += d.failing_set_prunes;
    matches += d.matches;
    EXPECT_GE(d.sampled_ms, 0.0);
  }
  EXPECT_EQ(recursion, stats.recursion_calls);
  EXPECT_EQ(profile.TotalRecursionCalls(), stats.recursion_calls);
  EXPECT_EQ(local, stats.local_candidates_scanned);
  EXPECT_EQ(prunes, stats.failing_set_prunes);
  EXPECT_EQ(matches, stats.match_count);
}

TEST(DepthProfileTest, SerialCountersTieOutOnPaperExample) {
  obs::Collector collector;
  collector.EnableDepthProfile();
  MatchOptions options;
  options.collector = &collector;
  options.use_failing_sets = true;
  const Graph query = PaperQuery();
  const MatchResult result = MatchQuery(query, PaperData(), options);
  EXPECT_EQ(result.match_count, 2u);
  ASSERT_EQ(result.depth_profile.depths.size(), query.vertex_count());
  ExpectProfileTiesOut(result.depth_profile, result.enumerate);
  // Matches complete only at the deepest level.
  for (size_t d = 0; d + 1 < result.depth_profile.depths.size(); ++d) {
    EXPECT_EQ(result.depth_profile.depths[d].matches, 0u);
  }
  EXPECT_EQ(result.depth_profile.depths.back().matches, result.match_count);
}

TEST(DepthProfileTest, SamplingCheckpointChargesTime) {
  obs::Collector collector;
  collector.EnableDepthProfile();
  MatchOptions options;
  options.collector = &collector;
  const MatchResult result = MatchQuery(TriangleQuery(), Clique(40), options);
  // 40*39*38 ordered embeddings: well past the 1024-call checkpoint.
  EXPECT_EQ(result.match_count, 40u * 39u * 38u);
  ASSERT_GT(result.enumerate.recursion_calls, 1024u);
  ExpectProfileTiesOut(result.depth_profile, result.enumerate);
  double sampled = 0.0;
  for (const obs::DepthStats& d : result.depth_profile.depths) {
    sampled += d.sampled_ms;
  }
  EXPECT_GT(sampled, 0.0);
}

TEST(DepthProfileTest, DisabledCollectorLeavesProfileEmpty) {
  const MatchResult result =
      MatchQuery(PaperQuery(), PaperData(), MatchOptions{});
  EXPECT_TRUE(result.depth_profile.empty());
}

TEST(DepthProfileTest, ParallelWorkerProfilesMergeToRunTotals) {
  obs::Collector collector;
  collector.EnableDepthProfile();
  MatchOptions options;
  options.collector = &collector;
  options.use_failing_sets = true;
  options.threads = 3;
  const MatchResult run = MatchQuery(TriangleQuery(), Clique(24), options);
  EXPECT_EQ(run.match_count, 24u * 23u * 22u);
  ExpectProfileTiesOut(run.depth_profile, run.enumerate);
}

TEST(DepthProfileTest, MergeAccumulatesAndResizes) {
  obs::DepthProfile a;
  a.Resize(2);
  a.depths[0].recursion_calls = 3;
  a.depths[1].matches = 1;
  obs::DepthProfile b;
  b.Resize(3);
  b.depths[0].recursion_calls = 4;
  b.depths[2].conflicts = 5;
  a.Merge(b);
  ASSERT_EQ(a.depths.size(), 3u);
  EXPECT_EQ(a.depths[0].recursion_calls, 7u);
  EXPECT_EQ(a.depths[1].matches, 1u);
  EXPECT_EQ(a.depths[2].conflicts, 5u);
  EXPECT_EQ(a.TotalRecursionCalls(), 7u);
}

// ---- RunReport. ----

MatchOptions ReportOptions(obs::Collector* collector) {
  MatchOptions options = MatchOptions::Optimized(Algorithm::kGraphQL);
  options.use_failing_sets = true;
  options.collector = collector;
  return options;
}

TEST(RunReportTest, SerialReportRoundTripsThroughJson) {
  obs::Collector collector;
  collector.EnableDepthProfile();
  const MatchOptions options = ReportOptions(&collector);
  const Graph query = PaperQuery();
  const Graph data = PaperData();
  const MatchResult result = MatchQuery(query, data, options);
  obs::RunReport report = obs::BuildRunReport(query, data, options, result);
  // BuildRunReport leaves the caller's fields at zero; sgm_match fills them.
  EXPECT_EQ(report.ingest_ms, 0.0);
  EXPECT_EQ(report.peak_rss_bytes, 0u);
  report.ingest_ms = 12.5;
  report.peak_rss_bytes = obs::PeakRssBytes();
  EXPECT_GT(report.peak_rss_bytes, 0u);

  EXPECT_EQ(report.engine, "serial");
  EXPECT_EQ(report.match_count, 2u);
  EXPECT_EQ(report.query_vertices, 4u);
  EXPECT_EQ(report.data_vertices, 13u);
  EXPECT_FALSE(report.filter.empty());
  EXPECT_FALSE(report.filter_rounds.empty());
  EXPECT_EQ(report.matching_order.size(), 4u);
  // The report carries the satellite counter-consistency invariant too.
  EXPECT_EQ(report.depth_profile.TotalRecursionCalls(),
            report.recursion_calls);

  const std::string dumped = report.ToJson().Dump(2);
  std::string error;
  const std::optional<Json> parsed = Json::Parse(dumped, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->GetUint64("schema_version"),
            obs::RunReport::kSchemaVersion);
  const obs::RunReport restored = obs::RunReport::FromJson(*parsed);
  EXPECT_EQ(restored.ingest_ms, 12.5);
  EXPECT_EQ(restored.peak_rss_bytes, report.peak_rss_bytes);
  EXPECT_EQ(restored.ToJson().Dump(2), dumped);
}

TEST(RunReportTest, WriteFileProducesParseableDocument) {
  const MatchOptions options;
  const Graph query = PaperQuery();
  const Graph data = PaperData();
  const obs::RunReport report = obs::BuildRunReport(
      query, data, options, MatchQuery(query, data, options));

  const std::string path = ::testing::TempDir() + "sgm_obs_report.json";
  std::string error;
  ASSERT_TRUE(report.WriteFile(path, &error)) << error;

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());

  const std::optional<Json> doc = Json::Parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->GetString("engine"), "serial");
}

TEST(RunReportTest, FromJsonToleratesMissingKeys) {
  const obs::RunReport report = obs::RunReport::FromJson(Json::Object());
  EXPECT_EQ(report.engine, "serial");
  EXPECT_EQ(report.match_count, 0u);
  EXPECT_EQ(report.parallel_mode, "none");
  EXPECT_EQ(report.workers_used, 1u);
  EXPECT_TRUE(report.workers.empty());
  EXPECT_TRUE(report.compiler.empty());
  EXPECT_TRUE(report.service_metrics.is_null());
}

TEST(RunReportTest, CarriesBuildProvenance) {
  const obs::BuildProvenance provenance = obs::BuildProvenance::Current();
  EXPECT_FALSE(provenance.compiler.empty());
  EXPECT_GT(provenance.hardware_threads, 0u);

  const MatchOptions options;
  const Graph query = PaperQuery();
  const Graph data = PaperData();
  const obs::RunReport report = obs::BuildRunReport(
      query, data, options, MatchQuery(query, data, options));
  EXPECT_EQ(report.compiler, provenance.compiler);
  EXPECT_EQ(report.build_type, provenance.build_type);
  EXPECT_EQ(report.sanitizers, provenance.sanitizers);
  EXPECT_EQ(report.hardware_threads, provenance.hardware_threads);

  const Json json = report.ToJson();
  const Json* build = json.Get("build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->GetString("compiler"), provenance.compiler);
  EXPECT_EQ(build->Dump(0), provenance.ToJson().Dump(0));

  const obs::RunReport restored = obs::RunReport::FromJson(json);
  EXPECT_EQ(restored.compiler, report.compiler);
  EXPECT_EQ(restored.build_type, report.build_type);
  EXPECT_EQ(restored.sanitizers, report.sanitizers);
  EXPECT_EQ(restored.hardware_threads, report.hardware_threads);
}

TEST(RunReportTest, FilterRoundsRecordMonotonePruning) {
  const MatchOptions options;
  const Graph query = PaperQuery();
  const Graph data = PaperData();
  const obs::RunReport report = obs::BuildRunReport(
      query, data, options, MatchQuery(query, data, options));
  ASSERT_FALSE(report.filter_rounds.empty());
  for (size_t i = 1; i < report.filter_rounds.size(); ++i) {
    EXPECT_LE(report.filter_rounds[i].total_candidates,
              report.filter_rounds[i - 1].total_candidates);
  }
  for (const FilterRound& round : report.filter_rounds) {
    EXPECT_FALSE(round.name.empty());
    EXPECT_GE(round.ms, 0.0);
  }
}

// Collects the nested-object key structure of a document: every path to an
// object member, arrays not descended. Two reports with equal path sets
// have the same schema.
void CollectObjectPaths(const Json& json, const std::string& prefix,
                        std::set<std::string>* out) {
  if (!json.is_object()) return;
  for (const auto& [key, value] : json.members()) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    out->insert(path);
    CollectObjectPaths(value, path, out);
  }
}

TEST(RunReportTest, SerialAndParallelReportsShareSchema) {
  obs::Collector collector;
  collector.EnableDepthProfile();
  MatchOptions options = ReportOptions(&collector);
  // Six root candidates, so two workers both run. (The paper example has a
  // single root candidate: any thread count runs one worker, and its
  // report reads "serial" — checked at the end.)
  const Graph query = TriangleQuery();
  const Graph data = Clique(6);

  const MatchResult serial = MatchQuery(query, data, options);
  const obs::RunReport serial_report =
      obs::BuildRunReport(query, data, options, serial);

  options.threads = 2;
  const MatchResult parallel = MatchQuery(query, data, options);
  const obs::RunReport parallel_report =
      obs::BuildRunReport(query, data, options, parallel);

  // Identical key structure (the acceptance criterion: downstream tooling
  // never branches on key presence) ...
  const Json serial_json = serial_report.ToJson();
  const Json parallel_json = parallel_report.ToJson();
  std::set<std::string> serial_paths;
  std::set<std::string> parallel_paths;
  CollectObjectPaths(serial_json, "", &serial_paths);
  CollectObjectPaths(parallel_json, "", &parallel_paths);
  EXPECT_EQ(serial_paths, parallel_paths);
  // Schema v7: the ingest time and peak RSS are always present.
  EXPECT_EQ(serial_paths.count("phases.ingest_ms"), 1u);
  EXPECT_EQ(serial_paths.count("process.peak_rss_bytes"), 1u);

  // ... with matching results and configuration.
  EXPECT_EQ(serial_report.engine, "serial");
  EXPECT_EQ(parallel_report.engine, "parallel");
  EXPECT_EQ(serial_report.match_count, parallel_report.match_count);
  const Json* serial_config = serial_json.Get("config");
  const Json* parallel_config = parallel_json.Get("config");
  ASSERT_NE(serial_config, nullptr);
  ASSERT_NE(parallel_config, nullptr);
  EXPECT_EQ(serial_config->Dump(), parallel_config->Dump());

  // The degenerate parallel section of a serial run.
  EXPECT_EQ(serial_report.parallel_mode, "none");
  EXPECT_EQ(serial_report.workers_used, 1u);
  EXPECT_TRUE(serial_report.workers.empty());
  EXPECT_EQ(serial_report.load_imbalance, 1.0);

  // The real one of the parallel run.
  EXPECT_EQ(parallel_report.parallel_mode, "work-stealing");
  EXPECT_EQ(parallel_report.workers_used, parallel.workers_used);
  EXPECT_EQ(parallel_report.workers.size(), parallel.worker_stats.size());
  uint64_t worker_matches = 0;
  for (const obs::RunReportWorker& worker : parallel_report.workers) {
    worker_matches += worker.matches_found;
  }
  EXPECT_EQ(worker_matches, parallel_report.match_count);

  // And the parallel report round-trips like the serial one.
  const std::string dumped = parallel_json.Dump(2);
  std::string error;
  const std::optional<Json> parsed = Json::Parse(dumped, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(obs::RunReport::FromJson(*parsed).ToJson().Dump(2), dumped);

  const MatchResult one_worker = MatchQuery(PaperQuery(), PaperData(), options);
  EXPECT_EQ(one_worker.workers_used, 1u);
  const obs::RunReport one_worker_report =
      obs::BuildRunReport(PaperQuery(), PaperData(), options, one_worker);
  EXPECT_EQ(one_worker_report.engine, "serial");
  EXPECT_EQ(one_worker_report.parallel_mode, "none");
  EXPECT_TRUE(one_worker_report.workers.empty());
  EXPECT_EQ(one_worker_report.chunk_size, 0u);
}

// ---- Collector toggles. ----

TEST(CollectorTest, TogglesGateTheSinks) {
  obs::Collector collector;
  EXPECT_FALSE(collector.trace_enabled());
  EXPECT_FALSE(collector.depth_profile_enabled());
  EXPECT_EQ(collector.trace(), nullptr);
  collector.EnableTrace();
  EXPECT_EQ(collector.trace(), &collector.trace_buffer());
  collector.EnableDepthProfile();
  EXPECT_TRUE(collector.depth_profile_enabled());
}

}  // namespace
}  // namespace sgm
