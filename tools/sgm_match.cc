// Command-line subgraph matcher.
//
//   sgm_match --query q.graph --data g.graph [options]
//
// Options (value flags accept both "--flag VALUE" and "--flag=VALUE"):
//   --algorithm NAME   QSI|GQL|CFL|CECI|DP|RI|2PP|GLW|ULL|VF2|WCOJ
//                      (framework names run the optimized variant; prefix
//                      with "classic-" for the original, e.g. classic-CFL)
//   --failing-sets     enable failing-set pruning (framework algorithms)
//   --intersection M   merge|galloping|hybrid|qfilter|bitmap|auto — set
//                      intersection kernel of the intersect-based engines;
//                      bitmap/auto additionally build the bitmap sidecar of
//                      the auxiliary structure (framework only)
//   --no-lc-cache      disable the per-depth local-candidate reuse cache
//   --max-matches N    stop after N matches (default 100000, 0 = all)
//   --time-limit-ms N  per-query kill limit (default 300000)
//   --threads N        parallel enumeration with N workers, 1-256 (framework
//                      only)
//   --report FILE      write the structured RunReport JSON (framework only)
//   --trace FILE       write a Chrome trace-event file — open it in
//                      ui.perfetto.dev or chrome://tracing (framework only)
//   --depth-profile    collect the per-depth search profile; printed as a
//                      table and embedded in --report (framework only)
//   --print-matches    write each embedding to stdout
//   --count-only       suppress everything except the match count
//
// Exit codes: 0 ok, 1 load error, 2 usage error, 3 query unsolved (killed
// by the time limit).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "sgm/baselines/ullmann.h"
#include "sgm/baselines/vf2.h"
#include "sgm/glasgow/glasgow.h"
#include "sgm/graph/graph_io.h"
#include "sgm/graph/graph_utils.h"
#include "sgm/matcher.h"
#include "sgm/obs/collector.h"
#include "sgm/obs/run_report.h"
#include "sgm/util/parse.h"
#include "sgm/util/timer.h"
#include "sgm/wcoj/generic_join.h"

namespace {

struct CliArgs {
  std::string query_path;
  std::string data_path;
  std::string algorithm = "GQL";
  bool failing_sets = false;
  std::optional<sgm::IntersectionMethod> intersection;
  bool lc_cache = true;
  uint64_t max_matches = 100000;
  double time_limit_ms = 300000.0;
  uint32_t threads = 1;
  std::string report_path;
  std::string trace_path;
  bool depth_profile = false;
  bool print_matches = false;
  bool count_only = false;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: sgm_match --query q.graph --data g.graph"
               " [--algorithm NAME] [--failing-sets] [--intersection M]"
               " [--no-lc-cache] [--max-matches N]"
               " [--time-limit-ms N] [--threads N] [--report FILE.json]"
               " [--trace FILE.json] [--depth-profile] [--print-matches]"
               " [--count-only]\n"
               "run 'sgm_match --help' for details\n");
}

void PrintHelp() {
  std::printf(
      "usage: sgm_match --query q.graph --data g.graph [options]\n"
      "\n"
      "Runs one subgraph matching query. Value flags accept both\n"
      "'--flag VALUE' and '--flag=VALUE'.\n"
      "\n"
      "required:\n"
      "  --query FILE        query graph (connected, 1..64 vertices)\n"
      "  --data FILE         data graph\n"
      "options:\n"
      "  --algorithm NAME    QSI|GQL|CFL|CECI|DP|RI|2PP|GLW|ULL|VF2|WCOJ\n"
      "                      (framework names run the optimized variant;\n"
      "                      prefix with 'classic-' for the original,\n"
      "                      e.g. classic-CFL; default GQL)\n"
      "  --failing-sets      enable failing-set pruning (framework only)\n"
      "  --intersection M    merge|galloping|hybrid|qfilter|bitmap|auto —\n"
      "                      set-intersection kernel of the intersect-based\n"
      "                      engines; bitmap/auto additionally build the\n"
      "                      bitmap sidecar (framework only)\n"
      "  --no-lc-cache       disable the per-depth local-candidate reuse\n"
      "                      cache\n"
      "  --max-matches N     stop after N matches (default 100000, 0 = all)\n"
      "  --time-limit-ms N   per-query kill limit (default 300000)\n"
      "  --threads N         parallel enumeration with N workers, 1-256\n"
      "                      (framework only)\n"
      "  --report FILE       write the structured RunReport JSON\n"
      "                      (framework only)\n"
      "  --trace FILE        write a Chrome trace-event file (framework\n"
      "                      only)\n"
      "  --depth-profile     collect the per-depth search profile\n"
      "                      (framework only)\n"
      "  --print-matches     write each embedding to stdout\n"
      "  --count-only        suppress everything except the match count\n"
      "  --help              show this message and exit\n"
      "\n"
      "exit codes: 0 ok, 1 load error, 2 usage error, 3 query unsolved\n"
      "            (killed by the time limit)\n");
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    // Accept --flag=value: split once, treating the remainder as the value.
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
    const auto invalid = [&](const std::string& value) {
      std::fprintf(stderr, "invalid value for %s: '%s'\n", flag.c_str(),
                   value.c_str());
      return false;
    };
    if (flag == "--help") {
      PrintHelp();
      std::exit(0);
    } else if (flag == "--query") {
      const auto value = next();
      if (!value.has_value()) return false;
      args->query_path = *value;
    } else if (flag == "--data") {
      const auto value = next();
      if (!value.has_value()) return false;
      args->data_path = *value;
    } else if (flag == "--algorithm") {
      const auto value = next();
      if (!value.has_value()) return false;
      args->algorithm = *value;
    } else if (flag == "--failing-sets") {
      args->failing_sets = true;
    } else if (flag == "--intersection") {
      const auto value = next();
      if (!value.has_value()) return false;
      sgm::IntersectionMethod method;
      if (!sgm::IntersectionMethodFromName(*value, &method)) {
        std::fprintf(stderr, "unknown intersection method: %s\n",
                     value->c_str());
        return false;
      }
      args->intersection = method;
    } else if (flag == "--no-lc-cache") {
      args->lc_cache = false;
    } else if (flag == "--max-matches") {
      const auto value = next();
      if (!value.has_value()) return false;
      if (!sgm::ParseUint(*value, &args->max_matches)) {
        return invalid(*value);
      }
    } else if (flag == "--time-limit-ms") {
      const auto value = next();
      if (!value.has_value()) return false;
      if (!sgm::ParseDouble(*value, &args->time_limit_ms) ||
          args->time_limit_ms < 0.0) {
        return invalid(*value);
      }
    } else if (flag == "--threads") {
      const auto value = next();
      if (!value.has_value()) return false;
      if (!sgm::ParseUint(*value, &args->threads, sgm::kMaxThreads) ||
          args->threads == 0) {
        return invalid(*value);
      }
    } else if (flag == "--report") {
      const auto value = next();
      if (!value.has_value()) return false;
      args->report_path = *value;
    } else if (flag == "--trace") {
      const auto value = next();
      if (!value.has_value()) return false;
      args->trace_path = *value;
    } else if (flag == "--depth-profile") {
      args->depth_profile = true;
    } else if (flag == "--print-matches") {
      args->print_matches = true;
    } else if (flag == "--count-only") {
      args->count_only = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->query_path.empty() && !args->data_path.empty();
}

std::optional<sgm::Algorithm> FrameworkAlgorithm(const std::string& name) {
  for (const sgm::Algorithm algorithm : sgm::kAllAlgorithms) {
    if (name == sgm::AlgorithmName(algorithm)) return algorithm;
  }
  return std::nullopt;
}

sgm::MatchCallback MakePrinter(const CliArgs& args, uint32_t query_size) {
  if (!args.print_matches) return {};
  return [query_size](std::span<const sgm::Vertex> mapping) {
    std::printf("match:");
    for (uint32_t u = 0; u < query_size; ++u) {
      std::printf(" %u", mapping[u]);
    }
    std::printf("\n");
    return true;
  };
}

void PrintDepthProfile(const sgm::obs::DepthProfile& profile) {
  std::printf(
      "depth-profile: depth calls lc-total lc-empty conflicts fs-prunes"
      " matches sampled-ms\n");
  for (size_t d = 0; d < profile.depths.size(); ++d) {
    const sgm::obs::DepthStats& s = profile.depths[d];
    std::printf("depth-profile: %5zu %5llu %8llu %8llu %9llu %9llu %7llu"
                " %10.2f\n",
                d, static_cast<unsigned long long>(s.recursion_calls),
                static_cast<unsigned long long>(s.local_candidates),
                static_cast<unsigned long long>(s.empty_local_candidates),
                static_cast<unsigned long long>(s.conflicts),
                static_cast<unsigned long long>(s.failing_set_prunes),
                static_cast<unsigned long long>(s.matches), s.sampled_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }

  std::string error;
  const sgm::Timer ingest_timer;
  const auto query = sgm::LoadGraphFile(args.query_path, &error);
  if (!query.has_value()) {
    std::fprintf(stderr, "failed to load query: %s\n", error.c_str());
    return 1;
  }
  const auto data = sgm::LoadGraphFile(args.data_path, &error);
  if (!data.has_value()) {
    std::fprintf(stderr, "failed to load data graph: %s\n", error.c_str());
    return 1;
  }
  const double ingest_ms = ingest_timer.ElapsedMillis();
  if (query->vertex_count() == 0) {
    std::fprintf(stderr, "query graph has no vertices\n");
    return 1;
  }
  if (!sgm::IsConnected(*query)) {
    std::fprintf(stderr, "query graph must be connected\n");
    return 1;
  }

  uint64_t matches = 0;
  double total_ms = 0.0;
  std::string status = "ok";
  // Counters of the framework engines; stays null for the baselines.
  const sgm::EnumerateStats* counters = nullptr;
  sgm::EnumerateStats framework_counters;
  const auto printer = MakePrinter(args, query->vertex_count());

  const bool wants_obs = !args.report_path.empty() ||
                         !args.trace_path.empty() || args.depth_profile;

  if (args.algorithm == "GLW") {
    sgm::GlasgowOptions options;
    options.max_matches = args.max_matches;
    options.time_limit_ms = args.time_limit_ms;
    const auto result = sgm::GlasgowMatch(*query, *data, options, printer);
    matches = result.match_count;
    total_ms = result.total_ms;
    status = sgm::GlasgowStatusName(result.status);
  } else if (args.algorithm == "ULL") {
    sgm::UllmannOptions options;
    options.max_matches = args.max_matches;
    options.time_limit_ms = args.time_limit_ms;
    const auto result = sgm::UllmannMatch(*query, *data, options, printer);
    matches = result.match_count;
    total_ms = result.total_ms;
    if (result.timed_out) status = "timeout";
  } else if (args.algorithm == "VF2") {
    sgm::Vf2Options options;
    options.max_matches = args.max_matches;
    options.time_limit_ms = args.time_limit_ms;
    const auto result = sgm::Vf2Match(*query, *data, options, printer);
    matches = result.match_count;
    total_ms = result.total_ms;
    if (result.timed_out) status = "timeout";
  } else if (args.algorithm == "WCOJ") {
    sgm::WcojOptions options;
    options.max_results = args.max_matches;
    options.time_limit_ms = args.time_limit_ms;
    const auto result = sgm::GenericJoinMatch(*query, *data, options, printer);
    matches = result.result_count;
    total_ms = result.total_ms;
    if (result.timed_out) status = "timeout";
  } else {
    const bool classic = args.algorithm.rfind("classic-", 0) == 0;
    const std::string name =
        classic ? args.algorithm.substr(8) : args.algorithm;
    const auto algorithm = FrameworkAlgorithm(name);
    if (!algorithm.has_value()) {
      std::fprintf(stderr, "unknown algorithm: %s\n", args.algorithm.c_str());
      return 2;
    }
    if (query->vertex_count() > sgm::kMaxQueryVertices) {
      std::fprintf(stderr,
                   "query has %u vertices; the framework engine supports at"
                   " most %u\n",
                   query->vertex_count(), sgm::kMaxQueryVertices);
      return 1;
    }
    sgm::MatchOptions options = classic
                                    ? sgm::MatchOptions::Classic(*algorithm)
                                    : sgm::MatchOptions::Optimized(*algorithm);
    options.use_failing_sets = args.failing_sets || options.use_failing_sets;
    if (args.intersection.has_value()) {
      options.intersection = *args.intersection;
    }
    options.use_lc_cache = args.lc_cache;
    options.max_matches = args.max_matches;
    options.time_limit_ms = args.time_limit_ms;
    options.threads = args.threads;

    sgm::obs::Collector collector;
    if (!args.trace_path.empty()) collector.EnableTrace();
    if (args.depth_profile || !args.report_path.empty()) {
      collector.EnableDepthProfile();
    }
    if (wants_obs) options.collector = &collector;

    const auto result = sgm::MatchQuery(*query, *data, options, printer);
    matches = result.match_count;
    total_ms = result.total_ms;
    if (result.unsolved()) status = "timeout";
    framework_counters = result.enumerate;
    sgm::obs::RunReport report =
        sgm::obs::BuildRunReport(*query, *data, options, result);
    report.ingest_ms = ingest_ms;
    report.peak_rss_bytes = sgm::obs::PeakRssBytes();
    if (args.depth_profile && !args.count_only) {
      PrintDepthProfile(result.depth_profile);
    }
    counters = &framework_counters;

    if (!args.report_path.empty() &&
        !report.WriteFile(args.report_path, &error)) {
      std::fprintf(stderr, "failed to write report: %s\n", error.c_str());
      return 1;
    }
    if (!args.trace_path.empty() &&
        !collector.trace_buffer().WriteFile(args.trace_path, &error)) {
      std::fprintf(stderr, "failed to write trace: %s\n", error.c_str());
      return 1;
    }
  }

  if (wants_obs && counters == nullptr) {
    std::fprintf(stderr,
                 "warning: --report/--trace/--depth-profile are only"
                 " supported by the framework algorithms; ignored for %s\n",
                 args.algorithm.c_str());
  }

  if (args.count_only) {
    std::printf("%llu\n", static_cast<unsigned long long>(matches));
  } else if (counters != nullptr) {
    std::printf(
        "algorithm=%s matches=%llu time_ms=%.3f status=%s"
        " recursion_calls=%llu local_candidates_scanned=%llu"
        " failing_set_prunes=%llu bitmap_intersections=%llu"
        " lc_cache_hits=%llu lc_cache_misses=%llu\n",
        args.algorithm.c_str(), static_cast<unsigned long long>(matches),
        total_ms, status.c_str(),
        static_cast<unsigned long long>(counters->recursion_calls),
        static_cast<unsigned long long>(counters->local_candidates_scanned),
        static_cast<unsigned long long>(counters->failing_set_prunes),
        static_cast<unsigned long long>(counters->bitmap_intersections),
        static_cast<unsigned long long>(counters->lc_cache_hits),
        static_cast<unsigned long long>(counters->lc_cache_misses));
  } else {
    std::printf("algorithm=%s matches=%llu time_ms=%.3f status=%s\n",
                args.algorithm.c_str(),
                static_cast<unsigned long long>(matches), total_ms,
                status.c_str());
  }
  // An unsolved (timed-out) query is a failed run for scripting purposes.
  return status == "timeout" ? 3 : 0;
}
