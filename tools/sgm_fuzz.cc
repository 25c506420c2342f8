// Differential fuzzer driver for the algorithm matrix.
//
// Generate mode (default) draws structured cases from a seeded generator —
// RMAT/Erdős–Rényi data graph × random-walk query × a configuration matrix
// covering all 8 presets, classic/optimized, failing sets, the 4
// intersection kernels, and serial vs parallel execution — and cross-checks
// every configuration against the brute-force reference (match count,
// canonicalized embedding set on small cases, budget/timeout status). On
// disagreement the case is greedily minimized and written as a
// self-contained reproducer; on a crash the un-minimized case survives in
// <out-dir>/inflight.case, pre-written before each oracle run.
//
//   sgm_fuzz [--seed S] [--budget-s T] [--cases N] [--out-dir DIR]
//            [--inject-fault] [--no-minimize] [--verbose]
//   sgm_fuzz --replay FILE [--verbose]
//
// Options:
//   --seed S         base seed; case i uses seed S+i (default 1)
//   --budget-s T     wall-clock budget in seconds; 0 = use --cases
//   --cases N        stop after N cases (default 500 when no budget)
//   --out-dir DIR    where reproducers land (default fuzz-out)
//   --inject-fault   plant an emulated off-by-one (skip-last-root-candidate)
//                    into the first configuration of every case — a
//                    self-test of the oracle + minimizer pipeline
//   --no-minimize    write reproducers without shrinking them first
//   --replay FILE    re-run one reproducer through the oracle and exit
//   --verbose        per-case progress lines
//
// Exit codes: 0 all cases agreed, 1 disagreements found (or replay failed),
// 2 usage/IO error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "sgm/fuzz/fuzz_case.h"
#include "sgm/fuzz/minimize.h"
#include "sgm/fuzz/oracle.h"
#include "sgm/fuzz/reproducer.h"
#include "sgm/util/parse.h"
#include "sgm/util/timer.h"

namespace {

struct CliArgs {
  uint64_t seed = 1;
  double budget_s = 0.0;
  uint64_t cases = 0;
  std::string out_dir = "fuzz-out";
  std::string replay_path;
  bool inject_fault = false;
  bool no_minimize = false;
  bool verbose = false;
  double update_fraction = -1.0;  // <0 = generator default
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: sgm_fuzz [--seed S] [--budget-s T] [--cases N]"
               " [--out-dir DIR] [--inject-fault] [--no-minimize]"
               " [--update-fraction F] [--verbose]\n"
               "       sgm_fuzz --replay FILE [--verbose]\n"
               "run 'sgm_fuzz --help' for details\n");
}

void PrintHelp() {
  std::printf(
      "usage: sgm_fuzz [options]\n"
      "       sgm_fuzz --replay FILE [--verbose]\n"
      "\n"
      "Differential fuzzer: draws structured (data graph, query, config\n"
      "matrix) cases from a seeded generator and cross-checks every\n"
      "configuration — all presets, classic/optimized, failing sets, the\n"
      "intersection kernels, serial vs parallel, direct vs served —\n"
      "against the brute-force reference.\n"
      "\n"
      "options:\n"
      "  --seed S         base seed; case i uses seed S+i (default 1)\n"
      "  --budget-s T     wall-clock budget in seconds; 0 = use --cases\n"
      "  --cases N        stop after N cases (default 500 when no budget)\n"
      "  --out-dir DIR    where reproducers land (default fuzz-out)\n"
      "  --inject-fault   plant an emulated off-by-one into the first\n"
      "                   configuration of every case — a self-test of the\n"
      "                   oracle + minimizer pipeline\n"
      "  --no-minimize    write reproducers without shrinking them first\n"
      "  --replay FILE    re-run one reproducer through the oracle and exit\n"
      "  --update-fraction F\n"
      "                   fraction of cases carrying an update stream (the\n"
      "                   dynamic `upd=` dimension: incremental continuous-\n"
      "                   matching replay is diffed against a cold rematch\n"
      "                   of the final graph); 1 makes every case dynamic\n"
      "                   (default 0.35)\n"
      "  --verbose        per-case progress lines\n"
      "  --help           show this message and exit\n"
      "\n"
      "exit codes: 0 all cases agreed, 1 disagreements found (or replay\n"
      "            failed), 2 usage/IO error\n");
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
    const auto invalid = [&](const std::string& value) {
      std::fprintf(stderr, "invalid value for %s: '%s'\n", flag.c_str(),
                   value.c_str());
      return false;
    };
    if (flag == "--help") {
      PrintHelp();
      std::exit(0);
    } else if (flag == "--seed") {
      const auto value = next();
      if (!value.has_value()) return false;
      if (!sgm::ParseUint(*value, &args->seed)) return invalid(*value);
    } else if (flag == "--budget-s") {
      const auto value = next();
      if (!value.has_value()) return false;
      if (!sgm::ParseDouble(*value, &args->budget_s) || args->budget_s < 0.0) {
        return invalid(*value);
      }
    } else if (flag == "--cases") {
      const auto value = next();
      if (!value.has_value()) return false;
      if (!sgm::ParseUint(*value, &args->cases)) return invalid(*value);
    } else if (flag == "--out-dir") {
      const auto value = next();
      if (!value.has_value()) return false;
      args->out_dir = *value;
    } else if (flag == "--replay") {
      const auto value = next();
      if (!value.has_value()) return false;
      args->replay_path = *value;
    } else if (flag == "--update-fraction") {
      const auto value = next();
      if (!value.has_value()) return false;
      if (!sgm::ParseDouble(*value, &args->update_fraction) ||
          args->update_fraction < 0.0 || args->update_fraction > 1.0) {
        return invalid(*value);
      }
    } else if (flag == "--inject-fault") {
      args->inject_fault = true;
    } else if (flag == "--no-minimize") {
      args->no_minimize = true;
    } else if (flag == "--verbose") {
      args->verbose = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

void PrintOutcomes(const sgm::fuzz::OracleResult& result) {
  std::printf("  reference: %llu matches\n",
              static_cast<unsigned long long>(result.reference_count));
  for (const sgm::fuzz::ConfigOutcome& outcome : result.outcomes) {
    std::printf("  %-32s %8llu matches%s%s\n", outcome.name.c_str(),
                static_cast<unsigned long long>(outcome.match_count),
                outcome.reached_limit ? " [limit]" : "",
                outcome.timed_out ? " [timeout]" : "");
  }
  if (result.dynamic_batches > 0) {
    std::printf("  dynamic: %llu batches, +%llu / -%llu matches\n",
                static_cast<unsigned long long>(result.dynamic_batches),
                static_cast<unsigned long long>(result.dynamic_additions),
                static_cast<unsigned long long>(result.dynamic_retractions));
  }
}

int Replay(const CliArgs& args) {
  std::string error;
  const auto reproducer =
      sgm::fuzz::LoadReproducerFile(args.replay_path, &error);
  if (!reproducer.has_value()) {
    std::fprintf(stderr, "failed to load reproducer: %s\n", error.c_str());
    return 2;
  }
  const sgm::fuzz::OracleResult result =
      sgm::fuzz::RunOracle(reproducer->fuzz_case);
  std::printf("replay %s: verdict=%s", args.replay_path.c_str(),
              sgm::fuzz::VerdictKindName(result.kind));
  if (!result.detail.empty()) std::printf(" (%s)", result.detail.c_str());
  std::printf("\n");
  PrintOutcomes(result);
  return result.Failed() ? 1 : 0;
}

int Generate(const CliArgs& args) {
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  const std::string inflight = args.out_dir + "/inflight.case";
  if (std::filesystem::exists(inflight)) {
    std::fprintf(stderr,
                 "note: %s exists — a previous run crashed mid-case;"
                 " replay it with --replay before deleting\n",
                 inflight.c_str());
  }

  const uint64_t case_budget =
      args.cases > 0 ? args.cases : (args.budget_s > 0.0 ? ~0ULL : 500);
  sgm::Timer timer;
  uint64_t cases_run = 0;
  uint64_t failures = 0;
  for (uint64_t i = 0; i < case_budget; ++i) {
    if (args.budget_s > 0.0 &&
        timer.ElapsedMillis() >= args.budget_s * 1000.0) {
      break;
    }
    const uint64_t seed = args.seed + i;
    sgm::fuzz::CaseGenOptions gen_options;
    if (args.update_fraction >= 0.0) {
      gen_options.update_fraction = args.update_fraction;
    }
    sgm::fuzz::FuzzCase fuzz_case = sgm::fuzz::GenerateCase(seed, gen_options);
    if (args.inject_fault && !fuzz_case.configs.empty()) {
      fuzz_case.configs[0].inject_fault = true;
    }

    // Pre-write the case so a crash inside the oracle leaves a reproducer.
    std::string error;
    sgm::fuzz::Reproducer snapshot{fuzz_case, sgm::fuzz::VerdictKind::kAgree};
    if (!sgm::fuzz::SaveReproducerFile(snapshot, inflight, &error)) {
      std::fprintf(stderr, "cannot write %s: %s\n", inflight.c_str(),
                   error.c_str());
      return 2;
    }

    const sgm::fuzz::OracleResult result = sgm::fuzz::RunOracle(fuzz_case);
    ++cases_run;
    if (args.verbose || result.Failed()) {
      std::printf("case seed=%llu |V(G)|=%u |E(G)|=%u |V(q)|=%u budget=%llu"
                  " upd=%zu verdict=%s\n",
                  static_cast<unsigned long long>(seed),
                  fuzz_case.data.vertex_count(), fuzz_case.data.edge_count(),
                  fuzz_case.query.vertex_count(),
                  static_cast<unsigned long long>(fuzz_case.max_matches),
                  fuzz_case.updates.op_count(),
                  sgm::fuzz::VerdictKindName(result.kind));
    }
    if (result.Failed()) {
      ++failures;
      std::printf("  %s\n", result.detail.c_str());
      sgm::fuzz::FuzzCase to_write = fuzz_case;
      if (!args.no_minimize) {
        sgm::fuzz::MinimizeStats stats;
        to_write = sgm::fuzz::MinimizeCase(fuzz_case, {}, {}, &stats);
        std::printf("  minimized in %u oracle runs: |V(G)|=%u |E(G)|=%u"
                    " |V(q)|=%u configs=%zu\n",
                    stats.oracle_runs, to_write.data.vertex_count(),
                    to_write.data.edge_count(),
                    to_write.query.vertex_count(), to_write.configs.size());
      }
      const sgm::fuzz::OracleResult final_verdict =
          sgm::fuzz::RunOracle(to_write);
      const std::string path =
          args.out_dir + "/repro-seed" + std::to_string(seed) + ".case";
      sgm::fuzz::Reproducer repro{std::move(to_write), final_verdict.kind};
      if (!sgm::fuzz::SaveReproducerFile(repro, path, &error)) {
        std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
      }
      std::printf("  reproducer: %s\n", path.c_str());
    }
  }
  std::filesystem::remove(inflight, ec);

  const double elapsed_s = timer.ElapsedMillis() / 1000.0;
  std::printf("sgm_fuzz: %llu cases in %.1fs (%.1f cases/s), %llu"
              " disagreement(s)\n",
              static_cast<unsigned long long>(cases_run), elapsed_s,
              elapsed_s > 0 ? static_cast<double>(cases_run) / elapsed_s : 0.0,
              static_cast<unsigned long long>(failures));
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  if (!args.replay_path.empty()) return Replay(args);
  return Generate(args);
}
