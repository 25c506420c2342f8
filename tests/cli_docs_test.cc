// Drift test between the command-line tools and docs/CLI.md, plus the
// argument-validation contract the docs state (strict numeric flags).
//
// Each tool is executed with --help; the flags it advertises (lines of the
// form "  --flag ...") are compared against the flag table of the tool's
// section in docs/CLI.md (rows of the form "| `--flag ...` | ... |").
// Both directions are asserted: a flag added to a tool without documenting
// it fails, and a documented flag the tool no longer accepts fails too.
//
// SGM_TOOLS_DIR (the build's tool binary directory) and SGM_DOCS_DIR (the
// source tree's docs/ directory) are injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

constexpr const char* kTools[] = {"sgm_match", "sgm_generate", "sgm_fuzz",
                                  "sgm_serve"};

bool IsFlagChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
}

// Extracts "--flag" from `text` starting at `pos` (which must point at the
// leading dashes); empty if the token is not a well-formed long flag.
std::string FlagAt(const std::string& text, size_t pos) {
  if (text.compare(pos, 2, "--") != 0) return "";
  size_t end = pos + 2;
  while (end < text.size() && IsFlagChar(text[end])) ++end;
  if (end == pos + 2) return "";  // bare "--"
  return text.substr(pos, end - pos);
}

// Runs `<tools dir>/<tool> <args>` and returns its combined stdout and
// stderr; *exit_code receives the exit status (-1 if it did not exit).
std::string RunTool(const std::string& tool, const std::string& args,
                    int* exit_code) {
  const std::string command =
      std::string(SGM_TOOLS_DIR) + "/" + tool + " " + args + " 2>&1";
  *exit_code = -1;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return "";
  }
  std::string output;
  char buffer[4096];
  size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) *exit_code = WEXITSTATUS(status);
  return output;
}

// Runs `<tool> --help`; fails the current test unless it exits 0.
std::string RunHelp(const std::string& tool) {
  int exit_code = 0;
  const std::string output = RunTool(tool, "--help", &exit_code);
  EXPECT_EQ(exit_code, 0) << tool << " --help exited with " << exit_code
                          << "\noutput:\n"
                          << output;
  return output;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

// Flags a tool advertises: the first token of every help line that starts
// (after indentation) with "--". Prose mentions of other flags inside
// descriptions are deliberately not counted.
std::set<std::string> HelpFlags(const std::string& help_text) {
  std::set<std::string> flags;
  for (const std::string& line : SplitLines(help_text)) {
    const size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    const std::string flag = FlagAt(line, start);
    if (!flag.empty()) flags.insert(flag);
  }
  return flags;
}

// Splits docs/CLI.md into per-tool sections keyed by the "## <tool>"
// heading text.
std::map<std::string, std::string> DocsSections(const std::string& text) {
  std::map<std::string, std::string> sections;
  std::string current;
  for (const std::string& line : SplitLines(text)) {
    if (line.rfind("## ", 0) == 0) {
      current = line.substr(3);
      while (!current.empty() && current.back() == ' ') current.pop_back();
      continue;
    }
    if (!current.empty()) {
      sections[current] += line;
      sections[current] += '\n';
    }
  }
  return sections;
}

// Flags a docs section documents: table rows whose first backticked cell
// starts with "--". Exit-code tables and prose cross-references don't
// match this shape, so they never leak into the set.
std::set<std::string> DocsFlags(const std::string& section) {
  std::set<std::string> flags;
  for (const std::string& line : SplitLines(section)) {
    const size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos || line[start] != '|') continue;
    const size_t tick = line.find('`', start);
    if (tick == std::string::npos) continue;
    const std::string flag = FlagAt(line, tick + 1);
    if (!flag.empty()) flags.insert(flag);
  }
  return flags;
}

std::string ReadCliDocs() {
  const std::string path = std::string(SGM_DOCS_DIR) + "/CLI.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string Join(const std::set<std::string>& flags) {
  std::string joined;
  for (const std::string& flag : flags) {
    if (!joined.empty()) joined += ", ";
    joined += flag;
  }
  return joined.empty() ? "(none)" : joined;
}

TEST(CliDocsTest, EveryToolHasADocsSection) {
  const auto sections = DocsSections(ReadCliDocs());
  for (const char* tool : kTools) {
    EXPECT_TRUE(sections.count(tool))
        << "docs/CLI.md has no '## " << tool << "' section";
  }
}

TEST(CliDocsTest, HelpAndDocsAgreeOnEveryFlag) {
  const auto sections = DocsSections(ReadCliDocs());
  for (const char* tool : kTools) {
    SCOPED_TRACE(tool);
    const auto it = sections.find(tool);
    if (it == sections.end()) {
      ADD_FAILURE() << "missing docs section";
      continue;
    }
    const std::string help = RunHelp(tool);
    const std::set<std::string> from_help = HelpFlags(help);
    const std::set<std::string> from_docs = DocsFlags(it->second);
    ASSERT_FALSE(from_help.empty()) << "no flags parsed from --help:\n"
                                    << help;
    ASSERT_FALSE(from_docs.empty()) << "no flag table parsed from docs";

    std::set<std::string> undocumented, stale;
    for (const std::string& flag : from_help) {
      if (!from_docs.count(flag)) undocumented.insert(flag);
    }
    for (const std::string& flag : from_docs) {
      if (!from_help.count(flag)) stale.insert(flag);
    }
    EXPECT_TRUE(undocumented.empty())
        << "flags in --help but missing from docs/CLI.md: "
        << Join(undocumented);
    EXPECT_TRUE(stale.empty())
        << "flags documented in docs/CLI.md but absent from --help: "
        << Join(stale);
  }
}

// The exit-code contract is part of the documented interface: each tool
// section must carry an exit-code table mentioning code 0 and code 2
// (usage error), the two codes every tool shares.
TEST(CliDocsTest, EveryToolDocumentsExitCodes) {
  const auto sections = DocsSections(ReadCliDocs());
  for (const char* tool : kTools) {
    SCOPED_TRACE(tool);
    const auto it = sections.find(tool);
    if (it == sections.end()) {
      ADD_FAILURE() << "missing docs section";
      continue;
    }
    EXPECT_NE(it->second.find("Exit codes"), std::string::npos)
        << "no 'Exit codes' table in the " << tool << " section";
  }
}

// A malformed numeric value is a usage error naming the flag (exit 2),
// not a silently wrapped or zeroed number. Parsing happens before any file
// is opened, so a well-formed value gets past parsing: sgm_match and
// sgm_serve then fail on loading the missing graph, sgm_generate on writing
// into a missing directory (exit 1), and sgm_fuzz runs its one case (exit 0).
TEST(CliArgsTest, MalformedNumericFlagsExitWithUsageError) {
  struct Case {
    const char* tool;
    std::string required;
    const char* flag;
    const char* value;
    const char* valid_value = "5";
    int valid_exit = 1;
  };
  const std::string match = "--query missing.graph --data missing.graph";
  const std::string serve = "--data missing.graph --workload missing.txt";
  const std::string generate =
      "--out missing-dir/g.graph --vertices 10 --edges 5";
  const std::string fuzz =
      "--cases 1 --out-dir " + ::testing::TempDir() + "cli_args_fuzz";
  const Case cases[] = {
      {"sgm_match", match, "--max-matches", "-5"},
      {"sgm_match", match, "--threads", "abc"},
      // Thread counts are bounded by kMaxThreads = 256; 0 is no count.
      {"sgm_match", match, "--threads", "0"},
      {"sgm_match", match, "--threads", "257", "256"},
      {"sgm_serve", serve, "--max-matches", "-5"},
      {"sgm_serve", serve, "--workers", "abc"},
      {"sgm_serve", serve, "--workers", "257", "256"},
      // 2^44 MiB is 2^64 bytes: the byte budget would wrap to 0.
      {"sgm_serve", serve, "--cache-mb", "17592186044416"},
      {"sgm_generate", generate, "--vertices", "-5"},
      {"sgm_generate", generate, "--vertices", "1"},
      {"sgm_generate", generate, "--edges", "abc"},
      // 10 vertices hold at most 45 edges.
      {"sgm_generate", generate, "--edges", "46", "45"},
      {"sgm_generate", generate, "--labels", "0"},
      {"sgm_generate", generate, "--seed", "1x"},
      {"sgm_generate", generate, "--query-size", "2"},
      {"sgm_generate", generate, "--update-ops", "4294967296"},
      {"sgm_fuzz", fuzz, "--cases", "abc", "1", 0},
      {"sgm_fuzz", fuzz, "--seed", "-1", "3", 0},
      {"sgm_fuzz", fuzz, "--budget-s", "-1", "0", 0},
      {"sgm_fuzz", fuzz, "--budget-s", "inf", "0", 0},
      {"sgm_fuzz", fuzz, "--update-fraction", "abc", "0.5", 0},
      {"sgm_fuzz", fuzz, "--update-fraction", "2", "1", 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.tool) + " " + c.flag + " " + c.value);
    int exit_code = 0;
    const std::string output = RunTool(
        c.tool, c.required + " " + c.flag + " " + c.value, &exit_code);
    EXPECT_EQ(exit_code, 2) << output;
    EXPECT_NE(output.find(c.flag), std::string::npos) << output;

    const std::string valid_output = RunTool(
        c.tool, c.required + " " + c.flag + " " + c.valid_value, &exit_code);
    EXPECT_EQ(exit_code, c.valid_exit)
        << "a valid value must pass parsing:\n" << valid_output;
  }
}

}  // namespace
