#include "sgm/fuzz/reproducer.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "sgm/graph/graph_io.h"
#include "sgm/util/parse.h"

namespace sgm::fuzz {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

std::string PresetToken(const ConfigSpec& config) {
  if (config.recommended) return "REC";
  std::string token = config.classic ? "classic-" : "";
  token += AlgorithmName(config.algorithm);
  return token;
}

bool ParsePresetToken(const std::string& token, ConfigSpec* config) {
  if (token == "REC") {
    config->recommended = true;
    return true;
  }
  std::string name = token;
  if (name.rfind("classic-", 0) == 0) {
    config->classic = true;
    name = name.substr(8);
  }
  for (const Algorithm algorithm : kAllAlgorithms) {
    if (name == AlgorithmName(algorithm)) {
      config->algorithm = algorithm;
      return true;
    }
  }
  return false;
}

bool ParseIntersection(const std::string& name, IntersectionMethod* out) {
  return IntersectionMethodFromName(name, out);
}

// `config <preset> fs=0 ix=hybrid cache=1 threads=1 fault=0 svc=0`
// (`cache=` and `svc=` are optional for corpus back-compat: files written
// before the LC reuse cache / the serving layer existed default to the
// cache being on and the direct engine — their default values). Files from
// the sharded-execution era also carry `sh=<K> part=<name>`; `sh=0`/`sh=1`
// and any `part=` name described a monolithic run and are ignored, while a
// real shard count (`sh>1`) names an engine that no longer exists.
bool ParseConfigLine(const std::vector<std::string>& fields,
                     ConfigSpec* config) {
  if (fields.size() < 2 || !ParsePresetToken(fields[1], config)) return false;
  for (size_t i = 2; i < fields.size(); ++i) {
    const std::string& field = fields[i];
    const size_t eq = field.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "fs") {
      if (value != "0" && value != "1") return false;
      config->failing_sets = value == "1";
    } else if (key == "ix") {
      if (!ParseIntersection(value, &config->intersection)) return false;
    } else if (key == "cache") {
      if (value != "0" && value != "1") return false;
      config->lc_cache = value == "1";
    } else if (key == "threads") {
      if (!ParseUint(value, &config->threads, kMaxThreads) ||
          config->threads == 0) {
        return false;
      }
    } else if (key == "fault") {
      if (value != "0" && value != "1") return false;
      config->inject_fault = value == "1";
    } else if (key == "svc") {
      if (value != "0" && value != "1") return false;
      config->service = value == "1";
    } else if (key == "sh") {
      if (value != "0" && value != "1") return false;
    } else if (key == "part") {
      // Any name: the partitioner only applied to sh>1.
    } else {
      return false;
    }
  }
  return true;
}

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) fields.push_back(std::move(token));
  return fields;
}

}  // namespace

void WriteReproducer(const Reproducer& reproducer, std::ostream& out) {
  const FuzzCase& fuzz_case = reproducer.fuzz_case;
  out << "# sgm_fuzz reproducer v1\n";
  out << "seed " << fuzz_case.seed << '\n';
  out << "verdict " << VerdictKindName(reproducer.expected) << '\n';
  out << "max_matches " << fuzz_case.max_matches << '\n';
  out << "time_limit_ms " << fuzz_case.time_limit_ms << '\n';
  for (const ConfigSpec& config : fuzz_case.configs) {
    out << "config " << PresetToken(config)
        << " fs=" << (config.failing_sets ? 1 : 0)
        << " ix=" << IntersectionMethodName(config.intersection)
        << " cache=" << (config.lc_cache ? 1 : 0)
        << " threads=" << config.threads
        << " fault=" << (config.inject_fault ? 1 : 0)
        << " svc=" << (config.service ? 1 : 0) << '\n';
  }
  out << "graph data\n";
  WriteGraph(fuzz_case.data, out);
  out << "graph query\n";
  WriteGraph(fuzz_case.query, out);
  if (!fuzz_case.updates.batches.empty()) {
    out << "updates\n";
    dynamic::WriteUpdateStream(fuzz_case.updates, out);
  }
}

bool SaveReproducerFile(const Reproducer& reproducer, const std::string& path,
                        std::string* error) {
  std::ofstream out(path);
  if (!out) {
    SetError(error, "cannot open " + path + " for writing");
    return false;
  }
  WriteReproducer(reproducer, out);
  out.flush();
  if (!out) {
    SetError(error, "write failure on " + path);
    return false;
  }
  return true;
}

std::optional<Reproducer> ReadReproducer(std::istream& in,
                                         std::string* error) {
  Reproducer reproducer;
  FuzzCase& fuzz_case = reproducer.fuzz_case;
  std::string line;
  size_t line_number = 0;
  // Sections ("data"/"query" graphs and the "updates" stream) are
  // accumulated as text and parsed through the respective reader once the
  // next section header (or EOF) closes them.
  std::string pending_section;  // empty = not inside a section
  std::string section_text;
  bool saw_data = false, saw_query = false;

  const auto fail = [&](const std::string& what) -> std::optional<Reproducer> {
    SetError(error, what + " at line " + std::to_string(line_number));
    return std::nullopt;
  };
  const auto finish_section = [&](std::string* section_error) -> bool {
    std::istringstream stream(section_text);
    if (pending_section == "updates") {
      auto updates = dynamic::ReadUpdateStream(stream, section_error);
      if (!updates.has_value()) return false;
      fuzz_case.updates = std::move(*updates);
    } else {
      auto graph = ReadGraph(stream, section_error);
      if (!graph.has_value()) return false;
      if (pending_section == "data") {
        fuzz_case.data = std::move(*graph);
        saw_data = true;
      } else {
        fuzz_case.query = std::move(*graph);
        saw_query = true;
      }
    }
    section_text.clear();
    return true;
  };
  const auto close_section = [&]() -> std::optional<std::string> {
    if (pending_section.empty()) return std::nullopt;
    std::string section_error;
    if (!finish_section(&section_error)) {
      return pending_section + " section: " + section_error;
    }
    return std::nullopt;
  };

  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = SplitFields(line);
    if (fields.empty()) continue;
    if (fields[0] == "graph") {
      if (fields.size() != 2 ||
          (fields[1] != "data" && fields[1] != "query")) {
        return fail("malformed graph section header");
      }
      if (const auto section_error = close_section()) {
        return fail(*section_error);
      }
      pending_section = fields[1];
      continue;
    }
    if (fields[0] == "updates" && pending_section != "updates") {
      if (fields.size() != 1) return fail("malformed updates section header");
      if (const auto section_error = close_section()) {
        return fail(*section_error);
      }
      pending_section = "updates";
      continue;
    }
    if (!pending_section.empty()) {
      section_text += line;
      section_text += '\n';
      continue;
    }
    if (fields[0] == "seed") {
      if (fields.size() != 2 ||
          !ParseUint(fields[1], &fuzz_case.seed)) {
        return fail("malformed seed");
      }
    } else if (fields[0] == "verdict") {
      if (fields.size() != 2 ||
          !ParseVerdictKind(fields[1], &reproducer.expected)) {
        return fail("malformed verdict");
      }
    } else if (fields[0] == "max_matches") {
      if (fields.size() != 2 ||
          !ParseUint(fields[1], &fuzz_case.max_matches)) {
        return fail("malformed max_matches");
      }
    } else if (fields[0] == "time_limit_ms") {
      if (fields.size() != 2) return fail("malformed time_limit_ms");
      if (!ParseDouble(fields[1], &fuzz_case.time_limit_ms) ||
          fuzz_case.time_limit_ms < 0.0) {
        return fail("malformed time_limit_ms");
      }
    } else if (fields[0] == "config") {
      ConfigSpec config;
      if (!ParseConfigLine(fields, &config)) return fail("malformed config");
      if (fuzz_case.configs.size() >= 64) return fail("too many configs");
      fuzz_case.configs.push_back(config);
    } else {
      return fail("unknown record '" + fields[0] + "'");
    }
  }
  if (in.bad()) {
    SetError(error, "read failure");
    return std::nullopt;
  }
  if (const auto section_error = close_section()) {
    SetError(error, *section_error);
    return std::nullopt;
  }
  if (!saw_data || !saw_query) {
    SetError(error, "missing graph section(s)");
    return std::nullopt;
  }
  if (fuzz_case.configs.empty()) {
    SetError(error, "no config lines");
    return std::nullopt;
  }
  return reproducer;
}

std::optional<Reproducer> LoadReproducerFile(const std::string& path,
                                             std::string* error) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open " + path);
    return std::nullopt;
  }
  return ReadReproducer(in, error);
}

}  // namespace sgm::fuzz
