// Helpers shared by the benchmark's generator (gen.cc) and workload runner
// (run.cc): the seeded random source, key=value parameter files, order
// statistics, and the in-memory span log written out as Chrome trace-event
// JSON.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[noreturn]] inline void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

/// SplitMix64: the benchmark's own random source, so the generated inputs
/// do not change when the library's PRNG does.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Workload parameters: `key=value` pairs from the command line, saved
/// beside the generated inputs as params.txt.
class Params {
 public:
  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  /// Parses one `key=value` argument; false when it has no '='.
  bool SetFromArg(const std::string& arg) {
    const size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    Set(arg.substr(0, eq), arg.substr(eq + 1));
    return true;
  }
  const std::string& Str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) Die("missing parameter " + key);
    return it->second;
  }
  uint64_t U64(const std::string& key) const {
    const std::string& text = Str(key);
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || text[0] == '-') {
      Die("parameter " + key + " is not a whole number: " + text);
    }
    return value;
  }
  uint32_t U32(const std::string& key) const {
    const uint64_t value = U64(key);
    if (value > UINT32_MAX) Die("parameter " + key + " out of range");
    return static_cast<uint32_t>(value);
  }
  void Save(const std::string& path) const {
    std::ofstream out(path);
    for (const auto& [key, value] : values_) out << key << '=' << value << '\n';
    if (!out.flush()) Die("cannot write " + path);
  }
  static Params Load(const std::string& path) {
    std::ifstream in(path);
    if (!in) Die("cannot read " + path);
    Params params;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && !params.SetFromArg(line)) Die("bad line in " + path);
    }
    return params;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

inline double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// One timed interval around a call into a layer. `parent` is the id of
/// the span that caused it (0 for a root); spans of one query or request
/// share `query`.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t query = 0;
  Clock::time_point start;
  Clock::time_point end;
  double ms() const { return MsBetween(start, end); }
};

/// Spans recorded by one thread, kept in memory until the run ends. Ids
/// carry the thread index in their high bits, so logs of different threads
/// merge without collisions.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) { spans_.reserve(4096); }

  /// Opens a span and returns its index (see End / id).
  size_t Begin(const char* name, uint64_t parent, uint64_t query) {
    Span span;
    span.name = name;
    span.id = (static_cast<uint64_t>(thread_ + 1) << 40) | (spans_.size() + 1);
    span.parent = parent;
    span.query = query;
    span.start = Clock::now();
    spans_.push_back(span);
    return spans_.size() - 1;
  }
  /// Closes the span and returns its duration in milliseconds.
  double End(size_t index) {
    spans_[index].end = Clock::now();
    return spans_[index].ms();
  }
  uint64_t id(size_t index) const { return spans_[index].id; }
  uint32_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  std::vector<Span> spans_;
};

/// Writes the logs as Chrome trace-event JSON ("X" complete events, one
/// trace thread per log), loadable in Perfetto or chrome://tracing.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const SpanLog*>& logs,
                             Clock::time_point origin) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char line[512];
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      const double ts = MsBetween(origin, span.start) * 1000.0;
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":"
                    "{\"span\":%llu,\"parent\":%llu,\"query\":%llu}}",
                    first ? "" : ",\n", span.name, ts, span.ms() * 1000.0,
                    log->thread(), static_cast<unsigned long long>(span.id),
                    static_cast<unsigned long long>(span.parent),
                    static_cast<unsigned long long>(span.query));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
