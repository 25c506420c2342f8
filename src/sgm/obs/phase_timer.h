// PhaseTimer: one helper for the copy-pasted phase-timing blocks that used
// to live in matcher.cc, the parallel matcher and explain.cc. Begin(name)
// closes the running phase and starts the next; End() closes the last one.
// Every phase is measured with the same wall clock and, when a trace buffer
// is attached, emitted as a span with thread-CPU time alongside — so the
// serial, parallel and explain pipelines report preprocessing breakdowns
// through one code path and cannot drift apart.
#ifndef SGM_OBS_PHASE_TIMER_H_
#define SGM_OBS_PHASE_TIMER_H_

#include <string>

#include "sgm/obs/trace.h"
#include "sgm/util/timer.h"

namespace sgm::obs {

/// Canonical phase names shared by every pipeline (and by RunReport keys).
inline constexpr const char* kPhaseFilter = "filter";
inline constexpr const char* kPhaseAuxBuild = "aux-build";
inline constexpr const char* kPhaseOrder = "order";
inline constexpr const char* kPhaseEnumeration = "enumeration";

/// Measures a sequence of non-overlapping named phases on one thread.
/// `trace` may be null (timing only, no spans).
class PhaseTimer {
 public:
  explicit PhaseTimer(TraceBuffer* trace = nullptr, uint32_t tid = 0)
      : trace_(trace), tid_(tid) {}

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() { End(); }

  /// Ends the current phase (if any, returning its wall milliseconds) and
  /// begins `name`.
  double Begin(const char* name) {
    const double ended = End();
    current_ = name;
    timer_.Reset();
    if (trace_ != nullptr) {
      start_us_ = trace_->NowUs();
      cpu_start_nanos_ = ThreadCpuTimer::NowNanos();
    }
    return ended;
  }

  /// Ends the current phase, emits its span, and returns its wall
  /// milliseconds (0 when no phase is running).
  double End() {
    if (current_ == nullptr) return 0.0;
    const double ms = timer_.ElapsedMillis();
    if (trace_ != nullptr) {
      TraceEvent event;
      event.name = current_;
      event.category = "phase";
      event.ts_us = start_us_;
      event.dur_us = ms * 1e3;
      event.tts_us = static_cast<double>(cpu_start_nanos_) * 1e-3;
      event.tdur_us =
          static_cast<double>(ThreadCpuTimer::NowNanos() - cpu_start_nanos_) *
          1e-3;
      event.tid = tid_;
      trace_->Add(std::move(event));
    }
    current_ = nullptr;
    return ms;
  }

 private:
  TraceBuffer* trace_;
  uint32_t tid_;
  const char* current_ = nullptr;
  Timer timer_;
  double start_us_ = 0.0;
  int64_t cpu_start_nanos_ = 0;
};

}  // namespace sgm::obs

#endif  // SGM_OBS_PHASE_TIMER_H_
