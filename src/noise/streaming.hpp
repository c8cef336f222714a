// Incremental per-activity statistics over a live record stream.
//
// The live consumer-daemon pipeline feeds records one at a time, in merged
// order, through the kernel half of the IntervalBuilder build_intervals
// uses (self time = inclusive minus nested children), in O(max nesting
// depth) memory per CPU: the trace is never materialized. Scope: kernel
// entry/exit activities (Tables I-VI); preemption and the runnable filter
// need the task registry, known only at end of run, and stay offline.
#pragma once

#include <cstdint>
#include <optional>

#include "noise/analysis.hpp"
#include "noise/interval.hpp"
#include "tracebuf/record.hpp"

namespace osn::trace {
class EventSource;
}

namespace osn::noise {

class StreamingStats {
 public:
  /// Feed the next record of the merged stream. Point events are counted but
  /// open no interval; the first unpairable record stops accumulation.
  void consume(const tracebuf::EventRecord& rec);

  /// Drains an entire EventSource through consume() in merged order —
  /// chunk-at-a-time for v3 files, so the trace is never materialized — then
  /// reports an entry still open at the trace end as an anomaly.
  void consume(trace::EventSource& source);

  /// Self-time statistics for one activity, matching
  /// NoiseAnalysis::activity_stats under default options once the stream is
  /// complete. `duration`/`n_cpus` come from the run's TraceMeta.
  EventStats activity_stats(ActivityKind kind, DurNs duration, std::uint16_t n_cpus) const;

  std::uint64_t consumed() const { return consumed_; }
  /// Entry events whose exit has not arrived yet (0 once a well-formed
  /// stream ends).
  std::size_t open_frames() const { return builder_.open_frames(); }
  /// The first kernel-side anomaly (unpairable record) of the stream.
  const std::optional<IntervalAnomaly>& anomaly() const { return builder_.anomaly(); }

 private:
  IntervalBuilder builder_{IntervalBuilder::Halves::kKernel};
  /// Exact integer accumulators — the same reduce the offline analyzer
  /// uses, so live and offline tables agree bit-for-bit.
  ActivityAccumArray accums_;
  std::uint64_t consumed_ = 0;
};

}  // namespace osn::noise
