// The LTTNG-NOISE offline analysis: from a raw trace to per-event noise.
//
// This is the paper's primary contribution. NoiseAnalysis
//  1. builds the interval set (entry/exit pairing with nested-event
//     resolution — self vs. inclusive time),
//  2. applies the noise definition: only kernel activity attributed to a
//     *runnable application process* counts ("we do not consider a kernel
//     interruption as noise if, when it occurs, a process is blocked waiting
//     for communication"), and syscalls are requested services,
//  3. produces per-activity statistics (freq ev/sec, avg/max/min ns —
//     Tables I-VI), duration histograms (Figs 4/6/8), the per-application
//     noise breakdown (Fig 3), and feeds the synthetic chart (Fig 1b).
//
// The AnalysisOptions ablation switches exist to *quantify* why the two
// design decisions matter: disabling nesting resolution double-counts
// nested interrupts; disabling the runnable filter charges applications for
// kernel work done while they were blocked.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "noise/classify.hpp"
#include "noise/interval.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "trace/chunk_aggregate.hpp"
#include "trace/trace_model.hpp"

namespace osn::trace {
class EventSource;
}

namespace osn::noise {

struct AnalysisOptions {
  /// Use self time (nested children subtracted). Ablation: inclusive time.
  bool resolve_nesting = true;
  /// Exclude kernel activity while the task is inside a communication
  /// (barrier) window, and require attribution to an application task.
  bool runnable_filter = true;
  /// Count syscalls as noise (the paper does not; ablation only).
  bool include_requested_service = false;
  /// Worker threads for the sharded pipeline. 1 = fully serial (the
  /// bisection-friendly reference path); 0 = hardware_concurrency. Any
  /// value produces bit-identical results: shards merge deterministically
  /// and all reductions are exact integer arithmetic.
  std::size_t jobs = 1;
  /// The model holds a subset of the node's CPUs (set by the planner's cpu
  /// predicate): a task window re-opened there restarts (see IntervalBuilder).
  bool cpu_subset = false;
};

/// Per-activity statistics in the units of the paper's tables.
struct EventStats {
  std::uint64_t count = 0;
  double freq_ev_per_sec = 0.0;  ///< per CPU (the tables' normalization)
  double avg_ns = 0.0;
  DurNs max_ns = 0;
  DurNs min_ns = 0;
};

/// Converts an exact accumulator over charged durations to the tables'
/// units; freq is per CPU over `duration`. The one conversion for the
/// analyzer, the streaming stats and the index-only summary, so all three
/// print byte-identical tables.
EventStats to_stats(const trace::AggAccum& acc, DurNs duration, std::uint16_t n_cpus);

/// One exact accumulator per activity kind.
using ActivityAccumArray =
    std::array<trace::AggAccum, static_cast<std::size_t>(ActivityKind::kMaxKind)>;

class NoiseAnalysis {
 public:
  explicit NoiseAnalysis(const trace::TraceModel& model, AnalysisOptions options = {});
  /// The analysis keeps a reference to the model; a temporary would dangle.
  explicit NoiseAnalysis(trace::TraceModel&& model, AnalysisOptions options = {}) = delete;
  /// Materializes the trace from an EventSource (file, in-memory model, or
  /// live drain) and analyzes it. The worker pool implied by options.jobs is
  /// shared with the decode, so a v3 file decodes its chunks in parallel;
  /// the analysis owns the materialized model.
  explicit NoiseAnalysis(trace::EventSource& source, AnalysisOptions options = {});

  const trace::TraceModel& model() const { return *model_; }
  const AnalysisOptions& options() const { return options_; }
  const IntervalSet& intervals() const { return intervals_; }

  /// Kernel + preemption intervals that qualify as noise under the options,
  /// sorted by start time. The charged duration of interval `iv` is
  /// `charged(iv)`.
  const std::vector<Interval>& noise_intervals() const { return noise_; }

  /// Duration charged for one interval under the options.
  DurNs charged(const Interval& iv) const {
    return options_.resolve_nesting ? iv.self : iv.inclusive;
  }

  /// Statistics over *all* kernel intervals of one activity (the tables
  /// describe the activities themselves; frequency is normalized per CPU).
  /// Precomputed in one sharded pass during construction; O(1) here.
  EventStats activity_stats(ActivityKind kind) const;

  /// Duration samples (charged ns) for one activity across noise intervals.
  std::vector<double> noise_durations(ActivityKind kind) const;

  /// Total charged noise per category for one application task (Fig 3 rows).
  std::array<DurNs, static_cast<std::size_t>(NoiseCategory::kMaxCategory)>
  category_breakdown(Pid task) const;

  /// Node-wide breakdown summed over all application tasks.
  std::array<DurNs, static_cast<std::size_t>(NoiseCategory::kMaxCategory)>
  category_breakdown_all() const;

  /// Total charged noise for a task (excluding requested service).
  DurNs total_noise(Pid task) const;

  /// True when `t` lies inside one of `task`'s communication windows.
  bool in_comm_window(Pid task, TimeNs t) const;

 private:
  void run_pipeline();
  void build_noise_list();
  void build_kind_stats();

  /// Set when constructed from an EventSource (the caller has no model to
  /// keep alive); model_ then points here.
  std::unique_ptr<trace::TraceModel> owned_model_;
  const trace::TraceModel* model_;
  AnalysisOptions options_;
  /// Present when options_.jobs resolves to > 1; shared by every phase
  /// (interval shards, classification chunks, stats reduction).
  std::unique_ptr<ThreadPool> pool_;
  IntervalSet intervals_;
  std::vector<Interval> noise_;
  std::map<Pid, std::vector<CommWindow>> comm_by_task_;
  ActivityAccumArray kind_accums_;
};

}  // namespace osn::noise
