// Kernel-activity intervals: the unit of the paper's quantitative analysis.
//
// The analyzer pairs every entry/exit tracepoint into an Interval carrying
// *inclusive* time (wall clock between entry and exit) and *self* time
// (inclusive minus nested children). Nested events — "events that happen
// while the OS is already performing other activities", e.g. a timer
// interrupt raised while the kernel runs a tasklet — are the case §III-A
// singles out as "particularly important for obtaining correct statistics":
// without self-time resolution, the tasklet's duration would double-count
// the interrupt that preempted it.
//
// Preemption intervals (an application task descheduled while runnable) are
// derived from sched_switch events and attributed to the preempted task,
// with the preempting task recorded for the per-daemon breakdown.
// One IntervalBuilder pairs for every driver; records it cannot pair are a
// typed IntervalAnomaly, never an assert.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "trace/schema.hpp"
#include "trace/trace_model.hpp"
#include "tracebuf/record.hpp"

namespace osn::noise {

enum class ActivityKind : std::uint8_t {
  kTimerIrq,
  kNetIrq,
  kReschedIpi,
  kTimerSoftirq,      ///< run_timer_softirq
  kRebalanceSoftirq,  ///< run_rebalance_domains
  kRcuSoftirq,        ///< rcu_process_callbacks
  kNetRxTasklet,      ///< net_rx_action
  kNetTxTasklet,      ///< net_tx_action
  kPageFault,
  kSyscall,
  kSchedule,    ///< the schedule() function
  kPreemption,  ///< derived: runnable task descheduled
  kMaxKind
};

std::string_view activity_name(ActivityKind k);

/// Reverse of activity_name: parses a user-supplied activity filter (CLI
/// `--activity`, serve request field). nullopt for unknown names.
std::optional<ActivityKind> activity_from_name(std::string_view name);

struct Interval {
  ActivityKind kind = ActivityKind::kMaxKind;
  std::uint64_t detail = 0;  ///< pf kind / syscall nr / preempting pid
  CpuId cpu = 0;
  Pid task = 0;  ///< task in whose context it occurred (preempted task for kPreemption)
  TimeNs start = 0;
  TimeNs end = 0;
  DurNs inclusive = 0;
  DurNs self = 0;
  std::uint16_t depth = 0;  ///< nesting depth; 0 = outermost kernel activity

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// A time window during which a task was inside an application-level
/// communication phase (barrier enter..exit markers): kernel activity inside
/// it is excluded from noise by the runnable filter.
struct CommWindow {
  Pid task = 0;
  TimeNs start = 0;
  TimeNs end = 0;
};

/// All intervals extracted from a trace, sorted by interval_before.
struct IntervalSet {
  std::vector<Interval> kernel;      ///< entry/exit-paired kernel activities
  std::vector<Interval> preemption;  ///< derived preemption intervals
  std::vector<CommWindow> comm;      ///< barrier (communication) windows
};

/// Strict ordering used everywhere intervals are sorted or merged:
/// (start, depth, cpu) — a total order on kernel intervals, since one CPU
/// cannot open two intervals at the same timestamp and depth — with
/// content tie-breakers so mixed kernel/preemption lists order
/// deterministically too (no dependence on sort algorithm or shard count).
bool interval_before(const Interval& a, const Interval& b);

/// The ways a record stream can break the pairing model.
enum class AnomalyKind : std::uint8_t {
  kStrayExit,         ///< exit with no open entry on its CPU
  kMismatchedExit,    ///< exit that does not close its CPU's innermost entry
  kUnmappedEntry,     ///< entry event whose argument maps to no activity
  kUnclosedAtEnd,     ///< kernel entry still open when the trace ends
  kNestedPreemption,  ///< a task switched out runnable while already preempted
  kReenteredBarrier,  ///< barrier enter while already inside a barrier
};

std::string_view anomaly_name(AnomalyKind kind);

/// The first record breaking the model (for kUnclosedAtEnd: earliest open entry).
struct IntervalAnomaly {
  AnomalyKind kind = AnomalyKind::kStrayExit;
  CpuId cpu = 0;
  std::uint64_t index = 0;  ///< position of the record in its CPU's stream
  Pid pid = 0;              ///< the record's task (the preempted one for switches)
  TimeNs timestamp = 0;

  friend bool operator==(const IntervalAnomaly&, const IntervalAnomaly&) = default;
};

/// Merged-stream order: in-stream anomalies before kUnclosedAtEnd, then
/// (timestamp, cpu, index).
bool anomaly_before(const IntervalAnomaly& a, const IntervalAnomaly& b);

/// "stray exit on cpu 0 at 300 ns (cpu record 2, pid 1)".
std::string to_string(const IntervalAnomaly& a);

/// Thrown by build_intervals (so by NoiseAnalysis) for a trace it cannot pair.
class AnalysisError : public std::runtime_error {
 public:
  explicit AnalysisError(const IntervalAnomaly& anomaly);
  const IntervalAnomaly& anomaly() const { return anomaly_; }

 private:
  IntervalAnomaly anomaly_;
};

/// Incremental entry/exit pairing, fed one record at a time. The kernel half
/// keeps a frame stack per CPU and needs each CPU's records in order; the
/// task half derives every task's preemptions (runnable switch-out .. its
/// next switch-in, on any CPU) and comm windows (barrier enter .. exit) and
/// needs the merged stream. A barrier exit with no enter and a switch-in with
/// nothing pending are no-ops (window-cut traces start with both). A record
/// closes at most one interval, announced by the returned Step; the first
/// anomaly halts the builder with its state as it was.
class IntervalBuilder {
 public:
  enum class Halves : std::uint8_t { kKernel, kTasks, kBoth };
  enum class Step : std::uint8_t {
    kNone,
    kOpened,      ///< a kernel entry opened a frame
    kKernel,      ///< closed() holds a kernel interval
    kPreemption,  ///< closed() holds a preemption interval
    kComm,        ///< comm() holds a communication window
    kAnomaly,     ///< anomaly() is now set
  };

  /// `cpu_subset`: the stream holds only some CPUs, so a re-opened task
  /// window (closed on an unseen CPU) restarts instead of being an anomaly.
  explicit IntervalBuilder(Halves halves = Halves::kBoth, bool cpu_subset = false)
      : halves_(halves), cpu_subset_(cpu_subset) {}

  Step feed(const tracebuf::EventRecord& rec) {
    if (anomaly_) return Step::kNone;
    if (rec.cpu >= cpus_.size()) cpus_.resize(rec.cpu + std::size_t{1});
    const std::uint64_t index = cpus_[rec.cpu].records++;
    const auto type = static_cast<trace::EventType>(rec.event);
    if (type == trace::EventType::kSchedSwitch || type == trace::EventType::kAppMark)
      return halves_ != Halves::kKernel ? task(rec, index) : Step::kNone;
    if (halves_ == Halves::kTasks) return Step::kNone;
    const bool entry = trace::is_entry(type);
    return entry || trace::is_exit(type) ? kernel(rec, index, entry) : Step::kNone;
  }

  /// End of trace: an open entry is kUnclosedAtEnd; otherwise dangling
  /// preemptions and comm windows close at `end` (pid order) via on_close.
  template <class OnClose>
  void finish(TimeNs end, OnClose&& on_close) {
    if (anomaly_ || report_unclosed()) return;
    for (auto& [pid, st] : tasks_) {
      if (st.preempted) on_close(close_preemption(st, end));
      if (st.in_comm) on_close(close_comm(pid, st, end));
    }
  }

  const Interval& closed() const { return closed_; }
  /// The closed kernel interval's entry ordinal on its CPU.
  std::uint64_t closed_ordinal() const { return closed_ordinal_; }
  /// Its task was inside a comm window when it began (both halves only).
  bool closed_in_comm() const { return closed_in_comm_; }
  const CommWindow& comm() const { return comm_; }
  const std::optional<IntervalAnomaly>& anomaly() const { return anomaly_; }

  std::size_t open_frames() const;
  /// No frame open, no task preempted or in a comm window, no anomaly.
  bool quiescent() const;

 private:
  struct Frame {
    ActivityKind kind = ActivityKind::kMaxKind;
    bool in_comm = false;
    Pid task = 0;
    std::uint64_t detail = 0;
    TimeNs start = 0;
    DurNs child_time = 0;
    std::uint64_t index = 0;  ///< the entry record's per-CPU index
    std::uint64_t ordinal = 0;
  };
  struct CpuState {
    std::vector<Frame> stack;
    std::uint64_t records = 0;
    std::uint64_t entries = 0;
  };
  struct TaskState {
    bool preempted = false;
    bool pre_in_comm = false;
    bool in_comm = false;
    Interval pre;  ///< the pending preemption, open since pre.start
    TimeNs comm_start = 0;
  };

  Step kernel(const tracebuf::EventRecord& rec, std::uint64_t index, bool entry);
  Step task(const tracebuf::EventRecord& rec, std::uint64_t index);
  Step close_preemption(TaskState& st, TimeNs end);
  Step close_comm(Pid task, TaskState& st, TimeNs end);
  Step fail(AnomalyKind kind, const tracebuf::EventRecord& rec, std::uint64_t index, Pid pid);
  bool report_unclosed();

  Halves halves_;
  bool cpu_subset_;
  std::vector<CpuState> cpus_;
  std::map<Pid, TaskState> tasks_;
  std::optional<IntervalAnomaly> anomaly_;
  Interval closed_;
  std::uint64_t closed_ordinal_ = 0;
  bool closed_in_comm_ = false;
  CommWindow comm_;
};

/// Builds the interval set from a trace: per-CPU kernel shards (parallel
/// with a pool) plus the task half over the merged stream on the calling
/// thread; identical at any pool size. Keeps only application tasks'
/// preemptions. Throws AnalysisError for the first anomaly in merged order,
/// after every shard has been joined.
IntervalSet build_intervals(const trace::TraceModel& model, ThreadPool* pool = nullptr,
                            bool cpu_subset = false);

/// Deterministic k-way merge of per-CPU kernel shards by interval_before.
std::vector<Interval> merge_kernel_shards(std::vector<std::vector<Interval>> shards);

/// Maps an entry/exit pair (event type + arg) to its ActivityKind; nullopt
/// for an unmapped entry.
std::optional<ActivityKind> activity_of(trace::EventType entry_type, std::uint64_t arg);

}  // namespace osn::noise
