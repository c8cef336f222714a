#include "noise/interval.hpp"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "trace/schema.hpp"

namespace osn::noise {

using trace::EventType;

std::string_view activity_name(ActivityKind k) {
  static constexpr std::string_view kNames[] = {
      "timer_interrupt",   "net_interrupt",         "resched_ipi",
      "run_timer_softirq", "run_rebalance_domains", "rcu_process_callbacks",
      "net_rx_action",     "net_tx_action",         "page_fault",
      "syscall",           "schedule",              "preemption"};
  static_assert(std::size(kNames) == static_cast<std::size_t>(ActivityKind::kMaxKind));
  const auto i = static_cast<std::size_t>(k);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

std::optional<ActivityKind> activity_from_name(std::string_view name) {
  for (std::size_t k = 0; k < static_cast<std::size_t>(ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<ActivityKind>(k);
    if (activity_name(kind) == name) return kind;
  }
  return std::nullopt;
}

std::optional<ActivityKind> activity_of(EventType entry_type, std::uint64_t arg) {
  switch (entry_type) {
    case EventType::kIrqEntry:
      switch (static_cast<trace::IrqVector>(arg)) {
        case trace::IrqVector::kTimer: return ActivityKind::kTimerIrq;
        case trace::IrqVector::kNet: return ActivityKind::kNetIrq;
        case trace::IrqVector::kResched: return ActivityKind::kReschedIpi;
      }
      break;
    case EventType::kSoftirqEntry:
      switch (static_cast<trace::SoftirqNr>(arg)) {
        case trace::SoftirqNr::kTimer: return ActivityKind::kTimerSoftirq;
        case trace::SoftirqNr::kSched: return ActivityKind::kRebalanceSoftirq;
        case trace::SoftirqNr::kRcu: return ActivityKind::kRcuSoftirq;
        case trace::SoftirqNr::kNetRx: return ActivityKind::kNetRxTasklet;
        case trace::SoftirqNr::kNetTx: return ActivityKind::kNetTxTasklet;
        default: break;
      }
      break;
    case EventType::kTaskletEntry:
      switch (static_cast<trace::TaskletId>(arg)) {
        case trace::TaskletId::kNetRx: return ActivityKind::kNetRxTasklet;
        case trace::TaskletId::kNetTx: return ActivityKind::kNetTxTasklet;
      }
      break;
    case EventType::kPageFaultEntry: return ActivityKind::kPageFault;
    case EventType::kSyscallEntry: return ActivityKind::kSyscall;
    case EventType::kScheduleEntry: return ActivityKind::kSchedule;
    default: break;
  }
  return std::nullopt;
}

bool interval_before(const Interval& a, const Interval& b) {
  return std::tie(a.start, a.depth, a.cpu, a.kind, a.task, a.detail, a.end) <
         std::tie(b.start, b.depth, b.cpu, b.kind, b.task, b.detail, b.end);
}

std::string_view anomaly_name(AnomalyKind kind) {
  static constexpr std::string_view kNames[] = {
      "stray exit",        "mismatched exit",   "unmapped entry", "unclosed at end of trace",
      "nested preemption", "re-entered barrier"};
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kNames) ? kNames[i] : "unknown anomaly";
}

bool anomaly_before(const IntervalAnomaly& a, const IntervalAnomaly& b) {
  const auto key = [](const IntervalAnomaly& x) {
    return std::tuple(x.kind == AnomalyKind::kUnclosedAtEnd, x.timestamp, x.cpu, x.index);
  };
  return key(a) < key(b);
}

std::string to_string(const IntervalAnomaly& a) {
  return std::string(anomaly_name(a.kind)) + " on cpu " + std::to_string(a.cpu) + " at " +
         std::to_string(a.timestamp) + " ns (cpu record " + std::to_string(a.index) +
         ", pid " + std::to_string(a.pid) + ")";
}

AnalysisError::AnalysisError(const IntervalAnomaly& anomaly)
    : std::runtime_error("cannot analyze trace: " + to_string(anomaly)), anomaly_(anomaly) {}

IntervalBuilder::Step IntervalBuilder::kernel(const tracebuf::EventRecord& rec,
                                              std::uint64_t index, bool entry) {
  const auto type = static_cast<EventType>(rec.event);
  std::vector<Frame>& stack = cpus_[rec.cpu].stack;
  if (entry) {
    const auto kind = activity_of(type, rec.arg);
    if (!kind) return fail(AnomalyKind::kUnmappedEntry, rec, index, rec.pid);
    const auto it = tasks_.find(rec.pid);  // stays empty for a kernel-only builder
    const bool in_comm = it != tasks_.end() && it->second.in_comm;
    // The task current on the CPU at entry is the one charged.
    stack.push_back(Frame{*kind, in_comm, rec.pid, rec.arg, rec.timestamp, 0, index,
                          cpus_[rec.cpu].entries++});
    return Step::kOpened;
  }
  if (stack.empty()) return fail(AnomalyKind::kStrayExit, rec, index, rec.pid);
  const Frame frame = stack.back();
  stack.pop_back();
  if (activity_of(trace::entry_of(type), rec.arg) != frame.kind || rec.timestamp < frame.start)
    return fail(AnomalyKind::kMismatchedExit, rec, index, rec.pid);
  const DurNs inclusive = rec.timestamp - frame.start;
  closed_ = Interval{frame.kind, frame.detail, rec.cpu, frame.task, frame.start, rec.timestamp,
                     inclusive, sat_sub(inclusive, frame.child_time),
                     static_cast<std::uint16_t>(stack.size())};
  closed_ordinal_ = frame.ordinal;
  closed_in_comm_ = frame.in_comm;
  if (!stack.empty()) stack.back().child_time += inclusive;
  return Step::kKernel;
}

IntervalBuilder::Step IntervalBuilder::task(const tracebuf::EventRecord& rec,
                                            std::uint64_t index) {
  const auto type = static_cast<EventType>(rec.event);
  if (type == EventType::kSchedSwitch) {
    const trace::SwitchArg sw = trace::unpack_switch(rec.arg);
    if (sw.prev != kIdlePid && sw.prev_runnable) {
      TaskState& st = tasks_[sw.prev];
      if (st.preempted && !cpu_subset_)
        return fail(AnomalyKind::kNestedPreemption, rec, index, sw.prev);
      st.preempted = true;
      st.pre_in_comm = st.in_comm;
      st.pre = Interval{ActivityKind::kPreemption, sw.next, rec.cpu, sw.prev, rec.timestamp};
    }
    const auto it = sw.next != kIdlePid ? tasks_.find(sw.next) : tasks_.end();
    if (it != tasks_.end() && it->second.preempted)
      return close_preemption(it->second, rec.timestamp);
  } else if (type == EventType::kAppMark) {
    const auto mark = static_cast<trace::AppMark>(rec.arg);
    if (mark == trace::AppMark::kBarrierEnter) {
      TaskState& st = tasks_[rec.pid];
      if (st.in_comm && !cpu_subset_)
        return fail(AnomalyKind::kReenteredBarrier, rec, index, rec.pid);
      st.in_comm = true;
      st.comm_start = rec.timestamp;
    } else if (mark == trace::AppMark::kBarrierExit) {
      const auto it = tasks_.find(rec.pid);
      if (it != tasks_.end() && it->second.in_comm)
        return close_comm(rec.pid, it->second, rec.timestamp);
    }
  }
  return Step::kNone;
}

IntervalBuilder::Step IntervalBuilder::close_preemption(TaskState& st, TimeNs end) {
  closed_ = st.pre;
  closed_.end = end;
  closed_.inclusive = closed_.self = end - st.pre.start;  // unsigned, like every path before
  closed_in_comm_ = st.pre_in_comm;
  st.preempted = false;
  return Step::kPreemption;
}

IntervalBuilder::Step IntervalBuilder::close_comm(Pid task, TaskState& st, TimeNs end) {
  comm_ = CommWindow{task, st.comm_start, end};
  st.in_comm = false;
  return Step::kComm;
}

bool IntervalBuilder::report_unclosed() {
  // Each CPU's outermost open frame is its earliest; report the earliest of
  // those (ties to the lower cpu).
  for (std::size_t c = 0; c < cpus_.size(); ++c) {
    if (cpus_[c].stack.empty()) continue;
    const Frame& f = cpus_[c].stack.front();
    if (!anomaly_ || f.start < anomaly_->timestamp)
      anomaly_ = IntervalAnomaly{AnomalyKind::kUnclosedAtEnd, static_cast<CpuId>(c), f.index,
                                 f.task, f.start};
  }
  return anomaly_.has_value();
}

IntervalBuilder::Step IntervalBuilder::fail(AnomalyKind kind, const tracebuf::EventRecord& rec,
                                            std::uint64_t index, Pid pid) {
  anomaly_ = IntervalAnomaly{kind, rec.cpu, index, pid, rec.timestamp};
  return Step::kAnomaly;
}

std::size_t IntervalBuilder::open_frames() const {
  std::size_t open = 0;
  for (const CpuState& cpu : cpus_) open += cpu.stack.size();
  return open;
}

bool IntervalBuilder::quiescent() const {
  if (anomaly_) return false;
  for (const CpuState& cpu : cpus_)
    if (!cpu.stack.empty()) return false;
  for (const auto& [pid, st] : tasks_)
    if (st.preempted || st.in_comm) return false;
  return true;
}

namespace {

/// One CPU's kernel intervals in entry order, or the CPU's first anomaly.
struct KernelShard {
  std::vector<Interval> intervals;
  std::optional<IntervalAnomaly> anomaly;
};

KernelShard scan_cpu(const trace::TraceModel& model, CpuId cpu) {
  KernelShard out;
  IntervalBuilder builder(IntervalBuilder::Halves::kKernel);
  for (const auto& rec : model.cpu_events(cpu)) {
    const IntervalBuilder::Step step = builder.feed(rec);
    if (step == IntervalBuilder::Step::kOpened) out.intervals.emplace_back();
    if (step == IntervalBuilder::Step::kKernel)
      out.intervals[builder.closed_ordinal()] = builder.closed();
  }
  builder.finish(model.meta().end_ns, [](IntervalBuilder::Step) {});
  out.anomaly = builder.anomaly();
  return out;
}

}  // namespace

std::vector<Interval> merge_kernel_shards(std::vector<std::vector<Interval>> shards) {
  std::size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  std::vector<Interval> out;
  out.reserve(total);

  // Shards are ordered by interval_before and cannot tie across each other,
  // so taking the smallest head is deterministic; linear selection over
  // k <= 64 shards beats a heap.
  std::vector<std::size_t> cursor(shards.size(), 0);
  while (out.size() < total) {
    std::size_t best = shards.size();
    for (std::size_t s = 0; s < shards.size(); ++s) {
      if (cursor[s] == shards[s].size()) continue;
      if (best == shards.size() ||
          interval_before(shards[s][cursor[s]], shards[best][cursor[best]]))
        best = s;
    }
    out.push_back(shards[best][cursor[best]]);
    ++cursor[best];
  }
  return out;
}

IntervalSet build_intervals(const trace::TraceModel& model, ThreadPool* pool,
                            bool cpu_subset) {
  IntervalSet out;

  // --- kernel half: one shard per CPU (LTTng's channels are per-CPU) -------
  std::vector<KernelShard> shards(model.cpu_count());
  std::vector<std::future<KernelShard>> futures;
  if (pool != nullptr && model.cpu_count() > 1) {
    futures.reserve(model.cpu_count());
    for (CpuId cpu = 0; cpu < model.cpu_count(); ++cpu)
      futures.push_back(pool->submit([&model, cpu] { return scan_cpu(model, cpu); }));
  } else {
    for (CpuId cpu = 0; cpu < model.cpu_count(); ++cpu) shards[cpu] = scan_cpu(model, cpu);
  }

  // --- task half, on the calling thread meanwhile ---------------------------
  IntervalBuilder tasks(IntervalBuilder::Halves::kTasks, cpu_subset);
  const auto keep = [&](IntervalBuilder::Step step) {
    if (step == IntervalBuilder::Step::kPreemption && model.is_app(tasks.closed().task))
      out.preemption.push_back(tasks.closed());
    else if (step == IntervalBuilder::Step::kComm)
      out.comm.push_back(tasks.comm());
  };
  for (const auto& rec : model.merged()) keep(tasks.feed(rec));
  // Dangling windows close at trace end (a task preempted when tracing
  // stopped still contributes the observed portion).
  tasks.finish(model.meta().end_ns, keep);

  for (auto& future : futures) future.wait();
  for (std::size_t cpu = 0; cpu < futures.size(); ++cpu) shards[cpu] = futures[cpu].get();

  std::optional<IntervalAnomaly> first = tasks.anomaly();
  std::vector<std::vector<Interval>> kernel;
  kernel.reserve(shards.size());
  for (KernelShard& shard : shards) {
    if (shard.anomaly && (!first || anomaly_before(*shard.anomaly, *first)))
      first = shard.anomaly;
    kernel.push_back(std::move(shard.intervals));
  }
  if (first) throw AnalysisError(*first);
  out.kernel = merge_kernel_shards(std::move(kernel));
  std::sort(out.preemption.begin(), out.preemption.end(), interval_before);
  return out;
}

}  // namespace osn::noise
