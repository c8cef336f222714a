// Interval building: entry/exit pairing, nested-event (self vs inclusive)
// resolution, preemption derivation, communication windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "common/thread_pool.hpp"
#include "noise/interval.hpp"
#include "trace_builder.hpp"

namespace osn::noise {
namespace {

using osn::testing::TraceBuilder;
using trace::EventType;

TEST(Interval, SimplePairBecomesInterval) {
  auto model = TraceBuilder(1)
                   .task(1, "app", true)
                   .pair(0, 100, 2'278, 1, EventType::kIrqEntry,
                         static_cast<std::uint64_t>(trace::IrqVector::kTimer))
                   .build();
  const IntervalSet set = build_intervals(model);
  ASSERT_EQ(set.kernel.size(), 1u);
  const Interval& iv = set.kernel[0];
  EXPECT_EQ(iv.kind, ActivityKind::kTimerIrq);
  EXPECT_EQ(iv.task, 1u);
  EXPECT_EQ(iv.start, 100u);
  EXPECT_EQ(iv.end, 2'278u);
  EXPECT_EQ(iv.inclusive, 2'178u);
  EXPECT_EQ(iv.self, 2'178u);
  EXPECT_EQ(iv.depth, 0u);
}

TEST(Interval, NestedChildSubtractedFromParentSelf) {
  // The paper's canonical case: a timer interrupt inside a tasklet.
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 1'000, 1, EventType::kTaskletEntry,
       static_cast<std::uint64_t>(trace::TaskletId::kNetRx));
  b.ev(0, 1'500, 1, EventType::kIrqEntry,
       static_cast<std::uint64_t>(trace::IrqVector::kTimer));
  b.ev(0, 3'500, 1, EventType::kIrqExit,
       static_cast<std::uint64_t>(trace::IrqVector::kTimer));
  b.ev(0, 6'000, 1, EventType::kTaskletExit,
       static_cast<std::uint64_t>(trace::TaskletId::kNetRx));
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.kernel.size(), 2u);
  // Sorted by start: tasklet first.
  const Interval& tasklet = set.kernel[0];
  const Interval& irq = set.kernel[1];
  EXPECT_EQ(tasklet.kind, ActivityKind::kNetRxTasklet);
  EXPECT_EQ(tasklet.inclusive, 5'000u);
  EXPECT_EQ(tasklet.self, 3'000u);  // 5000 - nested 2000
  EXPECT_EQ(irq.kind, ActivityKind::kTimerIrq);
  EXPECT_EQ(irq.self, 2'000u);
  EXPECT_EQ(irq.depth, 1u);
  // Self times sum to wall time: no double counting.
  EXPECT_EQ(tasklet.self + irq.self, tasklet.inclusive);
}

TEST(Interval, DoubleNestingResolvesEachLevel) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 0, 1, EventType::kSyscallEntry, 0);
  b.ev(0, 100, 1, EventType::kSoftirqEntry, 1);
  b.ev(0, 200, 1, EventType::kIrqEntry, 0);
  b.ev(0, 300, 1, EventType::kIrqExit, 0);
  b.ev(0, 500, 1, EventType::kSoftirqExit, 1);
  b.ev(0, 1'000, 1, EventType::kSyscallExit, 0);
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.kernel.size(), 3u);
  EXPECT_EQ(set.kernel[0].self, 600u);  // syscall: 1000 - 400 (softirq)
  EXPECT_EQ(set.kernel[1].self, 300u);  // softirq: 400 - 100 (irq)
  EXPECT_EQ(set.kernel[2].self, 100u);  // irq
}

TEST(Interval, SequentialSiblingsBothChargedToParent) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 0, 1, EventType::kSyscallEntry, 0);
  b.pair(0, 100, 200, 1, EventType::kIrqEntry, 0);
  b.pair(0, 300, 450, 1, EventType::kIrqEntry, 0);
  b.ev(0, 1'000, 1, EventType::kSyscallExit, 0);
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.kernel.size(), 3u);
  EXPECT_EQ(set.kernel[0].self, 1'000u - 100u - 150u);
}

TEST(Interval, PreemptionDerivedFromSwitches) {
  TraceBuilder b(1);
  b.task(1, "app", true).task(9, "rpciod", false, true);
  // app switched out runnable at t=1000, rpciod runs, app back at t=3215.
  b.ev(0, 1'000, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));
  b.ev(0, 3'215, 9, EventType::kSchedSwitch, trace::pack_switch({9, 1, false}));
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.preemption.size(), 1u);
  const Interval& p = set.preemption[0];
  EXPECT_EQ(p.kind, ActivityKind::kPreemption);
  EXPECT_EQ(p.task, 1u);
  EXPECT_EQ(p.detail, 9u);  // preemptor
  EXPECT_EQ(p.self, 2'215u);
}

TEST(Interval, VoluntarySwitchIsNotPreemption) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 1'000, 1, EventType::kSchedSwitch, trace::pack_switch({1, 0, false}));
  b.ev(0, 9'000, 0, EventType::kSchedSwitch, trace::pack_switch({0, 1, false}));
  EXPECT_TRUE(build_intervals(b.build()).preemption.empty());
}

TEST(Interval, PreemptionClosesOnOtherCpu) {
  // Preempted on CPU 0, migrated, resumes on CPU 1.
  TraceBuilder b(2);
  b.task(1, "app", true).task(9, "rpciod", false, true);
  b.ev(0, 1'000, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));
  b.ev(1, 5'000, 0, EventType::kSchedSwitch, trace::pack_switch({0, 1, false}));
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.preemption.size(), 1u);
  EXPECT_EQ(set.preemption[0].inclusive, 4'000u);
  EXPECT_EQ(set.preemption[0].cpu, 0u);  // where it was preempted
}

TEST(Interval, DanglingPreemptionClosedAtTraceEnd) {
  TraceBuilder b(1);
  b.task(1, "app", true).task(9, "d", false, true);
  b.ev(0, 1'000, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));
  const IntervalSet set = build_intervals(b.build(10'000));
  ASSERT_EQ(set.preemption.size(), 1u);
  EXPECT_EQ(set.preemption[0].end, 10'000u);
}

TEST(Interval, KernelDaemonPreemptionNotTracked) {
  // Only application tasks get preemption intervals.
  TraceBuilder b(1);
  b.task(8, "kd1", false, true).task(9, "kd2", false, true);
  b.ev(0, 1'000, 8, EventType::kSchedSwitch, trace::pack_switch({8, 9, true}));
  b.ev(0, 2'000, 9, EventType::kSchedSwitch, trace::pack_switch({9, 8, false}));
  EXPECT_TRUE(build_intervals(b.build()).preemption.empty());
}

TEST(Interval, CommWindowsFromBarrierMarks) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 1'000, 1, EventType::kAppMark,
       static_cast<std::uint64_t>(trace::AppMark::kBarrierEnter));
  b.ev(0, 5'000, 1, EventType::kAppMark,
       static_cast<std::uint64_t>(trace::AppMark::kBarrierExit));
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.comm.size(), 1u);
  EXPECT_EQ(set.comm[0].task, 1u);
  EXPECT_EQ(set.comm[0].start, 1'000u);
  EXPECT_EQ(set.comm[0].end, 5'000u);
}

TEST(Interval, UnclosedCommWindowEndsAtTraceEnd) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 1'000, 1, EventType::kAppMark,
       static_cast<std::uint64_t>(trace::AppMark::kBarrierEnter));
  const IntervalSet set = build_intervals(b.build(8'000));
  ASSERT_EQ(set.comm.size(), 1u);
  EXPECT_EQ(set.comm[0].end, 8'000u);
}

TEST(Interval, OutputSortedByStart) {
  TraceBuilder b(2);
  b.task(1, "app", true);
  b.pair(1, 500, 600, 1, EventType::kIrqEntry, 0);
  b.pair(0, 100, 200, 1, EventType::kIrqEntry, 0);
  b.pair(0, 900, 950, 1, EventType::kIrqEntry, 0);
  const IntervalSet set = build_intervals(b.build());
  ASSERT_EQ(set.kernel.size(), 3u);
  EXPECT_LT(set.kernel[0].start, set.kernel[1].start);
  EXPECT_LT(set.kernel[1].start, set.kernel[2].start);
}

TEST(Interval, ActivityOfMapsPaperNames) {
  EXPECT_EQ(activity_of(EventType::kSoftirqEntry,
                        static_cast<std::uint64_t>(trace::SoftirqNr::kTimer)),
            ActivityKind::kTimerSoftirq);
  EXPECT_EQ(activity_of(EventType::kSoftirqEntry,
                        static_cast<std::uint64_t>(trace::SoftirqNr::kSched)),
            ActivityKind::kRebalanceSoftirq);
  EXPECT_EQ(activity_of(EventType::kTaskletEntry,
                        static_cast<std::uint64_t>(trace::TaskletId::kNetTx)),
            ActivityKind::kNetTxTasklet);
  EXPECT_EQ(activity_of(EventType::kPageFaultEntry, 0), ActivityKind::kPageFault);
}

TEST(Interval, UnmatchedExitThrowsAnalysisError) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  b.ev(0, 100, 1, EventType::kIrqExit, 0);
  const auto model = b.build();
  try {
    build_intervals(model);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(e.anomaly(), (IntervalAnomaly{AnomalyKind::kStrayExit, 0, 0, 1, 100}));
    EXPECT_NE(std::string(e.what()).find("stray exit on cpu 0 at 100 ns"), std::string::npos)
        << e.what();
  }
}

TEST(Interval, MergeKernelShardsOrdersByStartDepthCpu) {
  auto iv = [](TimeNs start, std::uint16_t depth, CpuId cpu) {
    Interval i;
    i.kind = ActivityKind::kTimerIrq;
    i.cpu = cpu;
    i.start = start;
    i.end = start + 10;
    i.depth = depth;
    return i;
  };
  // Same-start ticks on every CPU (the common case: the periodic timer
  // fires on all CPUs at the same tick timestamp) order by cpu.
  std::vector<std::vector<Interval>> shards = {
      {iv(100, 0, 0), iv(100, 1, 0), iv(500, 0, 0)},
      {iv(100, 0, 1), iv(300, 0, 1)},
      {},
      {iv(50, 0, 3)},
  };
  const std::vector<Interval> merged = merge_kernel_shards(shards);
  ASSERT_EQ(merged.size(), 6u);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(), interval_before));
  EXPECT_EQ(merged[0].cpu, 3u);
  EXPECT_EQ(merged[1].cpu, 0u);   // (100, depth 0, cpu 0)
  EXPECT_EQ(merged[2].cpu, 1u);   // (100, depth 0, cpu 1)
  EXPECT_EQ(merged[3].depth, 1u);  // (100, depth 1, cpu 0)
  EXPECT_EQ(merged[4].start, 300u);
  EXPECT_EQ(merged[5].start, 500u);
}

// ---------------------------------------------------------------------------
// IntervalBuilder: the one pairing engine behind every driver
// ---------------------------------------------------------------------------

using Step = IntervalBuilder::Step;

tracebuf::EventRecord rec(TimeNs ts, CpuId cpu, Pid pid, EventType type, std::uint64_t arg = 0) {
  return trace::make_record(ts, cpu, pid, type, arg);
}

std::uint64_t mark(trace::AppMark m) { return static_cast<std::uint64_t>(m); }

TEST(IntervalBuilder, ReportsEachAnomalyWithItsRecord) {
  struct Case {
    std::vector<tracebuf::EventRecord> records;
    IntervalAnomaly expected;
  };
  const Case cases[] = {
      {{rec(10, 1, 4, EventType::kPageFaultEntry), rec(20, 1, 4, EventType::kPageFaultExit),
        rec(30, 1, 4, EventType::kPageFaultExit)},
       {AnomalyKind::kStrayExit, 1, 2, 4, 30}},
      {{rec(10, 0, 4, EventType::kIrqEntry, 0), rec(20, 0, 4, EventType::kIrqExit, 1)},
       {AnomalyKind::kMismatchedExit, 0, 1, 4, 20}},
      {{rec(10, 0, 4, EventType::kSchedWakeup, 4),
        rec(20, 0, 4, EventType::kSoftirqEntry,
            static_cast<std::uint64_t>(trace::SoftirqNr::kBlock))},
       {AnomalyKind::kUnmappedEntry, 0, 1, 4, 20}},
      {{rec(10, 0, 4, EventType::kSchedSwitch, trace::pack_switch({4, 9, true})),
        rec(20, 1, 9, EventType::kSchedSwitch, trace::pack_switch({4, 9, true}))},
       {AnomalyKind::kNestedPreemption, 1, 0, 4, 20}},
      {{rec(10, 0, 4, EventType::kAppMark, mark(trace::AppMark::kBarrierEnter)),
        rec(20, 0, 4, EventType::kAppMark, mark(trace::AppMark::kBarrierEnter))},
       {AnomalyKind::kReenteredBarrier, 0, 1, 4, 20}},
  };
  for (const Case& c : cases) {
    IntervalBuilder builder;
    Step last = Step::kNone;
    for (const auto& r : c.records) last = builder.feed(r);
    EXPECT_EQ(last, Step::kAnomaly);
    EXPECT_EQ(builder.anomaly(), c.expected) << to_string(c.expected);
  }

  // End of trace: the earliest entry still open, ties to the lower cpu.
  IntervalBuilder builder;
  builder.feed(rec(5, 1, 7, EventType::kSyscallEntry));
  builder.feed(rec(5, 0, 3, EventType::kSyscallEntry));
  builder.feed(rec(6, 0, 3, EventType::kIrqEntry));
  builder.finish(100, [](Step) { ADD_FAILURE() << "nothing closes past an open entry"; });
  EXPECT_EQ(builder.anomaly(), (IntervalAnomaly{AnomalyKind::kUnclosedAtEnd, 0, 0, 3, 5}));
}

TEST(IntervalBuilder, FirstAnomalyHaltsWithStateFrozen) {
  // Rotation gating reads open_frames()/quiescent() after an anomaly: a
  // stray exit leaves the stacks as they were, a mismatched exit has
  // consumed its frame, and nothing after the anomaly is applied.
  IntervalBuilder stray;
  stray.feed(rec(10, 0, 1, EventType::kSyscallEntry));
  EXPECT_EQ(stray.feed(rec(20, 1, 1, EventType::kIrqExit)), Step::kAnomaly);
  EXPECT_EQ(stray.feed(rec(30, 0, 1, EventType::kSyscallExit)), Step::kNone);
  EXPECT_EQ(stray.open_frames(), 1u);
  EXPECT_FALSE(stray.quiescent());
  stray.finish(40, [](Step) { ADD_FAILURE() << "a halted builder closes nothing"; });
  EXPECT_EQ(stray.anomaly()->kind, AnomalyKind::kStrayExit);

  IntervalBuilder mismatched;
  mismatched.feed(rec(10, 0, 1, EventType::kIrqEntry, 0));
  EXPECT_EQ(mismatched.feed(rec(20, 0, 1, EventType::kIrqExit, 2)), Step::kAnomaly);
  EXPECT_EQ(mismatched.open_frames(), 0u);
  EXPECT_FALSE(mismatched.quiescent());
}

TEST(IntervalBuilder, BenignNoOpsAndTheClosingProtocol) {
  IntervalBuilder builder;
  // A barrier exit with no enter and a switch-in with no pending preemption
  // (what window-cut traces start with) change nothing.
  EXPECT_EQ(builder.feed(rec(1, 0, 2, EventType::kAppMark, mark(trace::AppMark::kBarrierExit))),
            Step::kNone);
  EXPECT_EQ(builder.feed(rec(2, 0, 9, EventType::kSchedSwitch, trace::pack_switch({9, 2, false}))),
            Step::kNone);
  EXPECT_TRUE(builder.quiescent());

  // Kernel intervals close innermost first, with their entry ordinals.
  EXPECT_EQ(builder.feed(rec(10, 0, 2, EventType::kSyscallEntry)), Step::kOpened);
  EXPECT_EQ(builder.feed(rec(12, 0, 2, EventType::kIrqEntry)), Step::kOpened);
  EXPECT_EQ(builder.feed(rec(15, 0, 2, EventType::kIrqExit)), Step::kKernel);
  EXPECT_EQ(builder.closed().kind, ActivityKind::kTimerIrq);
  EXPECT_EQ(builder.closed().depth, 1u);
  EXPECT_EQ(builder.closed_ordinal(), 1u);
  EXPECT_EQ(builder.feed(rec(20, 0, 2, EventType::kSyscallExit)), Step::kKernel);
  EXPECT_EQ(builder.closed().self, 7u);
  EXPECT_EQ(builder.closed_ordinal(), 0u);
  EXPECT_FALSE(builder.closed_in_comm());

  // Preemption and comm windows; a kernel entry inside the window is
  // flagged so write-time consumers can exclude it.
  builder.feed(rec(30, 0, 2, EventType::kAppMark, mark(trace::AppMark::kBarrierEnter)));
  builder.feed(rec(31, 0, 2, EventType::kPageFaultEntry));
  EXPECT_EQ(builder.feed(rec(32, 0, 2, EventType::kPageFaultExit)), Step::kKernel);
  EXPECT_TRUE(builder.closed_in_comm());
  builder.feed(rec(40, 0, 2, EventType::kSchedSwitch, trace::pack_switch({2, 9, true})));
  builder.feed(rec(41, 1, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true})));
  EXPECT_FALSE(builder.quiescent());
  EXPECT_EQ(builder.feed(rec(50, 1, 9, EventType::kSchedSwitch, trace::pack_switch({9, 2, false}))),
            Step::kPreemption);
  EXPECT_EQ(builder.closed().task, 2u);
  EXPECT_EQ(builder.closed().cpu, 0u);  // where it was preempted
  EXPECT_EQ(builder.closed().inclusive, 10u);
  EXPECT_TRUE(builder.closed_in_comm());

  // At the end, dangling windows close in pid order: task 1's preemption,
  // then task 2's communication window.
  std::vector<std::string> closes;
  builder.finish(100, [&](Step step) {
    closes.push_back(step == Step::kComm
                         ? "comm " + std::to_string(builder.comm().task) + " " +
                               std::to_string(builder.comm().start) + ".." +
                               std::to_string(builder.comm().end)
                         : "preemption " + std::to_string(builder.closed().task) + " .." +
                               std::to_string(builder.closed().end));
  });
  EXPECT_EQ(closes, (std::vector<std::string>{"preemption 1 ..100", "comm 2 30..100"}));
  EXPECT_EQ(builder.anomaly(), std::nullopt);
}

TEST(IntervalBuilder, OfflineDriverThrowsTheMergedOrderFirstAtAnyPool) {
  // Anomalies on three CPUs and in the task half: the earliest in
  // (timestamp, cpu, index) order wins, whichever shard finishes first, and
  // an unclosed entry ranks after every in-stream anomaly.
  TraceBuilder b(4);
  b.task(1, "app", true).task(9, "d", false, true);
  b.ev(0, 100, 1, EventType::kSyscallEntry);  // never closed
  b.pair(1, 150, 160, 1, EventType::kIrqEntry);
  b.ev(1, 700, 1, EventType::kIrqExit);  // stray, later
  b.ev(2, 500, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));
  b.ev(3, 500, 1, EventType::kSchedSwitch, trace::pack_switch({1, 9, true}));  // nested
  b.ev(2, 500, 1, EventType::kIrqExit);  // stray on cpu 2 at the same time: lower cpu
  const trace::TraceModel model = b.build(1'000);
  const IntervalAnomaly expected{AnomalyKind::kStrayExit, 2, 1, 1, 500};
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    std::optional<ThreadPool> pool;
    if (workers > 0) pool.emplace(workers);
    try {
      build_intervals(model, pool ? &*pool : nullptr);
      ADD_FAILURE() << "expected AnalysisError";
    } catch (const AnalysisError& e) {
      EXPECT_EQ(e.anomaly(), expected) << "workers " << workers << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace osn::noise
