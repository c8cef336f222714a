// Record-stream fuzz suite: seeded, per-CPU monotone, structurally valid
// streams that break the pairing model in each way IntervalBuilder names,
// at random positions and CPUs, mixed with well-formed traffic. Nothing may
// abort; the offline analyzer (at any jobs), the write-time IndexAggregator,
// the live StreamingStats (for kernel-side anomalies) and the CLI must agree
// on the first anomaly — `verify`'s exit code predicts `stats`'s — and
// well-formed streams keep their exact output.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "export/index_summary.hpp"
#include "export/json.hpp"
#include "noise/analysis.hpp"
#include "noise/index_aggregate.hpp"
#include "noise/streaming.hpp"
#include "trace/event_source.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::noise {
namespace {

using osn::testing::TraceBuilder;
using trace::EventType;

constexpr AnomalyKind kAllKinds[] = {
    AnomalyKind::kStrayExit,        AnomalyKind::kMismatchedExit,
    AnomalyKind::kUnmappedEntry,    AnomalyKind::kUnclosedAtEnd,
    AnomalyKind::kNestedPreemption, AnomalyKind::kReenteredBarrier,
};

bool kernel_side(AnomalyKind kind) {
  return kind != AnomalyKind::kNestedPreemption && kind != AnomalyKind::kReenteredBarrier;
}

struct Entry {
  EventType type;
  std::uint64_t arg;
};

/// Mapped entries (one per activity family).
constexpr Entry kEntries[] = {
    {EventType::kIrqEntry, 0},       {EventType::kIrqEntry, 1},
    {EventType::kIrqEntry, 2},       {EventType::kSoftirqEntry, 1},
    {EventType::kSoftirqEntry, 7},   {EventType::kSoftirqEntry, 9},
    {EventType::kTaskletEntry, 1},   {EventType::kPageFaultEntry, 1},
    {EventType::kSyscallEntry, 3},   {EventType::kScheduleEntry, 0},
};
/// Entries whose argument maps to no activity.
constexpr Entry kUnmapped[] = {
    {EventType::kIrqEntry, 7},
    {EventType::kSoftirqEntry, 4},  // block
    {EventType::kSoftirqEntry, 0},  // hi
    {EventType::kTaskletEntry, 5},
};
/// (entry, exit) pairs whose activities differ.
constexpr std::pair<Entry, Entry> kMismatched[] = {
    {{EventType::kIrqEntry, 0}, {EventType::kIrqExit, 1}},
    {{EventType::kSyscallEntry, 0}, {EventType::kPageFaultExit, 0}},
    {{EventType::kSoftirqEntry, 1}, {EventType::kSoftirqExit, 9}},
    {{EventType::kIrqEntry, 2}, {EventType::kIrqExit, 999}},
};

constexpr Pid kRanks[] = {1, 2, 3};
constexpr Pid kDaemon = 9;

/// Generates one stream in global time order (so the merged order is the
/// generation order), tracking the pairing state the way the analyzer does
/// so well-formed traffic stays well-formed around the one injected fault.
class StreamGenerator {
 public:
  StreamGenerator(std::uint64_t seed, std::optional<AnomalyKind> inject)
      : rng_(seed), inject_(inject), n_cpus_(static_cast<std::uint16_t>(1 + rng_.bounded(4))),
        b_(n_cpus_), stacks_(n_cpus_), pinned_(n_cpus_, 0) {
    b_.task(1, "rank0", true).task(2, "rank1", true).task(3, "rank2", true);
    b_.task(kDaemon, "kdaemon", false, true);
  }

  trace::TraceModel build() {
    const std::size_t steps = 150 + rng_.bounded(300);
    const std::size_t inject_at = rng_.bounded(steps);
    for (std::size_t i = 0; i < steps; ++i) {
      if (inject_ && i == inject_at) {
        inject(*inject_);
      } else {
        well_formed_step();
      }
    }
    // Close every frame but pinned (deliberately unclosed) ones; leave some
    // preemptions and communication windows dangling — they close at the
    // trace end, which is legal.
    for (CpuId cpu = 0; cpu < n_cpus_; ++cpu)
      while (stacks_[cpu].size() > pinned_[cpu]) close_top(cpu);
    return b_.build(t_ + 1'000);
  }

 private:
  TimeNs tick() { return t_ += 1 + rng_.bounded(300); }
  CpuId any_cpu() { return static_cast<CpuId>(rng_.bounded(n_cpus_)); }
  Pid any_rank() { return kRanks[rng_.bounded(std::size(kRanks))]; }

  void ev(CpuId cpu, Pid pid, EventType type, std::uint64_t arg) {
    b_.ev(cpu, tick(), pid, type, arg);
  }
  void open(CpuId cpu, Pid pid, const Entry& e) {
    ev(cpu, pid, e.type, e.arg);
    stacks_[cpu].push_back(e);
  }
  void close_top(CpuId cpu) {
    const Entry e = stacks_[cpu].back();
    stacks_[cpu].pop_back();
    ev(cpu, kRanks[0], trace::exit_of(e.type), e.arg);
  }
  void switch_out(CpuId cpu, Pid pid, bool runnable) {
    ev(cpu, pid, EventType::kSchedSwitch, trace::pack_switch({pid, kDaemon, runnable}));
  }
  void switch_in(CpuId cpu, Pid pid) {
    ev(cpu, kDaemon, EventType::kSchedSwitch, trace::pack_switch({kDaemon, pid, false}));
  }
  void mark(CpuId cpu, Pid pid, trace::AppMark m) {
    ev(cpu, pid, EventType::kAppMark, static_cast<std::uint64_t>(m));
  }

  void well_formed_step() {
    const CpuId cpu = any_cpu();
    const Pid pid = rng_.bounded(5) == 0 ? kDaemon : any_rank();
    switch (rng_.bounded(8)) {
      case 0:
      case 1:
        if (stacks_[cpu].size() < 4) open(cpu, pid, kEntries[rng_.bounded(std::size(kEntries))]);
        break;
      case 2:
      case 3:
        if (stacks_[cpu].size() > pinned_[cpu]) close_top(cpu);
        break;
      case 4: {  // preemption of a rank, or a benign switch
        if (pid == kDaemon) break;
        bool& preempted = preempted_[pid];
        if (!preempted) {
          // A voluntary switch-out, or a switch-in with nothing pending,
          // are benign no-ops.
          if (rng_.bounded(8) == 0) {
            switch_out(cpu, pid, /*runnable=*/false);
          } else if (rng_.bounded(8) == 0) {
            switch_in(cpu, pid);
          } else {
            switch_out(cpu, pid, true);
            preempted = true;
          }
        } else {
          switch_in(cpu, pid);  // resumes on any cpu (migration)
          preempted = false;
        }
        break;
      }
      case 5: {  // barrier windows, including a benign exit without enter
        bool& in_comm = in_comm_[pid];
        if (in_comm || rng_.bounded(5) == 0) {
          mark(cpu, pid, trace::AppMark::kBarrierExit);
          in_comm = false;
        } else {
          mark(cpu, pid, trace::AppMark::kBarrierEnter);
          in_comm = true;
        }
        break;
      }
      case 6:
        ev(cpu, pid, EventType::kSchedWakeup, pid);
        break;
      case 7:
        mark(cpu, pid, trace::AppMark::kIteration);
        break;
    }
  }

  void inject(AnomalyKind kind) {
    const CpuId cpu = any_cpu();
    const Pid pid = any_rank();
    switch (kind) {
      case AnomalyKind::kStrayExit: {
        while (!stacks_[cpu].empty()) close_top(cpu);
        const Entry& e = kEntries[rng_.bounded(std::size(kEntries))];
        ev(cpu, pid, trace::exit_of(e.type), e.arg);
        break;
      }
      case AnomalyKind::kMismatchedExit: {
        const auto& [entry, exit] = kMismatched[rng_.bounded(std::size(kMismatched))];
        open(cpu, pid, entry);
        stacks_[cpu].pop_back();  // the bad exit consumes the frame
        ev(cpu, pid, exit.type, exit.arg);
        break;
      }
      case AnomalyKind::kUnmappedEntry: {
        const Entry& e = kUnmapped[rng_.bounded(std::size(kUnmapped))];
        ev(cpu, pid, e.type, e.arg);
        break;
      }
      case AnomalyKind::kUnclosedAtEnd:
        open(cpu, pid, kEntries[rng_.bounded(std::size(kEntries))]);
        pinned_[cpu] = stacks_[cpu].size();
        break;
      case AnomalyKind::kNestedPreemption:
        if (!preempted_[pid]) switch_out(cpu, pid, true);
        preempted_[pid] = true;
        switch_out(any_cpu(), pid, true);
        break;
      case AnomalyKind::kReenteredBarrier:
        if (!in_comm_[pid]) mark(cpu, pid, trace::AppMark::kBarrierEnter);
        in_comm_[pid] = true;
        mark(any_cpu(), pid, trace::AppMark::kBarrierEnter);
        break;
    }
  }

  Xoshiro256 rng_;
  std::optional<AnomalyKind> inject_;
  std::uint16_t n_cpus_;
  TraceBuilder b_;
  TimeNs t_ = 1'000;
  std::vector<std::vector<Entry>> stacks_;
  std::vector<std::size_t> pinned_;  ///< frames at the bottom never closed
  std::map<Pid, bool> preempted_;
  std::map<Pid, bool> in_comm_;
};

std::optional<IntervalAnomaly> offline_anomaly(const trace::TraceModel& model, std::size_t jobs) {
  AnalysisOptions opts;
  opts.jobs = jobs;
  try {
    const NoiseAnalysis analysis(model, opts);
    return std::nullopt;
  } catch (const AnalysisError& e) {
    return e.anomaly();
  }
}

std::string temp_path(const char* tag, std::uint64_t seed) {
  return ::testing::TempDir() + "osn_streamfuzz_" + tag + "_" + std::to_string(::getpid()) +
         "_" + std::to_string(seed) + ".osnt";
}

/// Writes the stream as v3 with an IndexAggregator; returns the
/// aggregator's anomaly after the writer sealed the file.
std::optional<IntervalAnomaly> write_with_aggregator(const trace::TraceModel& model,
                                                     const std::string& path,
                                                     std::size_t chunk_records) {
  trace::OsntStreamWriter writer(path, chunk_records);
  auto aggregator = std::make_unique<IndexAggregator>();
  const IndexAggregator* agg = aggregator.get();
  writer.set_aggregator(std::move(aggregator));
  for (const auto& rec : model.merged()) writer.append(rec);
  EXPECT_TRUE(writer.finish(model.meta(), model.tasks()));
  return agg->anomaly();
}

/// Exit status of `osn-analyze <cmd> <path>`; -1 if it did not exit
/// normally (a crash is never an acceptable answer).
int cli(const std::string& cmd, const std::string& path) {
  const std::string line =
      std::string("\"") + OSN_ANALYZE_BIN + "\" " + cmd + " \"" + path + "\" > /dev/null 2>&1";
  const int status = std::system(line.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class RecordStreamFuzzHostile : public ::testing::TestWithParam<AnomalyKind> {};

TEST_P(RecordStreamFuzzHostile, EveryDriverReportsTheSameFirstAnomaly) {
  const AnomalyKind kind = GetParam();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const trace::TraceModel model =
        StreamGenerator(seed * 1'000 + static_cast<std::uint64_t>(kind), kind).build();

    // Offline: the same AnalysisError whatever the pool.
    const std::optional<IntervalAnomaly> expected = offline_anomaly(model, 1);
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(expected->kind, kind);
    for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}})
      EXPECT_EQ(offline_anomaly(model, jobs), expected) << "jobs " << jobs;

    // Write time: the aggregator vetoes with that anomaly.
    const std::string path = temp_path("hostile", seed);
    EXPECT_EQ(write_with_aggregator(model, path, 1 + seed * 13 % 64), expected);
    {
      trace::OsntReader reader(path);
      EXPECT_FALSE(reader.index_summary().has_value());
      EXPECT_TRUE(reader.verify().intact());  // structurally the file is fine
    }

    // Live: the kernel half sees the kernel-side kinds, and only those.
    trace::ModelEventSource source(model);
    StreamingStats live;
    live.consume(source);
    EXPECT_EQ(live.anomaly(), kernel_side(kind) ? expected : std::nullopt);

    // CLI: verify predicts stats, and neither crashes.
    EXPECT_EQ(cli("verify", path), 1);
    EXPECT_EQ(cli("stats", path), 1);
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, RecordStreamFuzzHostile, ::testing::ValuesIn(kAllKinds),
                         [](const ::testing::TestParamInfo<AnomalyKind>& param) {
                           std::string name(anomaly_name(param.param));
                           for (char& c : name)
                             if (c == ' ' || c == '-') c = '_';
                           return name;
                         });

/// FNV-1a, to pin a long run of output bytes to one constant.
std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const char c : bytes) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h;
}

std::string dump_intervals(const IntervalSet& set) {
  std::string out;
  const auto row = [&out](const Interval& iv) {
    out += std::to_string(static_cast<int>(iv.kind)) + ' ' + std::to_string(iv.detail) + ' ' +
           std::to_string(iv.cpu) + ' ' + std::to_string(iv.task) + ' ' +
           std::to_string(iv.start) + ' ' + std::to_string(iv.end) + ' ' +
           std::to_string(iv.self) + ' ' + std::to_string(iv.depth) + '\n';
  };
  for (const Interval& iv : set.kernel) row(iv);
  for (const Interval& iv : set.preemption) row(iv);
  for (const CommWindow& w : set.comm)
    out += std::to_string(w.task) + ' ' + std::to_string(w.start) + ' ' +
           std::to_string(w.end) + '\n';
  return out;
}

TEST(RecordStreamFuzz, WellFormedStreamsKeepTheirExactOutput) {
  std::uint64_t digest = 14695981039346656037ULL;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const trace::TraceModel model = StreamGenerator(seed, std::nullopt).build();
    AnalysisOptions serial;
    const NoiseAnalysis reference(model, serial);
    const std::string summary = exporter::summary_json(reference);
    digest = fnv1a(fnv1a(digest, dump_intervals(reference.intervals())), summary);
    for (const std::size_t jobs : {std::size_t{2}, std::size_t{4}}) {
      AnalysisOptions opts;
      opts.jobs = jobs;
      EXPECT_EQ(exporter::summary_json(NoiseAnalysis(model, opts)), summary) << "jobs " << jobs;
    }

    const std::string path = temp_path("clean", seed);
    EXPECT_EQ(write_with_aggregator(model, path, 1 + seed * 7 % 64), std::nullopt);
    {
      trace::OsntReader reader(path);
      const auto fast = exporter::index_summary_json(reader);
      ASSERT_TRUE(fast.has_value());
      EXPECT_EQ(*fast, summary);
    }
    trace::ModelEventSource source(model);
    StreamingStats live;
    live.consume(source);
    EXPECT_EQ(live.anomaly(), std::nullopt);
    for (int k = 0; k < static_cast<int>(ActivityKind::kPreemption); ++k) {
      const auto kind = static_cast<ActivityKind>(k);
      EXPECT_EQ(live.activity_stats(kind, model.duration(), model.cpu_count()).count,
                reference.activity_stats(kind).count);
    }
    if (seed % 4 == 0) {
      EXPECT_EQ(cli("verify", path), 0);
      EXPECT_EQ(cli("stats", path), 0);
    }
    std::remove(path.c_str());
  }
  // Interval lists and summary documents of all 24 streams, as produced by
  // the analyzer before the pairing engine was unified.
  EXPECT_EQ(digest, 0x92d33aad9374b58eULL);
}

}  // namespace
}  // namespace osn::noise
