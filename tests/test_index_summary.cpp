// Index-resident pre-aggregates: the write-time IndexAggregator plus the
// exporter's index-only summary must reproduce the record-decode summary
// byte for byte — on crafted traces, on randomized ones, at any chunk size —
// and must refuse (fall back, never fabricate) whenever the file cannot
// support the fast path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "export/index_summary.hpp"
#include "export/json.hpp"
#include "noise/analysis.hpp"
#include "noise/index_aggregate.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn {
namespace {

using osn::testing::TraceBuilder;
using trace::EventType;

std::string temp_path(const char* tag) {
  static int counter = 0;
  return ::testing::TempDir() + "osn_idxsum_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++) + ".osnt";
}

std::string write_v3(const trace::TraceModel& model, bool with_aggregator,
                     std::size_t chunk_records, const char* tag) {
  const std::string path = temp_path(tag);
  trace::OsntStreamWriter writer(path, chunk_records);
  EXPECT_TRUE(writer.ok());
  if (with_aggregator)
    writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
  for (const auto& rec : model.merged()) writer.append(rec);
  EXPECT_TRUE(writer.finish(model.meta(), model.tasks()));
  return path;
}

/// The slow path the fast path is measured against: full record decode,
/// default-options analysis, JSON render.
std::string slow_summary(trace::OsntReader& reader) {
  const trace::TraceModel model = reader.read_all();
  const noise::NoiseAnalysis analysis(model);
  return exporter::summary_json(analysis);
}

/// A deterministic trace exercising every aggregate dimension: nested kernel
/// intervals, preemption (closed and dangling), communication windows
/// (closed and dangling), activity from app and non-app tasks.
trace::TraceModel crafted_model() {
  TraceBuilder b(2);
  b.task(1, "rank0", true).task(2, "rank1", true).task(9, "kswapd", false, true);

  // Nested kernel activity on cpu 0 charged to rank0: timer irq inside a
  // syscall (self-time resolution must survive the chunk boundary).
  b.ev(0, 1'000, 1, EventType::kSyscallEntry, 0);
  b.ev(0, 1'200, 1, EventType::kIrqEntry, 0);
  b.ev(0, 1'500, 1, EventType::kIrqExit, 0);
  b.ev(0, 2'000, 1, EventType::kSyscallExit, 0);

  // A communication window for rank1 on cpu 1; the page fault inside it is
  // excluded from noise, the one after it counts.
  b.ev(1, 2'500, 2, EventType::kAppMark,
       static_cast<std::uint64_t>(trace::AppMark::kBarrierEnter));
  b.pair(1, 3'000, 3'400, 2, EventType::kPageFaultEntry, 0);
  b.ev(1, 4'000, 2, EventType::kAppMark,
       static_cast<std::uint64_t>(trace::AppMark::kBarrierExit));
  b.pair(1, 5'000, 5'600, 2, EventType::kPageFaultEntry, 1);

  // rank0 preempted by the daemon (runnable -> counts), then resumed.
  b.ev(0, 6'000, 1, EventType::kSchedSwitch,
       trace::pack_switch({1, 9, /*prev_runnable=*/true}));
  b.pair(0, 6'200, 6'500, 9, EventType::kScheduleEntry, 0);
  b.ev(0, 7'000, 9, EventType::kSchedSwitch,
       trace::pack_switch({9, 1, /*prev_runnable=*/false}));

  // Kernel work charged to the non-app daemon: feeds activity stats but
  // never the noise list.
  b.pair(1, 8'000, 8'300, 9, EventType::kSoftirqEntry,
         static_cast<std::uint64_t>(trace::SoftirqNr::kRcu));

  // Dangling at end-of-trace: rank1 preempted with no closing switch, rank0
  // inside a communication window.
  b.ev(1, 9'000, 2, EventType::kSchedSwitch,
       trace::pack_switch({2, 9, /*prev_runnable=*/true}));
  b.ev(0, 9'500, 1, EventType::kAppMark,
       static_cast<std::uint64_t>(trace::AppMark::kBarrierEnter));
  return b.build(10'000);
}

TEST(IndexSummary, CraftedTraceByteIdentical) {
  const trace::TraceModel model = crafted_model();
  // Chunk sizes from "one chunk" down to "one record per chunk": intervals
  // must attribute correctly however the stream is cut.
  for (const std::size_t chunk_records : {std::size_t{10000}, std::size_t{8},
                                          std::size_t{3}, std::size_t{1}}) {
    const std::string path = write_v3(model, true, chunk_records, "crafted");
    trace::OsntReader reader(path);
    ASSERT_TRUE(reader.index_summary().has_value()) << chunk_records;
    const auto fast = exporter::index_summary_json(reader);
    ASSERT_TRUE(fast.has_value()) << chunk_records;
    EXPECT_EQ(*fast, slow_summary(reader)) << "chunk_records=" << chunk_records;
    std::remove(path.c_str());
  }
}

/// Random but well-formed traces: the state machines in the aggregator and
/// in build_intervals must stay in lockstep on any legal stream.
trace::TraceModel random_model(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TraceBuilder b(2);
  b.task(1, "rank0", true).task(2, "rank1", true).task(9, "daemon", false, true);

  struct Task {
    bool preempted = false;
    bool in_comm = false;
  };
  std::map<Pid, Task> tasks{{1, {}}, {2, {}}, {9, {}}};

  const std::pair<EventType, std::uint64_t> kinds[] = {
      {EventType::kIrqEntry, 0},      {EventType::kIrqEntry, 1},
      {EventType::kIrqEntry, 2},      {EventType::kSoftirqEntry, 1},
      {EventType::kSoftirqEntry, 7},  {EventType::kSoftirqEntry, 9},
      {EventType::kSoftirqEntry, 3},  {EventType::kTaskletEntry, 0},
      {EventType::kPageFaultEntry, 2}, {EventType::kSyscallEntry, 5},
      {EventType::kScheduleEntry, 0},
  };
  const Pid pids[] = {1, 2, 9};

  TimeNs t = 1'000;
  const auto step = [&] { return t += 1 + rng() % 400; };
  for (int i = 0; i < 600; ++i) {
    const auto cpu = static_cast<CpuId>(rng() % 2);
    const Pid pid = pids[rng() % 3];
    switch (rng() % 5) {
      case 0:
      case 1: {  // kernel interval, sometimes with a nested child
        const auto& [entry, arg] = kinds[rng() % std::size(kinds)];
        b.ev(cpu, step(), pid, entry, arg);
        if (rng() % 3 == 0) {
          const auto& [nested, narg] = kinds[rng() % std::size(kinds)];
          const TimeNs n0 = step();  // sequenced: argument order is unspecified
          const TimeNs n1 = step();
          b.pair(cpu, n0, n1, pid, nested, narg);
        }
        b.ev(cpu, step(), pid, trace::exit_of(entry), arg);
        break;
      }
      case 2: {  // preemption open/close for an app task
        Task& st = tasks[pid];
        if (pid != 9 && !st.preempted) {
          b.ev(cpu, step(), pid, EventType::kSchedSwitch,
               trace::pack_switch({pid, 9, /*prev_runnable=*/true}));
          st.preempted = true;
        } else if (pid != 9 && st.preempted && rng() % 4 != 0) {
          // leave ~1/4 dangling until end-of-trace
          b.ev(cpu, step(), 9, EventType::kSchedSwitch,
               trace::pack_switch({9, pid, /*prev_runnable=*/false}));
          st.preempted = false;
        }
        break;
      }
      case 3: {  // communication window toggle
        Task& st = tasks[pid];
        const auto mark = st.in_comm ? trace::AppMark::kBarrierExit
                                     : trace::AppMark::kBarrierEnter;
        if (st.in_comm || rng() % 3 != 0) {  // leave some windows open
          b.ev(cpu, step(), pid, EventType::kAppMark,
               static_cast<std::uint64_t>(mark));
          st.in_comm = !st.in_comm;
        }
        break;
      }
      case 4:  // point events the analyzer ignores
        b.ev(cpu, step(), pid, EventType::kSchedWakeup, pid);
        break;
    }
  }
  return b.build(t + 1'000);
}

TEST(IndexSummary, RandomizedTracesByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const trace::TraceModel model = random_model(seed);
    const std::size_t chunk_records = 1 + seed * 37 % 200;
    const std::string path = write_v3(model, true, chunk_records, "random");
    trace::OsntReader reader(path);
    ASSERT_TRUE(reader.index_summary().has_value()) << "seed " << seed;
    const auto fast = exporter::index_summary_json(reader);
    ASSERT_TRUE(fast.has_value()) << "seed " << seed;
    EXPECT_EQ(*fast, slow_summary(reader)) << "seed " << seed;
    std::remove(path.c_str());
  }
}

TEST(IndexSummary, FileWithoutAggregatorFallsBack) {
  const std::string path = write_v3(crafted_model(), false, 64, "noagg");
  trace::OsntReader reader(path);
  EXPECT_FALSE(reader.index_summary().has_value());
  EXPECT_FALSE(exporter::index_summary_json(reader).has_value());
  EXPECT_TRUE(reader.verify().clean());
  std::remove(path.c_str());
}

TEST(IndexSummary, LegacyFormatFallsBack) {
  const std::string path = temp_path("legacy");
  ASSERT_TRUE(trace::write_trace_file(crafted_model(), path));
  trace::OsntReader reader(path);
  ASSERT_NE(reader.version(), 3u);
  EXPECT_FALSE(reader.index_summary().has_value());
  EXPECT_FALSE(exporter::index_summary_json(reader).has_value());
  std::remove(path.c_str());
}

TEST(IndexSummary, MalformedStreamVetoesAggregates) {
  // Double BarrierEnter is a re-entered-barrier anomaly: the aggregator must
  // veto the block (no aggregates written), and record decode refuses the
  // same stream.
  TraceBuilder b(1);
  b.task(1, "rank0", true);
  b.ev(0, 1'000, 1, EventType::kAppMark,
       static_cast<std::uint64_t>(trace::AppMark::kBarrierEnter));
  b.pair(0, 1'500, 1'800, 1, EventType::kIrqEntry, 0);
  b.ev(0, 2'000, 1, EventType::kAppMark,
       static_cast<std::uint64_t>(trace::AppMark::kBarrierEnter));
  b.ev(0, 3'000, 1, EventType::kAppMark,
       static_cast<std::uint64_t>(trace::AppMark::kBarrierExit));
  const trace::TraceModel model = b.build(4'000);

  const std::string path = write_v3(model, true, 64, "veto");
  trace::OsntReader reader(path);
  EXPECT_FALSE(reader.index_summary().has_value());
  EXPECT_TRUE(reader.verify().clean());  // the file itself is fine
  std::remove(path.c_str());
}

TEST(IndexSummary, DamagedAggregateBlockFallsBackWithCorrectNumbers) {
  const trace::TraceModel model = crafted_model();
  const std::string clean_path = write_v3(model, true, 8, "damage_ref");
  std::string expected;
  {
    trace::OsntReader reader(clean_path);
    expected = slow_summary(reader);
  }

  // Corrupt one byte shortly after the aggregate block magic ("OSNA").
  std::FILE* f = std::fopen(clean_path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::vector<unsigned char> bytes(static_cast<std::size_t>(size));
  std::fseek(f, 0, SEEK_SET);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  long magic_at = -1;
  for (std::size_t i = 0; i + 4 <= bytes.size(); ++i) {
    if (bytes[i] == 'O' && bytes[i + 1] == 'S' && bytes[i + 2] == 'N' &&
        bytes[i + 3] == 'A') {
      magic_at = static_cast<long>(i);
      break;
    }
  }
  ASSERT_GE(magic_at, 0) << "aggregate block magic not found";
  std::fseek(f, magic_at + 6, SEEK_SET);
  const unsigned char flipped = bytes[static_cast<std::size_t>(magic_at) + 6] ^ 0xff;
  ASSERT_EQ(std::fwrite(&flipped, 1, 1, f), 1u);
  std::fclose(f);

  trace::OsntReader reader(clean_path);
  // The damaged block is dropped and reported, never served.
  EXPECT_FALSE(reader.index_summary().has_value());
  EXPECT_FALSE(reader.index_recovered());
  EXPECT_FALSE(exporter::index_summary_json(reader).has_value());
  const trace::VerifyReport report = reader.verify();
  EXPECT_FALSE(report.intact());
  // The record data is untouched: the slow path still gives exact numbers.
  EXPECT_EQ(slow_summary(reader), expected);
  std::remove(clean_path.c_str());
}

TEST(IndexSummary, TruncatedFileFallsBack) {
  const trace::TraceModel model = crafted_model();
  const std::string path = temp_path("trunc");
  {
    trace::OsntStreamWriter writer(path, /*chunk_records=*/4);
    writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
    for (const auto& rec : model.merged()) writer.append(rec);
    // No finish(): the destructor writes the truncation sentinel.
  }
  trace::OsntReader reader(path);
  EXPECT_TRUE(reader.truncated());
  EXPECT_FALSE(reader.index_summary().has_value());
  EXPECT_FALSE(exporter::index_summary_json(reader).has_value());
  std::remove(path.c_str());
}

// The explicit-block overload (used by the rolling segment store to render
// many segments' folded aggregates) must be the same computation as the
// reader overload: handing it the reader's own block, meta and tasks yields
// byte-identical output.
TEST(IndexSummary, ExplicitBlockOverloadMatchesReaderOverload) {
  const trace::TraceModel model = crafted_model();
  const std::string path = write_v3(model, true, 8, "overload");
  trace::OsntReader reader(path);
  const auto via_reader = exporter::index_summary_data(reader);
  ASSERT_TRUE(via_reader.has_value());
  ASSERT_TRUE(reader.index_summary().has_value());
  const auto via_block = exporter::index_summary_data(*reader.index_summary(),
                                                      reader.meta(), reader.tasks());
  ASSERT_TRUE(via_block.has_value());
  EXPECT_EQ(exporter::render_summary(*via_block),
            exporter::render_summary(*via_reader));

  // And the refusal behavior carries over: an out-of-range category id in
  // the block makes the explicit overload decline too.
  trace::IndexSummary bad = *reader.index_summary();
  bad.tail.noise.push_back({1, 999, 1, 100});
  EXPECT_FALSE(
      exporter::index_summary_data(bad, reader.meta(), reader.tasks()).has_value());
  std::remove(path.c_str());
}

TEST(IndexSummary, DataMatchesAnalysisFieldByField) {
  // Beyond the rendered bytes: the extracted SummaryData must agree with the
  // analysis-derived one structurally (guards against two bugs cancelling
  // out in the renderer).
  const trace::TraceModel model = crafted_model();
  const std::string path = write_v3(model, true, 8, "fields");
  trace::OsntReader reader(path);
  const auto fast = exporter::index_summary_data(reader);
  ASSERT_TRUE(fast.has_value());

  const trace::TraceModel decoded = reader.read_all();
  const noise::NoiseAnalysis analysis(decoded);
  const exporter::SummaryData slow = exporter::summary_data(analysis);

  EXPECT_EQ(fast->workload, slow.workload);
  EXPECT_EQ(fast->duration_ns, slow.duration_ns);
  EXPECT_EQ(fast->cpus, slow.cpus);
  EXPECT_EQ(fast->events, slow.events);
  EXPECT_EQ(fast->noise_intervals, slow.noise_intervals);
  for (std::size_t k = 0; k < slow.activities.size(); ++k) {
    EXPECT_EQ(fast->activities[k].count, slow.activities[k].count) << k;
    EXPECT_EQ(fast->activities[k].max_ns, slow.activities[k].max_ns) << k;
    EXPECT_EQ(fast->activities[k].min_ns, slow.activities[k].min_ns) << k;
    EXPECT_DOUBLE_EQ(fast->activities[k].avg_ns, slow.activities[k].avg_ns) << k;
  }
  ASSERT_EQ(fast->ranks.size(), slow.ranks.size());
  for (std::size_t i = 0; i < slow.ranks.size(); ++i) {
    EXPECT_EQ(fast->ranks[i].pid, slow.ranks[i].pid);
    EXPECT_EQ(fast->ranks[i].name, slow.ranks[i].name);
    EXPECT_EQ(fast->ranks[i].total_noise_ns, slow.ranks[i].total_noise_ns);
    EXPECT_EQ(fast->ranks[i].by_category, slow.ranks[i].by_category);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace osn
