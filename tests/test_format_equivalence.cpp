// Cross-format equivalence (the upgrade contract): the golden v1 and v2
// files (tests/data/, frozen from the removed legacy writers) hold the
// synthetic 8-CPU trace below. Decoded directly by deserialize_trace, and
// converted by `osn-analyze upgrade` then read by the v3 reader, each must
// give the identical TraceModel and *byte-identical* analysis artifacts —
// intervals CSV, summary JSON, Paraver export — at any worker count. The
// served path must refuse the legacy files with the upgrade hint.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "export/csv.hpp"
#include "export/json.hpp"
#include "export/paraver.hpp"
#include "noise/analysis.hpp"
#include "golden.hpp"
#include "trace/event_source.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::trace {
namespace {

using osn::testing::golden_bytes;
using osn::testing::golden_path;
using osn::testing::TraceBuilder;

/// A synthetic 8-CPU trace with app ranks, a kernel daemon, kernel activity
/// of several kinds, barrier windows and preemption-ish scheduling churn.
/// The golden files were generated from exactly this trace.
TraceModel synthetic_trace() {
  TraceBuilder b(8);
  for (Pid r = 1; r <= 8; ++r) b.task(r, "rank" + std::to_string(r - 1), true);
  b.task(20, "rpciod", false, true);
  for (CpuId cpu = 0; cpu < 8; ++cpu) {
    const Pid rank = static_cast<Pid>(cpu + 1);
    TimeNs t = 1'000 + static_cast<TimeNs>(cpu) * 37;
    b.ev(cpu, t, rank, EventType::kAppMark,
         static_cast<std::uint64_t>(AppMark::kComputeBegin));
    for (std::uint64_t i = 0; i < 60; ++i) {
      b.pair(cpu, t + 200, t + 200 + 2'000 + 70 * (i % 9), rank, EventType::kIrqEntry, 0);
      if (i % 3 == 0)
        b.pair(cpu, t + 3'000, t + 3'600, rank, EventType::kSoftirqEntry,
               static_cast<std::uint64_t>(SoftirqNr::kTimer));
      if (i % 5 == 0)
        b.pair(cpu, t + 4'000, t + 6'500, rank, EventType::kPageFaultEntry,
               static_cast<std::uint64_t>(PageFaultKind::kMinorAnon));
      if (i % 11 == 0) {
        b.ev(cpu, t + 7'000, rank, EventType::kAppMark,
             static_cast<std::uint64_t>(AppMark::kBarrierEnter));
        b.ev(cpu, t + 8'500, rank, EventType::kAppMark,
             static_cast<std::uint64_t>(AppMark::kBarrierExit));
      }
      t += 10'000 + 13 * (i % 7) + cpu;  // cpu is unsigned; keeps streams distinct
    }
    b.ev(cpu, t, rank, EventType::kAppMark,
         static_cast<std::uint64_t>(AppMark::kComputeEnd));
  }
  return b.build(650'000);
}

struct Artifacts {
  std::string csv;
  std::string json;
  exporter::ParaverFiles paraver;
};

Artifacts artifacts_of(const noise::NoiseAnalysis& analysis) {
  return {exporter::intervals_csv(analysis), exporter::summary_json(analysis),
          exporter::export_paraver(analysis)};
}

/// Runs `osn-analyze <args>` and returns its exit status (-1 when it did not
/// exit normally — a crash is never an acceptable answer). Its stderr lands
/// in `err`.
int cli(const std::string& args, std::string* err = nullptr) {
  // Per process: ctest runs each test as its own process, in parallel.
  const std::string err_path =
      ::testing::TempDir() + "/fmt_cli_stderr_" + std::to_string(::getpid()) + ".txt";
  const std::string line = std::string("\"") + OSN_ANALYZE_BIN + "\" " + args +
                           " > /dev/null 2> \"" + err_path + "\"";
  const int status = std::system(line.c_str());
  if (err != nullptr) {
    const auto bytes = osn::testing::file_bytes(err_path);
    err->assign(bytes.begin(), bytes.end());
  }
  std::remove(err_path.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(FormatEquivalence, V1V2V3ProduceByteIdenticalAnalysis) {
  const TraceModel original = synthetic_trace();
  ASSERT_EQ(original.validate(), "");

  // Reference: analysis straight off the in-memory model, serial.
  noise::AnalysisOptions serial;
  serial.jobs = 1;
  const noise::NoiseAnalysis reference(original, serial);
  const Artifacts expected = artifacts_of(reference);
  EXPECT_FALSE(expected.csv.empty());
  EXPECT_FALSE(expected.json.empty());
  EXPECT_FALSE(expected.paraver.prv.empty());

  const auto expect_artifacts = [&](EventSource& source, const std::string& what) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      noise::AnalysisOptions opts;
      opts.jobs = jobs;
      const noise::NoiseAnalysis analysis(source, opts);
      const Artifacts got = artifacts_of(analysis);
      EXPECT_EQ(got.csv, expected.csv) << what << " jobs=" << jobs;
      EXPECT_EQ(got.json, expected.json) << what << " jobs=" << jobs;
      EXPECT_EQ(got.paraver.prv, expected.paraver.prv) << what << " jobs=" << jobs;
      EXPECT_EQ(got.paraver.pcf, expected.paraver.pcf) << what << " jobs=" << jobs;
      EXPECT_EQ(got.paraver.row, expected.paraver.row) << what << " jobs=" << jobs;
    }
  };

  for (const std::string name : {"synthetic_v1.osnt", "synthetic_v2.osnt"}) {
    // The legacy decoder, straight off the golden bytes.
    const TraceModel decoded = deserialize_trace(golden_bytes(name));
    EXPECT_EQ(decoded, original) << name;
    ModelEventSource direct(decoded);
    expect_artifacts(direct, name + " decoded");

    // The one conversion path, then the v3 reader.
    const std::string upgraded = ::testing::TempDir() + "/fmt_upgraded_" + name;
    ASSERT_EQ(cli("upgrade \"" + golden_path(name) + "\" \"" + upgraded + "\""), 0) << name;
    FileEventSource file(upgraded);
    EXPECT_TRUE(file.reader().index_summary().has_value()) << name;  // fast path on
    EXPECT_EQ(file.to_model(), original) << name;
    expect_artifacts(file, name + " upgraded");
    std::remove(upgraded.c_str());
  }
}

// Without `upgrade`, every CLI command that opens a trace refuses a legacy
// file with the reader's hint that names the conversion, and exits 1.
TEST(FormatEquivalence, LegacyFilesPointAtUpgrade) {
  for (const std::string version : {"1", "2"}) {
    const std::string path = golden_path("synthetic_v" + version + ".osnt");
    const std::string hint =
        "OSNT v" + version + " file: convert it with `osn-analyze upgrade IN OUT`";
    for (const std::string cmd : {"stats", "summary", "info", "verify"}) {
      std::string err;
      EXPECT_EQ(cli(cmd + " \"" + path + "\"", &err), 1) << cmd << " v" << version;
      EXPECT_NE(err.find(hint), std::string::npos) << cmd << " v" << version << ": " << err;
    }
  }
}

// `upgrade` shares `run`'s anomaly policy: records that cannot be paired
// still land in the v3 file (verify and analysis then report them), but the
// command names the anomaly and exits 1.
TEST(FormatEquivalence, UpgradeOfUnpairableTraceWritesFileAndExitsOne) {
  TraceBuilder b(1);
  b.task(1, "rank0", true);
  b.pair(0, 100, 200, 1, EventType::kPageFaultEntry);
  b.ev(0, 300, 1, EventType::kPageFaultExit);  // stray exit
  const TraceModel bad = b.build();
  const std::string in = ::testing::TempDir() + "/fmt_unpairable_in.osnt";
  const std::string out = ::testing::TempDir() + "/fmt_unpairable_out.osnt";
  ASSERT_TRUE(write_trace_file(bad, in));

  std::string err;
  EXPECT_EQ(cli("upgrade \"" + in + "\" \"" + out + "\"", &err), 1);
  EXPECT_NE(err.find("stray exit on cpu 0 at 300 ns"), std::string::npos) << err;
  OsntReader upgraded(out);
  EXPECT_EQ(upgraded.read_all(), bad);
  EXPECT_FALSE(upgraded.index_summary().has_value());  // the aggregator vetoed
  std::remove(in.c_str());
  std::remove(out.c_str());
}

}  // namespace
}  // namespace osn::trace
