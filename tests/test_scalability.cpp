// Noise-to-scale extrapolation: profile extraction and order-statistics
// amplification properties.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "noise/scalability.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::noise {
namespace {

using osn::testing::TraceBuilder;
using trace::EventType;

trace::TraceModel noisy_model(std::size_t events, DurNs each, TimeNs duration) {
  TraceBuilder b(1);
  b.task(1, "app", true);
  const TimeNs spacing = duration / (events + 1);
  for (std::size_t i = 0; i < events; ++i) {
    const TimeNs t0 = spacing * (i + 1);
    b.pair(0, t0, t0 + each, 1, EventType::kIrqEntry, 0);
  }
  return b.build(duration);
}

TEST(NoiseProfile, ExtractsRateAndDurations) {
  // 100 events of 2 us over 1 s, one rank.
  const auto model = noisy_model(100, 2'000, kNsPerSec);
  NoiseAnalysis analysis(model);
  const NoiseProfile p = NoiseProfile::from_analysis(analysis);
  EXPECT_EQ(p.durations.size(), 100u);
  EXPECT_NEAR(p.events_per_sec, 100.0, 1e-6);
  EXPECT_NEAR(p.mean_duration_ns, 2'000.0, 1e-6);
  EXPECT_NEAR(p.noise_fraction, 100.0 * 2'000.0 / 1e9, 1e-9);
}

/// Runs `osn-analyze scalability PATH FLAGS`; -1 when it did not exit
/// normally (an abort is never an acceptable answer).
int scalability_cli(const std::string& path, const std::string& flags) {
  const std::string line = std::string("\"") + OSN_ANALYZE_BIN + "\" scalability \"" + path +
                           "\" --iterations 20 " + flags + " > /dev/null 2>&1";
  const int status = std::system(line.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// A trace without application ranks has no per-rank profile. That is input
// (any kernel-only trace), so it is a typed error and `osn-analyze
// scalability` exits 1 instead of aborting.
TEST(NoiseProfile, TraceWithoutRanksIsAProfileError) {
  TraceBuilder b(1);
  b.task(9, "rpciod", false, true);
  b.pair(0, 1'000, 3'000, 9, EventType::kIrqEntry, 0);
  const auto model = b.build(kNsPerSec);
  NoiseAnalysis analysis(model);
  EXPECT_THROW(NoiseProfile::from_analysis(analysis), ProfileError);

  const std::string path = ::testing::TempDir() + "/osn_scal_noranks.osnt";
  ASSERT_TRUE(trace::write_trace_file(model, path));
  EXPECT_EQ(scalability_cli(path, ""), 1);
  std::remove(path.c_str());
}

// Zero extrapolation parameters are input too: usage error, not an abort.
TEST(NoiseProfile, ScalabilityCliRejectsZeroParameters) {
  const std::string path = ::testing::TempDir() + "/osn_scal_zero.osnt";
  ASSERT_TRUE(trace::write_trace_file(noisy_model(10, 2'000, kNsPerSec), path));
  EXPECT_EQ(scalability_cli(path, ""), 0);
  EXPECT_EQ(scalability_cli(path, "--ranks 8,0"), 2);
  EXPECT_EQ(scalability_cli(path, "--granularity-us 0"), 2);
  EXPECT_EQ(scalability_cli(path, "--iterations 0"), 2);
  std::remove(path.c_str());
}

TEST(NoiseProfile, EmptyTraceGivesZeroProfile) {
  const auto model = TraceBuilder(1).task(1, "app", true).build(kNsPerSec);
  NoiseAnalysis analysis(model);
  const NoiseProfile p = NoiseProfile::from_analysis(analysis);
  EXPECT_TRUE(p.durations.empty());
  EXPECT_EQ(p.events_per_sec, 0.0);
}

TEST(Scalability, NoNoiseMeansNoSlowdown) {
  NoiseProfile p;  // empty
  const auto points = extrapolate_scalability(p, {1, 1024});
  for (const auto& pt : points) {
    EXPECT_DOUBLE_EQ(pt.slowdown, 1.0);
    EXPECT_DOUBLE_EQ(pt.efficiency, 1.0);
  }
}

TEST(Scalability, SlowdownMonotonicInRanks) {
  const auto model = noisy_model(2000, 5'000, kNsPerSec);
  NoiseAnalysis analysis(model);
  const NoiseProfile p = NoiseProfile::from_analysis(analysis);
  ScalabilityParams params;
  params.iterations = 150;
  const auto points = extrapolate_scalability(p, {1, 8, 64, 512}, params);
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GE(points[i].slowdown, points[i - 1].slowdown);
  EXPECT_GT(points.back().slowdown, points.front().slowdown);
}

TEST(Scalability, HeavyTailAmplifiesFasterThanUniformNoise) {
  // Same mean noise, different shape: 1000 x 10 us vs 10 x 1 ms.
  TraceBuilder uniform(1), tailed(1);
  uniform.task(1, "app", true);
  tailed.task(1, "app", true);
  for (std::size_t i = 0; i < 1000; ++i) {
    const TimeNs t0 = 900'000 * (i + 1);
    uniform.pair(0, t0, t0 + 10'000, 1, EventType::kIrqEntry, 0);
  }
  for (std::size_t i = 0; i < 10; ++i) {
    const TimeNs t0 = 90'000'000 * (i + 1);
    tailed.pair(0, t0, t0 + 1'000'000, 1, EventType::kPageFaultEntry, 0);
  }
  const auto uniform_model = uniform.build(kNsPerSec);
  const auto tailed_model = tailed.build(kNsPerSec);
  NoiseAnalysis ua(uniform_model), ta(tailed_model);
  ScalabilityParams params;
  params.iterations = 300;
  const auto up = extrapolate_scalability(NoiseProfile::from_analysis(ua), {4096}, params);
  const auto tp = extrapolate_scalability(NoiseProfile::from_analysis(ta), {4096}, params);
  // At scale, somebody always absorbs a 1 ms event per window in the tailed
  // case; uniform noise concentrates near its mean.
  EXPECT_GT(tp[0].slowdown, up[0].slowdown);
}

TEST(Scalability, CoarserGranularityReducesRelativeLoss) {
  const auto model = noisy_model(2000, 5'000, kNsPerSec);
  NoiseAnalysis analysis(model);
  const NoiseProfile p = NoiseProfile::from_analysis(analysis);
  ScalabilityParams fine, coarse;
  fine.granularity = 1 * kNsPerMs;
  fine.iterations = 150;
  coarse.granularity = 100 * kNsPerMs;
  coarse.iterations = 50;
  const double fine_loss =
      extrapolate_scalability(p, {1024}, fine)[0].slowdown - 1.0;
  const double coarse_loss =
      extrapolate_scalability(p, {1024}, coarse)[0].slowdown - 1.0;
  EXPECT_GT(fine_loss, coarse_loss);
}

TEST(Scalability, DeterministicGivenSeed) {
  const auto model = noisy_model(500, 3'000, kNsPerSec);
  NoiseAnalysis analysis(model);
  const NoiseProfile p = NoiseProfile::from_analysis(analysis);
  const auto a = extrapolate_scalability(p, {64});
  const auto b = extrapolate_scalability(p, {64});
  EXPECT_DOUBLE_EQ(a[0].slowdown, b[0].slowdown);
}

TEST(Mitigation, AbsorbingEverythingRemovesSlowdown) {
  const auto model = noisy_model(500, 5'000, kNsPerSec);
  NoiseAnalysis analysis(model);
  const auto est = estimate_mitigation(
      analysis, {NoiseCategory::kPeriodic}, 1024);  // all events are periodic
  EXPECT_GT(est.baseline.slowdown, 1.0);
  EXPECT_DOUBLE_EQ(est.mitigated.slowdown, 1.0);
  EXPECT_GT(est.speedup, 1.0);
}

TEST(Mitigation, AbsorbingUnrelatedCategoryChangesNothing) {
  const auto model = noisy_model(500, 5'000, kNsPerSec);
  NoiseAnalysis analysis(model);
  const auto est = estimate_mitigation(analysis, {NoiseCategory::kIo}, 256);
  EXPECT_NEAR(est.speedup, 1.0, 0.05);
}

}  // namespace
}  // namespace osn::noise
