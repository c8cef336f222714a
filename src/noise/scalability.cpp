#include "noise/scalability.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "stats/distributions.hpp"

namespace osn::noise {

NoiseProfile NoiseProfile::from_analysis(const NoiseAnalysis& analysis,
                                         const std::vector<NoiseCategory>& absorbed) {
  NoiseProfile p;
  const auto ranks = analysis.model().app_pids();
  if (ranks.empty()) throw ProfileError("trace has no application ranks to profile");
  double total_ns = 0;
  for (const Interval& iv : analysis.noise_intervals()) {
    if (std::find(absorbed.begin(), absorbed.end(), categorize(iv.kind)) != absorbed.end())
      continue;
    const DurNs charged = analysis.charged(iv);
    if (charged == 0) continue;
    p.durations.push_back(charged);
    total_ns += static_cast<double>(charged);
  }
  const double rank_seconds =
      static_cast<double>(analysis.model().duration()) /
      static_cast<double>(kNsPerSec) * static_cast<double>(ranks.size());
  if (!p.durations.empty() && rank_seconds > 0) {
    p.events_per_sec = static_cast<double>(p.durations.size()) / rank_seconds;
    p.mean_duration_ns = total_ns / static_cast<double>(p.durations.size());
    p.noise_fraction = total_ns / (rank_seconds * static_cast<double>(kNsPerSec));
  }
  return p;
}

namespace {

/// Samples the noise one rank accumulates in one compute window of length g:
/// a Poisson number of events at the measured rate, each with a duration
/// resampled from the measured empirical distribution.
DurNs sample_window_noise(const NoiseProfile& profile, DurNs granularity,
                          Xoshiro256& rng) {
  if (profile.durations.empty() || profile.events_per_sec <= 0) return 0;
  // Poisson arrivals via exponential gaps (expected counts are small for
  // ms-scale windows; the guard bounds the pathological huge-rate case).
  DurNs noise = 0;
  double t = stats::sample_exponential(rng, 1.0 / std::max(profile.events_per_sec, 1e-9));
  const double window_sec =
      static_cast<double>(granularity) / static_cast<double>(kNsPerSec);
  std::uint32_t guard = 0;
  while (t < window_sec && guard++ < 100'000) {
    noise += profile.durations[rng.bounded(profile.durations.size())];
    t += stats::sample_exponential(rng, 1.0 / profile.events_per_sec);
  }
  return noise;
}

}  // namespace

std::vector<ScalabilityPoint> extrapolate_scalability(
    const NoiseProfile& profile, const std::vector<std::uint64_t>& rank_counts,
    const ScalabilityParams& params) {
  OSN_ASSERT(params.iterations > 0 && params.granularity > 0);
  std::vector<ScalabilityPoint> out;
  Xoshiro256 rng(params.seed);

  for (const std::uint64_t n : rank_counts) {
    OSN_ASSERT(n >= 1);
    double sum_max = 0;
    for (std::uint32_t it = 0; it < params.iterations; ++it) {
      // E[max over n ranks]: draw n windows, keep the worst. For very large
      // n this is the dominant cost; the empirical resampling is O(events).
      DurNs worst = 0;
      for (std::uint64_t r = 0; r < n; ++r)
        worst = std::max(worst, sample_window_noise(profile, params.granularity, rng));
      sum_max += static_cast<double>(worst);
    }
    ScalabilityPoint point;
    point.ranks = n;
    point.mean_max_noise_ns = sum_max / params.iterations;
    point.slowdown = 1.0 + point.mean_max_noise_ns /
                               static_cast<double>(params.granularity);
    point.efficiency = 1.0 / point.slowdown;
    out.push_back(point);
  }
  return out;
}

MitigationEstimate estimate_mitigation(const NoiseAnalysis& analysis,
                                       const std::vector<NoiseCategory>& absorbed,
                                       std::uint64_t ranks,
                                       const ScalabilityParams& params) {
  const NoiseProfile baseline = NoiseProfile::from_analysis(analysis);
  const NoiseProfile mitigated = NoiseProfile::from_analysis(analysis, absorbed);

  MitigationEstimate out;
  out.baseline = extrapolate_scalability(baseline, {ranks}, params)[0];
  out.mitigated = extrapolate_scalability(mitigated, {ranks}, params)[0];
  out.speedup = out.baseline.slowdown / out.mitigated.slowdown;
  return out;
}

}  // namespace osn::noise
