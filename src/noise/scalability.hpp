// Noise-to-scale extrapolation — the paper's stated future work ("to
// quantify how our findings affect the scalability of those applications on
// large machines with hundreds of thousands of cores") and the phenomenon
// motivating the whole field (Petrini et al.: noise resonance crippling
// ASCI Q at 8k processors).
//
// Model: a bulk-synchronous application computes for a granularity g between
// global barriers. Each rank's iteration is stretched by whatever noise
// lands in its window; the barrier waits for the slowest rank, so the
// iteration time at scale N is E[max of N per-rank noise draws] — the
// classic order-statistics amplification: rare long events that are
// negligible on one node (a 69 ms page fault once a minute) become
// *per-iteration* events at 100k ranks.
//
// The extrapolator is empirical: it resamples the measured per-rank noise
// interval stream from a NoiseAnalysis (frequencies and durations exactly as
// traced), synthesizes per-rank iteration noise for a given granularity, and
// Monte-Carlo estimates the expected max across N ranks. This is the same
// spirit as Ferreira/Bridges/Brightwell's kernel-level noise injection
// studies, driven by our measured per-event data.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "noise/analysis.hpp"

namespace osn::noise {

/// The trace cannot yield a per-rank profile (it has no application ranks).
/// Input, not a programming error: the CLI reports it and exits 1.
class ProfileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The measured per-rank noise process, reduced to what extrapolation needs:
/// event rate and the empirical duration distribution (charged ns).
struct NoiseProfile {
  double events_per_sec = 0;        ///< per rank
  std::vector<DurNs> durations;     ///< empirical distribution (charged)
  double mean_duration_ns = 0;
  double noise_fraction = 0;        ///< share of rank time lost to noise

  /// Extracts the profile from an analysis (noise intervals of all ranks,
  /// normalized per rank), leaving out the `absorbed` categories. Throws
  /// ProfileError when the trace has no application ranks.
  static NoiseProfile from_analysis(const NoiseAnalysis& analysis,
                                    const std::vector<NoiseCategory>& absorbed = {});
};

struct ScalabilityPoint {
  std::uint64_t ranks = 0;
  double slowdown = 0;        ///< iteration time at scale / noise-free time
  double efficiency = 0;      ///< 1 / slowdown
  double mean_max_noise_ns = 0;  ///< E[max over ranks of per-iteration noise]
};

struct ScalabilityParams {
  DurNs granularity = 1 * kNsPerMs;  ///< compute time between barriers
  std::uint32_t iterations = 400;    ///< Monte-Carlo iterations per point
  std::uint64_t seed = 42;
};

/// Expected slowdown of a bulk-synchronous application with the given
/// granularity at each rank count. Deterministic given the seed.
std::vector<ScalabilityPoint> extrapolate_scalability(
    const NoiseProfile& profile, const std::vector<std::uint64_t>& rank_counts,
    const ScalabilityParams& params = {});

/// The "sacrificial core" estimate (Petrini et al.: leaving one processor
/// idle for system activities gave 1.87x on ASCI Q): recomputes the profile
/// with the given categories removed — the noise a dedicated system core
/// would absorb — and returns both profiles' slowdowns at `ranks`.
struct MitigationEstimate {
  ScalabilityPoint baseline;
  ScalabilityPoint mitigated;
  double speedup = 0;  ///< baseline.slowdown / mitigated.slowdown
};

MitigationEstimate estimate_mitigation(const NoiseAnalysis& analysis,
                                       const std::vector<NoiseCategory>& absorbed,
                                       std::uint64_t ranks,
                                       const ScalabilityParams& params = {});

}  // namespace osn::noise
