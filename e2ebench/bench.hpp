// Shared pieces of the end-to-end benchmark binary: run options, the span
// recorder used by traced runs, the result report, and small statistics
// helpers. Each workload (pipeline.cpp, serve_mixed.cpp,
// monitor_rolling.cpp) fills one Report; main.cpp prints it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/types.hpp"

namespace osnbench {

using osn::DurNs;
using osn::TimeNs;

inline TimeNs now_ns() { return osn::monotonic_now_ns(); }
inline double to_ms(DurNs ns) { return static_cast<double>(ns) / 1e6; }
inline double to_s(DurNs ns) { return static_cast<double>(ns) / 1e9; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;       ///< length of the measured phase
  bool trace = false;        ///< traced run: per-layer metrics
  std::string work_dir;      ///< working directory for traces and stores
  std::string spans_out;     ///< traced run: spans are written here at exit
};

/// Set-up repetitions per run, half before the measured phase and half after
/// it, so that their median, setup_s, samples the host over the whole run
/// and not over a few seconds of it.
inline constexpr std::size_t kSetupReps = 8;

/// In-memory span recorder. A span is one call into a layer, made from the
/// benchmark's own code: a name, a start and end on the monotonic clock, the
/// span that caused it, and the request it belongs to. Disabled recorders
/// record nothing (the untraced end-to-end runs).
class Spans {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    TimeNs start = 0;
    TimeNs end = 0;
    std::size_t parent = kNoParent;
    std::uint64_t request = 0;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span starting now; returns its id (kNoParent when disabled).
  std::size_t begin(const char* name, std::size_t parent, std::uint64_t request);
  /// Ends an open span now. No-op for kNoParent.
  void finish(std::size_t id);
  /// Records a finished span; returns its id (kNoParent when disabled).
  std::size_t add(std::string name, TimeNs start, TimeNs end, std::size_t parent,
                  std::uint64_t request);

  std::vector<Span> snapshot() const;

  /// Self time of every span: its duration minus the part of its interval
  /// that its children's intervals cover (children clipped to the parent,
  /// overlaps between children counted once).
  static std::vector<DurNs> self_times(const std::vector<Span>& spans);

  /// Writes the spans as JSON lines. False on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span around one call. Records nothing when the recorder is off.
class Scope {
 public:
  Scope(Spans& spans, const char* name, std::size_t parent, std::uint64_t request)
      : spans_(spans), id_(spans.begin(name, parent, request)) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span now. Idempotent.
  void close() {
    if (open_) spans_.finish(id_);
    open_ = false;
  }
  std::size_t id() const { return id_; }

 private:
  Spans& spans_;
  std::size_t id_;
  bool open_ = true;
};

/// What one run reports: the operation counts, the metrics and a few
/// human-readable lines. Metric units live in main.cpp's metric tables.
class Report {
 public:
  /// Counts one attempted operation; a false `ok` counts it as failed and
  /// logs `what`.
  void op(bool ok, const std::string& what = "");
  /// An output check: attempted and, on failure, failed.
  void check(bool ok, const std::string& what) { op(ok, "check failed: " + what); }

  void end_to_end(const std::string& name, double value) { e2e_[name] = value; }
  void layer(const std::string& name, double value) { layers_[name] = value; }
  /// A line for the human-readable part of the output.
  void note(const std::string& line) { notes_.push_back(line); }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::string, double>& e2e() const { return e2e_; }
  const std::map<std::string, double>& layers() const { return layers_; }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, double> e2e_;
  std::map<std::string, double> layers_;
  std::vector<std::string> notes_;
};

/// Linear-interpolated (R-7) quantile, q in [0,1], of an unsorted sample;
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

/// 64-bit FNV-1a: fingerprints response documents so a long run can check
/// every one of them against a reference without keeping them all.
std::uint64_t fnv1a(const std::string& bytes);

/// "%.3f"-style formatting for the human-readable lines.
std::string fixed(double v, int digits = 3);

/// Times half of the kSetupReps set-up repetitions: the first half when
/// `secs` is empty, the rest otherwise. `setup` gets the repetition's index.
/// The last repetition's state is what the run goes on to use.
template <class F>
void timed_setup(std::vector<double>& secs, F&& setup) {
  const std::size_t reps = secs.empty() ? kSetupReps / 2 : kSetupReps - secs.size();
  for (std::size_t i = 0; i < reps; ++i) {
    const TimeNs t0 = now_ns();
    setup(secs.size());
    secs.push_back(to_s(now_ns() - t0));
  }
}

// Workloads. Each sets up, measures for opts.seconds, runs its output checks
// and fills `report` (end-to-end metrics always; per-layer metrics of its
// own layers when spans.enabled()).
void run_pipeline_amg(const Options& opts, Spans& spans, Report& report);
void run_serve_mixed(const Options& opts, Spans& spans, Report& report);
void run_monitor_rolling(const Options& opts, Spans& spans, Report& report);

}  // namespace osnbench
