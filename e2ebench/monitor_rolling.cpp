// monitor-rolling: writes beside reads on a rolling segment store.
//
// A trace written during set-up is replayed, unpaced, through
// monitor::Monitor with small segments and short retention, so every replay
// cycle goes through many rotations and compactions; one synthetic noise
// excursion is injected. Cycles repeat, each into a fresh store directory,
// until the measured time is up. Meanwhile a reader thread opens a
// RollingView on the live store at a fixed mean rate (an open loop with
// seeded Poisson arrivals) and runs a summary plan and a windowed plan over
// the most recent full-resolution history.
//
// Output checks after each cycle: the final RollingView summary is
// byte-identical to the engine's summary of the uncut trace, and the
// detector raised exactly one alert for the one injected excursion (alerts
// confirmed before the injection starts are natural excursions of the
// trace; they are counted and printed, not failed).
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <shared_mutex>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "monitor/monitor.hpp"
#include "monitor/rolling.hpp"
#include "noise/index_aggregate.hpp"
#include "query/engine.hpp"
#include "trace/event_source.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "workloads/sequoia.hpp"
#include "workloads/workload.hpp"

namespace osnbench {

namespace {

using namespace osn;
namespace fs = std::filesystem;

// The same simulated length as a pipeline-amg job. Longer AMG runs hit a
// simulator defect on some seeds: at 8 s, about 1.5% of seeds abort with
// "touch beyond region" (the rank's memory regions are sized from an
// estimate the run can outgrow).
constexpr std::uint64_t kSimSeconds = 4;     ///< AMG, ~270k records, ~6.5 s span
// A windowed query decodes every full-resolution segment, so its cost steps
// with their count: retention holds six or seven of them, so one more or
// one fewer moves the cost by a sixth (with three or four, by a third).
constexpr DurNs kSegmentNs = 250 * kNsPerMs;   ///< ~25 segments per cycle
constexpr DurNs kRetainNs = 1500 * kNsPerMs;   ///< older full-res segments compact
constexpr DurNs kViewWindowNs = 400 * kNsPerMs;
// The reader rate is an assumption (no recorded dashboard traffic exists):
// 25 queries/s of about 15 ms each keep a query in flight about two fifths
// of the time, often enough to overlap the store's rotations and compactions
// (about 25 seals and 18 compactions per replay cycle of roughly 50 ms)
// while leaving the writer its own CPU.
constexpr DurNs kViewPeriodNs = 40 * kNsPerMs;  ///< 25 rolling queries/s
/// A query that loses a race with compaction is retried (and counted).
constexpr int kViewAttempts = 10;

monitor::MonitorOptions monitor_options(const std::string& dir, const trace::TraceMeta& meta) {
  monitor::MonitorOptions m;
  m.store.dir = dir;
  m.store.segment_ns = kSegmentNs;
  m.store.retain_ns = kRetainNs;
  m.window_ns = 50 * kNsPerMs;
  m.inject.enabled = true;
  m.inject.start_ns = meta.start_ns + (meta.end_ns - meta.start_ns) * 3 / 5;
  m.inject.period_ns = 2 * kNsPerMs;
  m.inject.duration_ns = 300 * kNsPerUs;
  return m;
}

/// Alerts in an alerts_json() document confirmed after `t` (trace time):
/// those a sustained excursion starting at `t` can have raised.
std::size_t alerts_confirmed_after(const std::string& alerts_json, TimeNs t) {
  static constexpr std::string_view kKey = "\"window_end_ns\": ";
  std::size_t n = 0;
  for (std::size_t at = alerts_json.find(kKey); at != std::string::npos;
       at = alerts_json.find(kKey, at + kKey.size())) {
    const TimeNs end = std::strtoull(alerts_json.c_str() + at + kKey.size(), nullptr, 10);
    if (end > t) ++n;
  }
  return n;
}

struct Cycle {
  std::uint64_t records = 0;
  DurNs ingest_wall_ns = 0;   ///< replay loop + finish
  DurNs ingest_self_ns = 0;   ///< summed Monitor::ingest calls (traced only)
  DurNs replay_ns = 0;        ///< for_each wall time
  DurNs finish_ns = 0;
  monitor::StoreStats stats;
  std::uint64_t fullres_bytes = 0;
  std::uint64_t fullres_records = 0;
  std::size_t natural_alerts = 0;  ///< confirmed before the injection starts
};

struct Tick {
  TimeNs due = 0;
  TimeNs start = 0;  ///< when the reader got to it (due + wake-up / backlog)
  TimeNs done = 0;
  DurNs open_ns = 0;
  DurNs run_ns = 0;
  int retries = 0;
  bool ok = false;
  std::string error;
};

/// The store directory readers should look at; empty between cycles.
class CurrentStore {
 public:
  std::shared_lock<std::shared_mutex> read(std::string& dir) {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    dir = dir_;
    return lock;
  }
  void set(std::string dir) {
    const std::unique_lock<std::shared_mutex> lock(mutex_);
    dir_ = std::move(dir);
  }

 private:
  std::shared_mutex mutex_;
  std::string dir_;
};

/// One rolling query: open a view, run a summary and a windowed plan over
/// the newest full-resolution history. False, without running the plans,
/// while the store is still filling: before the first compaction it holds
/// fewer full-resolution segments than retention keeps, a state an
/// always-on store passes through once at start-up but every replay cycle
/// here begins with (not counted).
bool rolling_query(const std::string& dir, Tick& t, Spans& spans, std::size_t parent,
                   std::uint64_t request) {
  const TimeNs o0 = now_ns();
  Scope open(spans, "monitor.view_open", parent, request);
  monitor::RollingView view(dir);
  open.close();
  const TimeNs o1 = now_ns();
  t.open_ns += o1 - o0;
  if (view.compacted_count() == 0) return false;
  Scope run(spans, "monitor.view_run", parent, request);
  view.run(query::Plan{});
  query::Plan windowed;
  windowed.t1 = view.meta().end_ns;
  windowed.t0 = windowed.t1 > kViewWindowNs ? windowed.t1 - kViewWindowNs : 0;
  view.run(windowed);
  t.run_ns += now_ns() - o1;
  return true;
}

}  // namespace

void run_monitor_rolling(const Options& opts, Spans& spans, Report& report) {
  const std::string src = opts.work_dir + "/monitor-source.osnt";

  // Set-up: write the trace to replay, as `osn-analyze run amg` does.
  bool setup_ok = true;
  std::vector<double> setup_secs;
  const auto setup = [&](std::size_t) {
    workloads::SequoiaWorkload workload(workloads::SequoiaApp::kAmg, sec(kSimSeconds));
    trace::OsntStreamWriter writer(src);
    writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
    workloads::LiveOptions lopts;
    lopts.on_record = [&writer](const tracebuf::EventRecord& rec) { writer.append(rec); };
    const workloads::LiveRunResult run =
        workloads::run_workload_live(workload, opts.seed * 131 + 7, lopts);
    setup_ok = writer.finish(run.meta, run.tasks);
  };
  timed_setup(setup_secs, setup);
  report.check(setup_ok, "source trace write failed");
  if (!setup_ok) return;

  // References: the engine's summary, and its summary of the last window
  // the readers query, on the uncut trace.
  std::string reference;
  std::string reference_window;
  query::Plan last_window;
  {
    trace::OsntReader reader(src);
    query::Engine engine;
    reference = engine.run(reader, "", query::Plan{});
    last_window.t1 = reader.meta().end_ns;
    last_window.t0 = last_window.t1 - kViewWindowNs;
    reference_window = engine.run(reader, "", last_window);
  }

  CurrentStore current;
  std::atomic<bool> stop{false};
  std::vector<Tick> ticks;
  const TimeNs t0 = now_ns();
  std::thread reader([&] {
    // Poisson arrivals at the mean period, so the queries sample every point
    // of the writer's replay cycle instead of beating with it.
    std::mt19937_64 rng(opts.seed * 977 + 3);
    std::exponential_distribution<double> gap(1.0 / static_cast<double>(kViewPeriodNs));
    TimeNs due = t0;
    for (std::uint64_t k = 0; !stop.load(); ++k) {
      Tick t;
      due += static_cast<DurNs>(gap(rng));
      t.due = due;
      Deadline::at(t.due).sleep_remaining();
      if (stop.load()) break;
      std::string dir;
      const auto lock = current.read(dir);
      if (dir.empty()) continue;
      t.start = now_ns();
      bool ran = true;
      // The query's span starts at its due time, so its self time is the
      // wait for the reader plus any retry overhead.
      const std::size_t span = spans.add("monitor.rolling_query", t.due, t.due,
                                         Spans::kNoParent, k + 1);
      for (int attempt = 0; attempt < kViewAttempts && !t.ok; ++attempt) {
        try {
          ran = rolling_query(dir, t, spans, span, k + 1);
          t.ok = true;
        } catch (const std::exception& e) {
          // The store rotates and compacts underneath the reader: a segment
          // listed by the directory scan can be gone by the time it opens.
          t.error = e.what();
          if (attempt + 1 < kViewAttempts) ++t.retries;
        }
      }
      t.done = now_ns();
      spans.finish(span);
      if (ran) ticks.push_back(std::move(t));
    }
  });

  std::vector<Cycle> cycles;
  const auto budget = static_cast<DurNs>(opts.seconds * 1e9);
  std::string previous;
  for (std::uint64_t c = 0; cycles.empty() || now_ns() - t0 < budget; ++c) {
    const std::string dir = opts.work_dir + "/store-" + std::to_string(c);
    fs::create_directories(dir);
    Cycle cy;
    trace::FileEventSource source(src);
    const trace::TraceMeta meta = source.meta();
    // Point the reader at the new store (waits for a query in flight on the
    // old one), then retire the old store.
    current.set(dir);
    if (!previous.empty()) fs::remove_all(previous);
    Scope cycle(spans, "monitor.cycle", Spans::kNoParent, c + 1);
    const TimeNs i0 = now_ns();
    monitor::Monitor mon(monitor_options(dir, meta), meta, source.tasks());
    const TimeNs r0 = now_ns();
    {
      Scope replay(spans, "trace.replay", cycle.id(), c + 1);
      if (spans.enabled()) {
        source.for_each([&](const tracebuf::EventRecord& rec) {
          const TimeNs a = now_ns();
          mon.ingest(rec);
          cy.ingest_self_ns += now_ns() - a;
          ++cy.records;
        });
        spans.add("monitor.ingest", r0, r0 + cy.ingest_self_ns, replay.id(), c + 1);
      } else {
        source.for_each([&](const tracebuf::EventRecord& rec) {
          mon.ingest(rec);
          ++cy.records;
        });
      }
    }
    const TimeNs f0 = now_ns();
    cy.replay_ns = f0 - r0;
    {
      Scope fin(spans, "monitor.finish", cycle.id(), c + 1);
      mon.finish(meta.end_ns);
    }
    cy.finish_ns = now_ns() - f0;
    cy.ingest_wall_ns = now_ns() - i0;
    cycle.close();
    cy.stats = mon.store_stats();
    for (const monitor::SegmentInfo& seg : mon.segments()) {
      if (seg.compacted) continue;
      cy.fullres_bytes += seg.bytes;
      cy.fullres_records += seg.records;
    }

    // Output checks (untimed).
    std::string final_summary;
    std::string final_window;
    try {
      monitor::RollingView view(dir);
      final_summary = view.run(query::Plan{});
      final_window = view.run(last_window);
    } catch (const std::exception& e) {
      final_summary = std::string("error: ") + e.what();
    }
    report.check(mon.ok() && final_summary == reference,
                 "final RollingView summary differs from the uncut trace's");
    report.check(final_window == reference_window,
                 "final RollingView windowed summary differs from the uncut trace's");
    const std::size_t injected_alerts =
        alerts_confirmed_after(mon.alerts_json(), monitor_options(dir, meta).inject.start_ns);
    report.check(injected_alerts == 1, "expected exactly one alert for the injected excursion, got " +
                                           std::to_string(injected_alerts));
    cy.natural_alerts = mon.alert_count() - injected_alerts;
    cycles.push_back(cy);
    previous = dir;
  }
  stop.store(true);
  reader.join();
  current.set("");
  fs::remove_all(previous);
  timed_setup(setup_secs, setup);
  report.check(setup_ok, "source trace rewrite failed");
  fs::remove(src);

  // A rolling query is timed from when the reader starts it: the reader is a
  // poller, and how late its own timer woke it (VM timer noise, or
  // a previous slow query) is reported apart as monitor.reader_late_p99_ms.
  std::vector<double> query_ms;
  std::vector<double> late_ms;
  std::vector<double> open_ms;
  std::vector<double> run_ms;
  double retries = 0;
  report.check(!ticks.empty(), "no rolling query met a store past its first compaction");
  for (const Tick& t : ticks) {
    report.op(t.ok, "rolling query failed: " + t.error);
    query_ms.push_back(to_ms(t.done - t.start));
    late_ms.push_back(to_ms(t.start - t.due));
    open_ms.push_back(to_ms(t.open_ns));
    run_ms.push_back(to_ms(t.run_ns));
    retries += t.retries;
  }
  std::uint64_t fr_bytes = 0;
  std::uint64_t fr_records = 0;
  double sealed = 0, compactions = 0, forced = 0;
  DurNs self_ns = 0, replay_ns = 0, finish_ns = 0;
  for (const Cycle& cy : cycles) {
    fr_bytes += cy.fullres_bytes;
    fr_records += cy.fullres_records;
    sealed += static_cast<double>(cy.stats.segments_sealed);
    compactions += static_cast<double>(cy.stats.compactions);
    forced += static_cast<double>(cy.stats.rotations_forced);
    self_ns += cy.ingest_self_ns;
    replay_ns += cy.replay_ns;
    finish_ns += cy.finish_ns;
  }
  const double n = static_cast<double>(cycles.size());
  std::vector<double> cycle_rates;
  for (const Cycle& cy : cycles)
    cycle_rates.push_back(static_cast<double>(cy.records) / to_s(cy.ingest_wall_ns));
  const double rec_per_s = median(cycle_rates);
  const double bytes_per_rec = static_cast<double>(fr_bytes) / static_cast<double>(fr_records);

  report.end_to_end("setup_s", median(setup_secs));
  report.end_to_end("op_p50_ms", median(query_ms));
  report.end_to_end("throughput_per_s", rec_per_s);
  report.end_to_end("bytes_per_rec", bytes_per_rec);

  report.note("monitor-rolling: " + std::to_string(cycles.size()) + " unpaced replay cycles of " +
              std::to_string(cycles.front().records) + " records; " +
              std::to_string(ticks.size()) + " rolling queries at " +
              fixed(1e9 / static_cast<double>(kViewPeriodNs), 0) + "/s");
  report.note("ingest_rec_per_s " + fixed(rec_per_s, 0) +
              " records/s (median over cycles of records / ingest wall time)");
  report.note("rolling_query_p50_ms " + fixed(median(query_ms)) + " ms, rolling_query_p99_ms " +
              fixed(quantile(query_ms, 0.99)) + " ms (from the reader's start, " +
              std::to_string(query_ms.size()) + " queries, " + fixed(retries, 0) + " retries)");
  report.note("per cycle: " + fixed(sealed / n, 1) + " segments sealed, " +
              fixed(compactions / n, 1) + " compactions, " + fixed(forced / n, 1) +
              " forced rotations, " + std::to_string(cycles.back().natural_alerts) +
              " alerts before the injection; full-res store " + fixed(bytes_per_rec, 4) +
              " B/record");

  if (!spans.enabled()) return;
  report.layer("monitor.ingest_ms", to_ms(self_ns) / n);
  report.layer("trace.replay_ms", to_ms(replay_ns - self_ns) / n);
  report.layer("monitor.finish_ms", to_ms(finish_ns) / n);
  report.layer("monitor.segments_sealed", sealed / n);
  report.layer("monitor.compactions", compactions / n);
  report.layer("monitor.rotations_forced", forced / n);
  report.layer("monitor.bytes_per_rec", bytes_per_rec);
  report.layer("monitor.view_open_ms", median(open_ms));
  report.layer("monitor.view_run_ms", median(run_ms));
  report.layer("monitor.view_retries", retries);
  report.layer("monitor.rolling_query_p99_ms", quantile(query_ms, 0.99));
  report.layer("monitor.reader_late_p99_ms", quantile(late_ms, 0.99));
}

}  // namespace osnbench
