// pipeline-amg: a closed loop of batch jobs, one at a time. Each job does
// what `osn-analyze run amg` followed by `stats`, `breakdown` and `chart`
// does, plus one summary answered from the index fast path:
//
//   capture  run_workload_live -> OsntStreamWriter (+ IndexAggregator)
//                              -> StreamingStats, live stats table
//   analyze  reopen + decode at auto jobs -> NoiseAnalysis at auto jobs
//            -> stats table, breakdown, chart
//   query    Engine::run summary plan (index-only fast path)
//
// Output checks after each job: records written == drained with 0 lost, the
// offline stats table equals the live one, and the record-decode summary
// JSON equals the index summary JSON byte for byte.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/format.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "export/ascii.hpp"
#include "export/index_summary.hpp"
#include "export/json.hpp"
#include "noise/analysis.hpp"
#include "noise/chart.hpp"
#include "noise/index_aggregate.hpp"
#include "noise/streaming.hpp"
#include "query/engine.hpp"
#include "trace/event_source.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "workloads/sequoia.hpp"
#include "workloads/workload.hpp"

namespace osnbench {

namespace {

using namespace osn;

/// Simulated seconds of AMG per job (~276k records, a 6.7 s trace).
constexpr std::uint64_t kSimSeconds = 4;

/// The per-activity table `osn-analyze run` (live) and `stats` (offline)
/// both print. The live table has no preemption row: preemption intervals
/// are derived offline from the task registry (StreamingStats' scope is the
/// kernel entry/exit activities), so the comparison skips that row.
template <class StatsOf>
std::string stats_table(StatsOf&& stats_of, bool with_preemption = true) {
  TextTable table({"activity", "freq(ev/sec)", "avg(nsec)", "max(nsec)", "min(nsec)"});
  for (int k = 0; k < static_cast<int>(noise::ActivityKind::kMaxKind); ++k) {
    const auto kind = static_cast<noise::ActivityKind>(k);
    if (!with_preemption && kind == noise::ActivityKind::kPreemption) continue;
    const noise::EventStats s = stats_of(kind);
    if (s.count == 0) continue;
    table.add_row({std::string(noise::activity_name(kind)), fmt_fixed(s.freq_ev_per_sec, 1),
                   with_commas(static_cast<std::uint64_t>(s.avg_ns)), with_commas(s.max_ns),
                   with_commas(s.min_ns)});
  }
  return table.render();
}

/// `osn-analyze breakdown` (node-wide) and `osn-analyze chart` (first rank,
/// 1 ms quantum, 2 us floor, 40 rows), as text.
std::string render_reports(const trace::TraceModel& model, const noise::NoiseAnalysis& analysis) {
  std::string out = exporter::render_breakdown_row(model.meta().workload,
                                                   analysis.category_breakdown_all());
  DurNs total = 0;
  for (const Pid pid : model.app_pids()) total += analysis.total_noise(pid);
  out += "total: " + fmt_duration(total) + "\n";
  const Pid pid = model.app_pids().front();
  const noise::SyntheticChart chart = noise::build_chart(
      analysis, pid, 0, kNsPerMs, query::chart_buckets(model.duration(), kNsPerMs));
  out += exporter::render_spikes(chart, 2 * kNsPerUs, 40);
  return out;
}

std::uint64_t job_seed(std::uint64_t seed, std::uint64_t job) {
  // splitmix64 over (seed, job): the same run seed gives the same job inputs.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + job + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct JobResult {
  DurNs job_ns = 0;
  DurNs capture_ns = 0;  ///< run_workload_live + writer finish
  DurNs analyze_ns = 0;  ///< decode + analysis + rendered reports
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  trace::DrainStats drain;
  std::size_t chunks = 0;
};

/// One job. `request` identifies its spans; output checks go to `report`
/// unless it is null (the warm-up jobs of set-up are not counted).
JobResult run_job(const std::string& path, std::uint64_t seed, std::uint64_t request,
                  Spans& spans, Report* report) {
  JobResult r;
  const TimeNs job_start = now_ns();
  Scope job(spans, "pipeline.job", Spans::kNoParent, request);

  // --- capture: `osn-analyze run amg` --------------------------------------
  workloads::SequoiaWorkload workload(workloads::SequoiaApp::kAmg, sec(kSimSeconds));
  trace::OsntStreamWriter writer(path);
  writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
  noise::StreamingStats live;
  workloads::LiveOptions lopts;
  DurNs append_ns = 0;
  DurNs consume_ns = 0;
  if (spans.enabled()) {
    lopts.on_record = [&](const tracebuf::EventRecord& rec) {
      const TimeNs t0 = now_ns();
      writer.append(rec);
      const TimeNs t1 = now_ns();
      live.consume(rec);
      const TimeNs t2 = now_ns();
      append_ns += t1 - t0;
      consume_ns += t2 - t1;
    };
  } else {
    lopts.on_record = [&](const tracebuf::EventRecord& rec) {
      writer.append(rec);
      live.consume(rec);
    };
  }
  std::optional<workloads::LiveRunResult> run;
  {
    Scope sim(spans, "workloads.run_live", job.id(), request);
    const TimeNs t0 = now_ns();
    run = workloads::run_workload_live(workload, seed, lopts);
    // The per-record hooks ran on the consumer thread, inside this call;
    // their summed time becomes two child spans laid end to end.
    spans.add("trace.append", t0, t0 + append_ns, sim.id(), request);
    spans.add("noise.streaming", t0 + append_ns, t0 + append_ns + consume_ns, sim.id(),
              request);
  }
  bool written = false;
  {
    Scope fin(spans, "trace.finish", job.id(), request);
    written = writer.finish(run->meta, run->tasks);
  }
  r.capture_ns = now_ns() - job_start;
  std::string live_table;
  {
    Scope render(spans, "export.render", job.id(), request);
    const DurNs duration = run->meta.end_ns - run->meta.start_ns;
    live_table = stats_table([&](noise::ActivityKind kind) {
      return live.activity_stats(kind, duration, run->meta.n_cpus);
    });
  }

  // --- analyze: `osn-analyze stats` / `breakdown` / `chart` -------------------
  const TimeNs analyze_start = now_ns();
  std::optional<trace::TraceModel> model;
  {
    Scope decode(spans, "trace.decode", job.id(), request);
    auto source = trace::open_trace_source(path);
    const std::size_t jobs = ThreadPool::resolve_jobs(0);
    const auto pool = jobs > 1 ? std::make_unique<ThreadPool>(jobs) : nullptr;
    model = source->to_model(pool.get());
  }
  noise::AnalysisOptions aopts;
  aopts.jobs = 0;  // auto, the CLI default
  std::optional<noise::NoiseAnalysis> analysis;
  {
    Scope an(spans, "noise.analysis", job.id(), request);
    analysis.emplace(*model, aopts);
  }
  std::string offline_table;
  std::string reports;
  {
    Scope render(spans, "export.render", job.id(), request);
    offline_table = stats_table([&](noise::ActivityKind kind) {
      return analysis->activity_stats(kind);
    });
    reports = render_reports(*model, *analysis);
  }
  r.analyze_ns = now_ns() - analyze_start;

  // --- query: one summary from the index fast path --------------------------
  std::string fast_summary;
  {
    Scope fp(spans, "query.fast_path", job.id(), request);
    trace::OsntReader reader(path);
    query::Engine engine;
    fast_summary = engine.run(reader, /*trace_id=*/"", query::Plan{});
  }
  job.close();
  r.job_ns = now_ns() - job_start;

  r.records = writer.records_written();
  r.bytes = writer.bytes_written();
  r.drain = run->meta.drain;

  if (spans.enabled()) {
    noise::AnalysisOptions serial = aopts;
    serial.jobs = 1;
    const Scope s(spans, "noise.analysis_serial", Spans::kNoParent, request);
    const noise::NoiseAnalysis again(*model, serial);
  }

  // --- output checks (untimed) ------------------------------------------------
  const trace::OsntReader reader(path);
  r.chunks = reader.chunks().size();
  if (report != nullptr) {
    report->check(written && r.records == r.drain.records && r.drain.lost == 0 &&
                      r.records == model->total_events(),
                  "records written " + std::to_string(r.records) + " != drained " +
                      std::to_string(r.drain.records) + " or lost " +
                      std::to_string(r.drain.lost));
    const std::string offline_entry_exit = stats_table(
        [&](noise::ActivityKind kind) { return analysis->activity_stats(kind); },
        /*with_preemption=*/false);
    report->check(!offline_table.empty() && offline_entry_exit == live_table,
                  "offline stats table differs from the live StreamingStats table");
    const std::string decoded = exporter::summary_json(*analysis);
    const std::optional<std::string> indexed = exporter::index_summary_json(reader);
    report->check(indexed.has_value() && decoded == *indexed && fast_summary == decoded,
                  "record-decode summary JSON differs from the index summary JSON");
    report->check(!reports.empty(), "empty breakdown/chart report");
  }
  return r;
}

}  // namespace

void run_pipeline_amg(const Options& opts, Spans& spans, Report& report) {
  const std::string path = opts.work_dir + "/pipeline-amg.osnt";

  // Set-up: one untimed warm-up job (thread pools, allocator, page cache).
  Spans no_spans(false);
  const auto setup = [&](std::size_t rep) {
    run_job(path, job_seed(opts.seed, 1'000'000 + rep), 0, no_spans, nullptr);
  };
  std::vector<double> setup_secs;
  timed_setup(setup_secs, setup);

  std::vector<JobResult> jobs;
  const TimeNs start = now_ns();
  const auto budget = static_cast<DurNs>(opts.seconds * 1e9);
  for (std::uint64_t j = 0; jobs.empty() || now_ns() - start < budget; ++j)
    jobs.push_back(run_job(path, job_seed(opts.seed, j), j, spans, &report));
  timed_setup(setup_secs, setup);
  std::filesystem::remove(path);

  std::vector<double> job_ms;
  std::vector<double> job_rates;
  DurNs analyze_ns = 0;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  for (const JobResult& r : jobs) {
    job_ms.push_back(to_ms(r.job_ns));
    job_rates.push_back(static_cast<double>(r.records) / to_s(r.capture_ns));
    analyze_ns += r.analyze_ns;
    records += r.records;
    bytes += r.bytes;
  }
  const double n = static_cast<double>(jobs.size());
  const double rec_per_s = median(job_rates);
  const double bytes_per_rec = static_cast<double>(bytes) / static_cast<double>(records);

  report.end_to_end("setup_s", median(setup_secs));
  report.end_to_end("op_p50_ms", median(job_ms));
  report.end_to_end("throughput_per_s", rec_per_s);
  report.end_to_end("bytes_per_rec", bytes_per_rec);

  report.note("pipeline-amg: closed loop, 1 job at a time, AMG " +
              std::to_string(kSimSeconds) + " s simulated per job, " +
              std::to_string(jobs.size()) + " jobs");
  report.note("pipeline_s " + fixed(median(job_ms) / 1e3, 4) + " s/job (median of " +
              std::to_string(jobs.size()) + "), p90 " +
              fixed(quantile(job_ms, 0.9) / 1e3, 4) + " s/job");
  report.note("capture_rec_per_s " + fixed(rec_per_s, 0) +
              " records/s (median over jobs of records / capture wall time)");
  report.note("analyze_s " + fixed(to_s(analyze_ns) / n, 4) + " s/job (mean)");
  report.note("trace_bytes_per_rec " + fixed(bytes_per_rec, 4) + " B/record (" +
              std::to_string(bytes) + " B / " + std::to_string(records) + " records)");

  if (!spans.enabled()) return;

  // --- per-layer attribution from the job span trees ---------------------------
  const std::vector<Spans::Span> all = spans.snapshot();
  const std::vector<DurNs> self = Spans::self_times(all);
  // Root job span of every span (follow parents).
  std::map<std::string, DurNs> by_name;
  std::map<std::size_t, DurNs> tree_sum;  // job span id -> sum of self times
  std::map<std::size_t, DurNs> job_dur;
  DurNs serial_ns = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::size_t root = i;
    while (all[root].parent != Spans::kNoParent) root = all[root].parent;
    if (all[root].name != "pipeline.job") {
      if (all[i].name == "noise.analysis_serial") serial_ns += all[i].end - all[i].start;
      continue;
    }
    by_name[all[i].name] += self[i];
    tree_sum[root] += self[i];
    if (i == root) job_dur[root] = all[i].end - all[i].start;
  }
  bool sums = !job_dur.empty();
  DurNs total_job = 0;
  for (const auto& [root, dur] : job_dur) {
    total_job += dur;
    if (tree_sum[root] != dur) sums = false;
  }
  report.check(sums, "stage self times do not sum to the job time");

  auto per_job = [&](const char* name) { return to_ms(by_name[name]) / n; };
  const double job_mean = to_ms(total_job) / n;
  report.layer("workloads.sim_ms", per_job("workloads.run_live"));
  report.layer("trace.append_ms", per_job("trace.append"));
  report.layer("noise.streaming_ms", per_job("noise.streaming"));
  report.layer("trace.finish_ms", per_job("trace.finish"));
  report.layer("trace.decode_ms", per_job("trace.decode"));
  report.layer("noise.analysis_ms", per_job("noise.analysis"));
  report.layer("export.render_ms", per_job("export.render"));
  report.layer("query.fast_path_ms", per_job("query.fast_path"));
  report.layer("pipeline.unattributed_ms", per_job("pipeline.job"));
  report.layer("pipeline.job_ms", job_mean);
  report.layer("pipeline.unattributed_pct", 100.0 * per_job("pipeline.job") / job_mean);
  report.layer("noise.analysis_serial_ms", to_ms(serial_ns) / n);

  double batches = 0, stalls = 0, lost = 0, max_batch = 0, chunks = 0;
  for (const JobResult& r : jobs) {
    batches += static_cast<double>(r.drain.batches);
    stalls += static_cast<double>(r.drain.producer_stalls);
    lost += static_cast<double>(r.drain.lost);
    max_batch = std::max(max_batch, static_cast<double>(r.drain.max_batch));
    chunks += static_cast<double>(r.chunks);
  }
  report.layer("tracebuf.batches", batches / n);
  report.layer("tracebuf.max_batch", max_batch);
  report.layer("tracebuf.producer_stalls", stalls / n);
  report.layer("tracebuf.lost", lost);
  report.layer("trace.chunks", chunks / n);

  report.note("attribution: stage self times + unattributed = " + fixed(job_mean, 3) +
              " ms/job over " + std::to_string(jobs.size()) + " jobs; unattributed " +
              fixed(per_job("pipeline.job"), 3) + " ms (" +
              fixed(100.0 * per_job("pipeline.job") / job_mean, 2) + "% of the job)");
}

}  // namespace osnbench
