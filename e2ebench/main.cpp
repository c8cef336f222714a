// osn-e2ebench: the end-to-end benchmark binary.
//
//   osn-e2ebench --workload pipeline-amg|serve-mixed|monitor-rolling
//                --seed N --seconds S --trace 0|1 --work-dir DIR
//                [--spans-out FILE]
//
// Prints human-readable lines (each starting with '#'), then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 runs the workload twice, untraced then traced, and reports the
// per-layer metrics of the traced run plus the tracing overhead (traced
// minus untraced end-to-end figures); its spans go to --spans-out.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace {

using namespace osnbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, reported by every workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"bytes_per_rec", "B"},
};

/// Every per-layer metric. A workload that does not exercise a layer in its
/// measured phase reports 0 for it.
constexpr MetricDef kPerLayer[] = {
    // pipeline-amg
    {"workloads.sim_ms", "ms"},
    {"tracebuf.batches", "count"},
    {"tracebuf.max_batch", "count"},
    {"tracebuf.producer_stalls", "count"},
    {"tracebuf.lost", "count"},
    {"trace.append_ms", "ms"},
    {"trace.finish_ms", "ms"},
    {"trace.chunks", "count"},
    {"noise.streaming_ms", "ms"},
    {"trace.decode_ms", "ms"},
    {"noise.analysis_ms", "ms"},
    {"noise.analysis_serial_ms", "ms"},
    {"export.render_ms", "ms"},
    {"query.fast_path_ms", "ms"},
    {"pipeline.unattributed_ms", "ms"},
    {"pipeline.job_ms", "ms"},
    {"pipeline.unattributed_pct", "%"},
    // serve-mixed
    {"serve.summary_p50_ms", "ms"},
    {"serve.summary_p99_ms", "ms"},
    {"serve.window_p50_ms", "ms"},
    {"serve.window_p99_ms", "ms"},
    {"serve.timeseries_p50_ms", "ms"},
    {"serve.timeseries_p99_ms", "ms"},
    {"serve.topk_p50_ms", "ms"},
    {"serve.topk_p99_ms", "ms"},
    {"serve.chart_p50_ms", "ms"},
    {"serve.chart_p99_ms", "ms"},
    {"query.result_hit_ratio", "ratio"},
    {"query.result_lookups", "count"},
    {"query.model_hit_ratio", "ratio"},
    {"query.model_lookups", "count"},
    {"query.engine_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.query_p50_ms", "ms"},
    {"serve.query_p99_ms", "ms"},
    {"serve.shed", "count"},
    {"serve.deadline_exceeded", "count"},
    {"net.write_queue_hwm", "B"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.offered_per_s", "1/s"},
    {"loadgen.completed_per_s", "1/s"},
    {"net.json_rtt_p50_ms", "ms"},
    {"net.osnb_rtt_p50_ms", "ms"},
    // monitor-rolling
    {"monitor.ingest_ms", "ms"},
    {"trace.replay_ms", "ms"},
    {"monitor.finish_ms", "ms"},
    {"monitor.segments_sealed", "count"},
    {"monitor.compactions", "count"},
    {"monitor.rotations_forced", "count"},
    {"monitor.bytes_per_rec", "B"},
    {"monitor.view_open_ms", "ms"},
    {"monitor.view_run_ms", "ms"},
    {"monitor.view_retries", "count"},
    {"monitor.rolling_query_p99_ms", "ms"},
    {"monitor.reader_late_p99_ms", "ms"},
    // every workload
    {"process.peak_rss_mb", "MB"},
    {"tracing.op_p50_overhead_pct", "%"},
    {"tracing.throughput_overhead_pct", "%"},
};

int usage() {
  std::fprintf(stderr,
               "usage: osn-e2ebench --workload pipeline-amg|serve-mixed|monitor-rolling\n"
               "                    --seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "                    [--spans-out FILE]\n");
  return 2;
}

/// Shortest text that reads back as the same double.
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void run_workload(const Options& opts, Spans& spans, Report& report) {
  if (opts.workload == "pipeline-amg") run_pipeline_amg(opts, spans, report);
  if (opts.workload == "serve-mixed") run_serve_mixed(opts, spans, report);
  if (opts.workload == "monitor-rolling") run_monitor_rolling(opts, spans, report);
  // Workloads whose output checks allocate more than the measured work read
  // the peak before checking; the others are read here.
  if (!report.layers().contains("process.peak_rss_mb"))
    report.layer("process.peak_rss_mb", peak_rss_mb());
}

double e2e(const Report& r, const char* name) {
  const auto it = r.e2e().find(name);
  return it == r.e2e().end() ? 0 : it->second;
}

/// The unit of a listed metric; nullptr for a name the tables do not list.
template <std::size_t N>
const char* unit_of(const MetricDef (&table)[N], const std::string& name) {
  for (const MetricDef& def : table)
    if (name == def.name) return def.unit;
  return nullptr;
}

/// Prints the values of `values` with the units of `table`. False when a
/// workload reported a name the table does not list (it would otherwise be
/// left out of the result unnoticed).
template <std::size_t N>
bool print_metrics(const char* label, const std::map<std::string, double>& values,
                   const MetricDef (&table)[N]) {
  bool listed = true;
  for (const auto& [name, value] : values) {
    const char* unit = unit_of(table, name);
    if (unit == nullptr) {
      std::fprintf(stderr, "osn-e2ebench: metric %s is not in the metric table\n", name.c_str());
      listed = false;
      continue;
    }
    std::printf("# %s %-30s %14.4f %s\n", label, name.c_str(), value, unit);
  }
  return listed;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
      have_seconds = true;
    } else if (key == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
      have_trace = true;
    } else if (key == "--work-dir") {
      opts.work_dir = value;
    } else if (key == "--spans-out") {
      opts.spans_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace || opts.work_dir.empty() ||
      !(opts.seconds > 0) ||
      (opts.workload != "pipeline-amg" && opts.workload != "serve-mixed" &&
       opts.workload != "monitor-rolling"))
    return usage();
  std::filesystem::create_directories(opts.work_dir);

  Report untraced;
  Spans off(false);
  run_workload(opts, off, untraced);

  Report traced;
  Spans on(true);
  if (opts.trace) {
    run_workload(opts, on, traced);
    // The process peak belongs to the first (untraced) pass; the second pass
    // only re-reaches it.
    traced.layer("process.peak_rss_mb", untraced.layers().at("process.peak_rss_mb"));
    const double p50 = e2e(untraced, "op_p50_ms");
    const double tput = e2e(untraced, "throughput_per_s");
    traced.layer("tracing.op_p50_overhead_pct",
                 p50 > 0 ? 100.0 * (e2e(traced, "op_p50_ms") - p50) / p50 : 0);
    traced.layer("tracing.throughput_overhead_pct",
                 tput > 0 ? 100.0 * (tput - e2e(traced, "throughput_per_s")) / tput : 0);
    if (!opts.spans_out.empty() && !on.write_jsonl(opts.spans_out))
      std::fprintf(stderr, "warning: cannot write %s\n", opts.spans_out.c_str());
  }

  // Human-readable part.
  for (const Report* r : {&untraced, &traced}) {
    for (const std::string& line : r->notes()) std::printf("# %s\n", line.c_str());
    for (const std::string& line : r->failures()) std::printf("# FAILED %s\n", line.c_str());
  }
  bool listed = print_metrics("end-to-end", untraced.e2e(), kEndToEnd);
  std::printf("# peak_rss_mb %.1f MB\n", untraced.layers().at("process.peak_rss_mb"));
  if (opts.trace) {
    listed = print_metrics("traced", traced.e2e(), kEndToEnd) && listed;
    listed = print_metrics("layer", traced.layers(), kPerLayer) && listed;
  }
  if (!listed) return 1;

  // The result line: every listed metric, 0 for a layer the workload does
  // not exercise.
  const Report& source = opts.trace ? traced : untraced;
  bool correct = untraced.failed() == 0 && traced.failed() == 0;
  std::string metrics;
  const auto add = [&](const MetricDef& def, const std::map<std::string, double>& values) {
    const auto it = values.find(def.name);
    double value = it == values.end() ? 0 : it->second;
    if (!std::isfinite(value)) {
      correct = false;
      value = 0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(def.name) + "\": {\"value\": " + number(value) +
               ", \"unit\": \"" + def.unit + "\"}";
  };
  if (opts.trace) {
    for (const MetricDef& def : kPerLayer) add(def, source.layers());
  } else {
    for (const MetricDef& def : kEndToEnd) add(def, source.e2e());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(untraced.attempted() + traced.attempted()),
              static_cast<unsigned long long>(untraced.failed() + traced.failed()),
              metrics.c_str());
  return 0;
}
