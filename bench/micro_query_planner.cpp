// Query-planner cost model: the same documents the serve and CLI front ends
// emit, measured through src/query's Engine so regressions in plan overhead,
// pushdown, or cache policy show up as wall-clock.
//
//  * Fast path: a full-trace summary is answered from the index-resident
//    pre-aggregates — O(index) bytes, no record decode.
//  * Pushdown: a 10% window decodes only the chunks the index selects.
//  * Result cache: a repeated identical plan is one fingerprint lookup.
//  * Model cache: re-charting at a new quantum reuses the decoded model,
//    paying only the per-quantum aggregation.
//  * New aggregates: timeseries and topk, cold, end to end.
//
// OSN_BENCH_SMOKE=1 shrinks the synthetic input so the ctest smoke run
// finishes in seconds.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "noise/index_aggregate.hpp"
#include "query/engine.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace osn;

bool smoke_run() {
  const char* v = std::getenv("OSN_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

constexpr std::uint16_t kCpus = 8;

std::uint64_t bench_steps() {
  // records = steps * kCpus * 2 (~1.6M full, ~48K smoke)
  return smoke_run() ? 3'000 : 100'000;
}

trace::TraceMeta bench_meta() {
  trace::TraceMeta meta;
  meta.n_cpus = kCpus;
  meta.tick_period_ns = 10 * kNsPerMs;
  meta.workload = "micro_query";
  meta.start_ns = 0;
  meta.end_ns = bench_steps() * 1'000 + 1;
  return meta;
}

/// Analyzable v3 stream with pre-aggregates: balanced timer irq / timer
/// softirq pairs on application ranks, one pair per cpu per microsecond.
const std::string& bench_file() {
  static std::string path;
  if (!path.empty()) return path;
  path = "/tmp/osn_micro_query.osnt";
  trace::OsntStreamWriter writer(path, 8192);
  writer.set_aggregator(std::make_unique<noise::IndexAggregator>());
  for (std::uint64_t step = 0; step < bench_steps(); ++step) {
    // Entries (at most +77 ns) precede exits (+300 ns): (timestamp, cpu) order.
    for (const DurNs offset : {DurNs{0}, DurNs{300}}) {
      for (std::uint16_t cpu = 0; cpu < kCpus; ++cpu) {
        const TimeNs base = step * 1'000 + cpu * 11;
        const Pid pid = static_cast<Pid>(1 + cpu);
        const auto entry = step % 3 == 0 ? trace::EventType::kIrqEntry
                                         : trace::EventType::kSoftirqEntry;
        const std::uint64_t arg =
            entry == trace::EventType::kIrqEntry
                ? static_cast<std::uint64_t>(trace::IrqVector::kTimer)
                : static_cast<std::uint64_t>(trace::SoftirqNr::kTimer);
        const auto type = offset == 0 ? entry : trace::exit_of(entry);
        writer.append(trace::make_record(base + offset, cpu, pid, type, arg));
      }
    }
  }
  std::map<Pid, trace::TaskInfo> tasks;
  for (std::uint16_t cpu = 0; cpu < kCpus; ++cpu) {
    trace::TaskInfo info;
    info.pid = static_cast<Pid>(1 + cpu);
    info.name = "rank" + std::to_string(cpu);
    info.is_app = true;
    tasks[info.pid] = info;
  }
  writer.finish(bench_meta(), tasks);
  return path;
}

std::int64_t records() {
  return static_cast<std::int64_t>(bench_steps() * kCpus * 2);
}

void BM_PlanSummaryFastPath(benchmark::State& state) {
  const std::string& path = bench_file();
  for (auto _ : state) {
    trace::OsntReader reader(path);
    query::Engine engine;
    benchmark::DoNotOptimize(engine.run(reader, "", query::Plan{}));
  }
  state.SetItemsProcessed(state.iterations() * records());
}
BENCHMARK(BM_PlanSummaryFastPath)->Unit(benchmark::kMicrosecond);

void BM_PlanWindowSummary10Pct(benchmark::State& state) {
  const std::string& path = bench_file();
  const TimeNs end = bench_meta().end_ns;
  query::Plan plan;
  plan.t0 = end / 2;
  plan.t1 = end / 2 + end / 10;
  for (auto _ : state) {
    trace::OsntReader reader(path);
    query::Engine engine;
    benchmark::DoNotOptimize(engine.run(reader, "", plan));
  }
  state.SetItemsProcessed(state.iterations() * records() / 10);
}
BENCHMARK(BM_PlanWindowSummary10Pct)->Unit(benchmark::kMillisecond);

void BM_PlanResultCacheHit(benchmark::State& state) {
  const std::string& path = bench_file();
  trace::OsntReader reader(path);
  query::Engine engine;
  query::Plan plan;
  plan.t0 = 0;
  plan.t1 = bench_meta().end_ns / 10;
  engine.run(reader, "bench", plan);  // prime
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.run(reader, "bench", plan));
}
BENCHMARK(BM_PlanResultCacheHit);

void BM_PlanChartModelCacheReuse(benchmark::State& state) {
  const std::string& path = bench_file();
  trace::OsntReader reader(path);
  // A 1-byte result budget forces every document out of the result cache, so
  // each iteration re-aggregates the chart from the cached decoded model:
  // this isolates the model-reuse saving from result memoization.
  query::Engine engine(query::EngineOptions{/*result_cache_bytes=*/1,
                                            /*model_cache_bytes=*/512u << 20});
  query::Plan plan;
  plan.aggregate = query::Aggregate::kChart;
  plan.t0 = 0;
  plan.t1 = bench_meta().end_ns / 10;
  std::uint64_t i = 0;
  engine.run(reader, "bench", plan);  // prime the model cache
  for (auto _ : state) {
    plan.quantum = (100 + (++i % 16)) * kNsPerUs;
    benchmark::DoNotOptimize(engine.run(reader, "bench", plan));
  }
  state.SetItemsProcessed(state.iterations() * records() / 10);
}
BENCHMARK(BM_PlanChartModelCacheReuse)->Unit(benchmark::kMicrosecond);

void BM_PlanTimeseries(benchmark::State& state) {
  const std::string& path = bench_file();
  query::Plan plan;
  plan.aggregate = query::Aggregate::kTimeseries;
  plan.activity = noise::ActivityKind::kTimerIrq;
  plan.quantum = 100 * kNsPerUs;
  for (auto _ : state) {
    trace::OsntReader reader(path);
    query::Engine engine;
    benchmark::DoNotOptimize(engine.run(reader, "", plan));
  }
  state.SetItemsProcessed(state.iterations() * records());
}
BENCHMARK(BM_PlanTimeseries)->Unit(benchmark::kMillisecond);

void BM_PlanTopK(benchmark::State& state) {
  const std::string& path = bench_file();
  query::Plan plan;
  plan.aggregate = query::Aggregate::kTopK;
  plan.k = 3;
  for (auto _ : state) {
    trace::OsntReader reader(path);
    query::Engine engine;
    benchmark::DoNotOptimize(engine.run(reader, "", plan));
  }
  state.SetItemsProcessed(state.iterations() * records());
}
BENCHMARK(BM_PlanTopK)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
