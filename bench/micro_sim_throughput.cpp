// Infrastructure micro-benchmarks: discrete-event engine, interval building
// and full analysis. Trace decode throughput lives in micro_trace_decode.
#include <benchmark/benchmark.h>

#include "noise/analysis.hpp"
#include "sim/engine.hpp"
#include "workloads/ftq.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace osn;

void BM_EngineScheduleFire(benchmark::State& state) {
  sim::Engine engine;
  for (auto _ : state) {
    engine.schedule_after(10, [] {});
    engine.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineScheduleFire);

void BM_EngineHotQueue(benchmark::State& state) {
  // 1024 pending events churning: the kernel simulator's steady state.
  sim::Engine engine;
  std::function<void()> rearm;
  std::size_t alive = 0;
  rearm = [&] {
    if (alive < 1024) {
      ++alive;
      engine.schedule_after(100, rearm);
    }
  };
  for (int i = 0; i < 1024; ++i) engine.schedule_after(static_cast<TimeNs>(i), rearm);
  for (auto _ : state) {
    engine.schedule_after(1, [] {});
    engine.run_until(engine.now() + 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineHotQueue);

const workloads::RunResult& cached_ftq_run() {
  static workloads::FtqParams params = [] {
    workloads::FtqParams p;
    p.n_quanta = 500;
    return p;
  }();
  static workloads::FtqWorkload ftq(params);
  static workloads::RunResult run = workloads::run_workload(ftq, 1);
  return run;
}

void BM_SimulateFtqSecond(benchmark::State& state) {
  for (auto _ : state) {
    workloads::FtqParams p;
    p.n_quanta = 100;  // 100 ms of simulated time per iteration
    workloads::FtqWorkload ftq(p);
    benchmark::DoNotOptimize(workloads::run_workload(ftq, 1).trace.total_events());
  }
  state.SetItemsProcessed(state.iterations() * 100);  // simulated ms
}
BENCHMARK(BM_SimulateFtqSecond)->Unit(benchmark::kMillisecond);

void BM_IntervalBuild(benchmark::State& state) {
  const auto& run = cached_ftq_run();
  for (auto _ : state)
    benchmark::DoNotOptimize(noise::build_intervals(run.trace).kernel.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(run.trace.total_events()));
}
BENCHMARK(BM_IntervalBuild)->Unit(benchmark::kMillisecond);

void BM_FullAnalysis(benchmark::State& state) {
  const auto& run = cached_ftq_run();
  for (auto _ : state) {
    noise::NoiseAnalysis analysis(run.trace);
    benchmark::DoNotOptimize(analysis.noise_intervals().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(run.trace.total_events()));
}
BENCHMARK(BM_FullAnalysis)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
