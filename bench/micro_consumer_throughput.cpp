// Consumer drain throughput: offline (produce everything, then one
// drain_merged pass) vs live (a concurrent consumer daemon draining while
// producers push). The live path adds the batched-pop merge machinery and
// real thread contention; the acceptance bar is live >= offline within 10%
// on records/sec. Also isolates the pop-side batching win (try_pop_batch vs
// one-at-a-time try_pop).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "tracebuf/channel_set.hpp"
#include "tracebuf/consumer.hpp"

namespace {

using namespace osn;

constexpr std::size_t kCpus = 4;
constexpr std::uint64_t kPerCpu = 200'000;

tracebuf::EventRecord rec(TimeNs ts, std::uint16_t cpu, std::uint64_t arg) {
  tracebuf::EventRecord r;
  r.timestamp = ts;
  r.cpu = cpu;
  r.arg = arg;
  return r;
}

void fill_channels(tracebuf::ChannelSet& cs) {
  for (std::uint64_t i = 0; i < kPerCpu; ++i)
    for (std::uint16_t cpu = 0; cpu < kCpus; ++cpu)
      cs.emit(cpu, rec(i, cpu, i));
}

// Baseline: buffers already full, one offline k-way merge over everything.
void BM_DrainOffline(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    tracebuf::ChannelSet cs(kCpus, 1u << 18);
    fill_channels(cs);
    state.ResumeTiming();
    benchmark::DoNotOptimize(cs.drain_merged());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCpus * kPerCpu));
}
BENCHMARK(BM_DrainOffline)->Unit(benchmark::kMillisecond);

// Inline consumer drain over pre-filled buffers: same input as the offline
// baseline, but through the batched-pop incremental merge.
void BM_DrainConsumerInline(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    tracebuf::ChannelSet cs(kCpus, 1u << 18);
    fill_channels(cs);
    state.ResumeTiming();
    std::uint64_t sink = 0;
    tracebuf::Consumer consumer(
        cs, [&](const tracebuf::EventRecord& r) { sink += r.arg; },
        tracebuf::Consumer::Options{batch});
    consumer.stop();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCpus * kPerCpu));
}
BENCHMARK(BM_DrainConsumerInline)->Arg(1)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// The real pipeline: one producer thread per channel pushing concurrently
// with the consumer daemon; timing covers first push to last merged emit.
// The work runs on the producer and consumer threads, so rates are
// wall-clock (UseRealTime), not divided by this thread's CPU time.
void BM_DrainLive(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    tracebuf::ChannelSet cs(kCpus, 1u << 18);
    state.ResumeTiming();

    std::uint64_t sink = 0;
    tracebuf::Consumer consumer(
        cs, [&](const tracebuf::EventRecord& r) { sink += r.arg; },
        tracebuf::Consumer::Options{batch});
    consumer.start();
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    for (std::uint16_t cpu = 0; cpu < kCpus; ++cpu) {
      producers.emplace_back([&, cpu] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::uint64_t i = 0; i < kPerCpu; ++i) {
          while (!cs.emit(cpu, rec(i, cpu, i))) std::this_thread::yield();
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : producers) t.join();
    consumer.stop();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCpus * kPerCpu));
}
BENCHMARK(BM_DrainLive)->Arg(64)->Arg(256)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
