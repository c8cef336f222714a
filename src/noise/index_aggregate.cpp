#include "noise/index_aggregate.hpp"

namespace osn::noise {

void IndexAggregator::on_record(const tracebuf::EventRecord& rec) {
  if (builder_.anomaly()) return;
  auto& cpu = cpu_events_[rec.cpu];
  cpu = {rec.cpu, cpu.count + 1};
  switch (builder_.feed(rec)) {
    case IntervalBuilder::Step::kKernel:
      add_kernel(builder_.closed(), builder_.closed_in_comm());
      break;
    case IntervalBuilder::Step::kPreemption:
      add_preemption(builder_.closed(), builder_.closed_in_comm(), /*notify=*/true);
      break;
    default: break;
  }
}

void IndexAggregator::add_kernel(const Interval& iv, bool in_comm) {
  const auto cls = static_cast<std::uint64_t>(iv.kind);
  auto& klass = classes_[cls];
  klass.cls = cls;
  klass.acc.add(iv.self);
  const NoiseCategory cat = categorize(iv.kind);
  if (cat != NoiseCategory::kRequestedService && !in_comm) {
    auto& noise = noise_[{iv.task, static_cast<std::uint64_t>(cat)}];
    noise = {iv.task, static_cast<std::uint64_t>(cat), noise.count + 1, noise.sum + iv.self};
    if (observer_) observer_(iv.task, cat, iv.end, iv.self);
  }
}

void IndexAggregator::add_preemption(const Interval& iv, bool in_comm, bool notify) {
  auto& p = preempt_[iv.task];
  p.task = iv.task;
  p.acc.add(iv.inclusive);
  if (!in_comm) {
    ++p.cex_count;
    p.cex_sum += iv.inclusive;
    if (notify && observer_) observer_(iv.task, NoiseCategory::kPreemption, iv.end, iv.inclusive);
  }
}

namespace {

/// Moves a keyed accumulator map's values, in key order, into a drained list.
template <class Map, class Vec>
void drain_into(Map& from, Vec& to) {
  to.reserve(from.size());
  for (const auto& entry : from) to.push_back(entry.second);
  from.clear();
}

}  // namespace

trace::ChunkAggregate IndexAggregator::take_chunk() {
  // Open intervals carry over: an interval is attributed to the chunk where
  // it closes, which keeps whole-file merges exact.
  trace::ChunkAggregate out;
  drain_into(classes_, out.classes);
  drain_into(preempt_, out.preempt);
  drain_into(noise_, out.noise);
  drain_into(cpu_events_, out.cpu_events);
  return out;
}

std::optional<trace::ChunkAggregate> IndexAggregator::take_tail(const trace::TraceMeta& meta) {
  if (builder_.anomaly() || poisoned_) return std::nullopt;
  // A task still preempted when tracing stopped contributes the observed
  // portion, closed at the trace end like build_intervals does. These are
  // storage bookkeeping, not live observations — the observer stays silent.
  // An entry still open vetoes the block.
  builder_.finish(meta.end_ns, [this](IntervalBuilder::Step step) {
    if (step == IntervalBuilder::Step::kPreemption)
      add_preemption(builder_.closed(), builder_.closed_in_comm(), /*notify=*/false);
  });
  if (builder_.anomaly()) return std::nullopt;
  return take_chunk();
}

}  // namespace osn::noise
