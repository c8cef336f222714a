#include "noise/streaming.hpp"

#include "trace/event_source.hpp"

namespace osn::noise {

void StreamingStats::consume(trace::EventSource& source) {
  source.for_each([this](const tracebuf::EventRecord& rec) { consume(rec); });
  builder_.finish(source.meta().end_ns, [](IntervalBuilder::Step) {});
}

void StreamingStats::consume(const tracebuf::EventRecord& rec) {
  ++consumed_;
  if (builder_.feed(rec) == IntervalBuilder::Step::kKernel)
    accums_[static_cast<std::size_t>(builder_.closed().kind)].add(builder_.closed().self);
}

EventStats StreamingStats::activity_stats(ActivityKind kind, DurNs duration,
                                          std::uint16_t n_cpus) const {
  return to_stats(accums_[static_cast<std::size_t>(kind)], duration, n_cpus);
}

}  // namespace osn::noise
