// Write-time builder of the OSNT v3 index-resident pre-aggregates.
//
// IndexAggregator is the noise layer's trace::ChunkAggregator: it drives the
// same IntervalBuilder as the offline analyzer (interval.hpp) while
// OsntStreamWriter appends records. At each chunk flush it emits exact
// integer accumulators for the intervals that CLOSED in that chunk;
// finish() adds a tail blob for intervals only closed by end-of-trace. The
// exporter's index-only summary (index_summary.hpp) merges these blobs into
// output byte-identical to record decode under the default AnalysisOptions —
// the contract tests/test_index_summary.cpp keeps binding.
//
// Intervals land in the chunk where they close, so whole-file merges are
// exact but partial-chunk windows are not: readers take the index-only path
// only for full-span queries. The task table is unknown until finish(), so
// preemption and noise accumulators are kept per task and the reader sums
// the application subset.
//
// A malformed stream never aborts: the builder's first IntervalAnomaly stops
// accumulation and take_tail() vetoes the block — the file is still written,
// and record decode reports the same anomaly. Exactness assumes per-CPU
// monotone timestamps (the stream writer's append contract).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "common/types.hpp"
#include "noise/classify.hpp"
#include "noise/interval.hpp"
#include "trace/chunk_aggregate.hpp"

namespace osn::noise {

class IndexAggregator final : public trace::ChunkAggregator {
 public:
  /// Live-noise observer: fired as each noise-qualifying interval closes —
  /// kernel intervals outside comm windows (their category and charged self
  /// time) and comm-excluded preemptions (category kPreemption). The monitor
  /// daemon's baseline/alert pipeline taps this; take_tail()'s end-of-trace
  /// closes do NOT fire it (they are bookkeeping for the stored aggregates,
  /// not events the live stream observed).
  using NoiseObserver =
      std::function<void(Pid task, NoiseCategory cat, TimeNs end_ts, DurNs charged)>;

  void on_record(const tracebuf::EventRecord& rec) override;
  trace::ChunkAggregate take_chunk() override;
  std::optional<trace::ChunkAggregate> take_tail(const trace::TraceMeta& meta) override;

  void set_observer(NoiseObserver observer) { observer_ = std::move(observer); }

  /// Set once the stream violated the analyzer's model (take_tail() then
  /// vetoes); an entry still open at take_tail() is reported here too.
  const std::optional<IntervalAnomaly>& anomaly() const { return builder_.anomaly(); }

  /// External veto: take_tail() will return nullopt even though the stream
  /// itself is well-formed. The segment store poisons aggregators of
  /// segments cut at non-quiescent boundaries — their per-segment totals
  /// would be self-consistent but would NOT merge to the uncut trace's, and
  /// absence of the block is how downstream merge paths learn to fall back.
  /// Unlike an anomaly, poisoning does not stop accumulation, so rotation
  /// gating via quiescent() keeps working.
  void poison() { poisoned_ = true; }

  /// No kernel interval open on any CPU. Weaker than quiescent(): a
  /// preempted or in-comm task may still span this point.
  bool stacks_empty() const { return builder_.open_frames() == 0; }

  /// The stream is at an interval-free point: every kernel stack empty, no
  /// task preempted or inside a communication window, and the stream still
  /// well-formed. Cutting a segment here makes the per-segment aggregates
  /// merge exactly to the uncut trace's — the rotation gate of the segment
  /// store.
  bool quiescent() const { return builder_.quiescent(); }

 private:
  void add_kernel(const Interval& iv, bool in_comm);
  void add_preemption(const Interval& iv, bool in_comm, bool notify);

  IntervalBuilder builder_;
  bool poisoned_ = false;
  NoiseObserver observer_;

  /// Accumulators of the chunk in progress, keyed so drained lists come out
  /// sorted.
  std::map<std::uint64_t, trace::ChunkAggregate::ClassAccum> classes_;
  std::map<Pid, trace::ChunkAggregate::PreAccum> preempt_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, trace::ChunkAggregate::NoiseAccum>
      noise_;  ///< keyed by (task, category)
  std::map<std::uint64_t, trace::ChunkAggregate::CpuCount> cpu_events_;
};

}  // namespace osn::noise
