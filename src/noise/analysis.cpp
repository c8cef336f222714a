#include "noise/analysis.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "trace/event_source.hpp"

namespace osn::noise {

namespace {

/// Chunk count for sharding a list across the pool: enough chunks that the
/// pool stays busy, capped so tiny inputs stay in one piece.
std::size_t chunk_count(std::size_t n, const ThreadPool* pool) {
  if (pool == nullptr || n < 2) return 1;
  return std::min<std::size_t>(pool->worker_count() + 1, n);
}

}  // namespace

EventStats ActivityAccum::to_stats(DurNs duration, std::uint16_t n_cpus) const {
  EventStats out;
  out.count = count;
  const double duration_sec =
      static_cast<double>(duration) / static_cast<double>(kNsPerSec);
  if (duration_sec > 0 && n_cpus > 0)
    out.freq_ev_per_sec =
        static_cast<double>(count) / duration_sec / static_cast<double>(n_cpus);
  if (count > 0) {
    out.avg_ns = static_cast<double>(sum_ns) / static_cast<double>(count);
    out.max_ns = max_ns;
    out.min_ns = min_ns;
  }
  return out;
}

NoiseAnalysis::NoiseAnalysis(const trace::TraceModel& model, AnalysisOptions options)
    : model_(&model), options_(options) {
  const std::size_t jobs = ThreadPool::resolve_jobs(options_.jobs);
  if (jobs > 1) pool_ = std::make_unique<ThreadPool>(jobs);
  run_pipeline();
}

NoiseAnalysis::NoiseAnalysis(trace::EventSource& source, AnalysisOptions options)
    : options_(options) {
  const std::size_t jobs = ThreadPool::resolve_jobs(options_.jobs);
  if (jobs > 1) pool_ = std::make_unique<ThreadPool>(jobs);
  // The decode shares the analysis pool: a chunk-indexed file feeds the
  // sharded pipeline without a serial ingestion bottleneck.
  owned_model_ = std::make_unique<trace::TraceModel>(source.to_model(pool_.get()));
  model_ = owned_model_.get();
  run_pipeline();
}

void NoiseAnalysis::run_pipeline() {
  intervals_ = build_intervals(*model_, pool_.get(), options_.cpu_subset);
  for (const CommWindow& w : intervals_.comm) comm_by_task_[w.task].push_back(w);
  for (auto& [pid, windows] : comm_by_task_)
    std::sort(windows.begin(), windows.end(),
              [](const CommWindow& a, const CommWindow& b) { return a.start < b.start; });
  build_noise_list();
  build_kind_stats();
}

bool NoiseAnalysis::in_comm_window(Pid task, TimeNs t) const {
  auto it = comm_by_task_.find(task);
  if (it == comm_by_task_.end()) return false;
  const auto& windows = it->second;
  // First window starting after t, then check its predecessor.
  auto upper = std::upper_bound(windows.begin(), windows.end(), t,
                                [](TimeNs v, const CommWindow& w) { return v < w.start; });
  if (upper == windows.begin()) return false;
  --upper;
  return t < upper->end;
}

void NoiseAnalysis::build_noise_list() {
  noise_.clear();
  auto qualifies = [&](const Interval& iv) {
    const NoiseCategory cat = categorize(iv.kind);
    if (cat == NoiseCategory::kRequestedService && !options_.include_requested_service)
      return false;
    if (options_.runnable_filter) {
      if (!model_->is_app(iv.task)) return false;
      if (in_comm_window(iv.task, iv.start)) return false;
    }
    return true;
  };

  // Classify the kernel list in order-preserving chunks: each chunk filters
  // independently (categorize + runnable filter are pure reads), and
  // concatenation in chunk order reproduces the serial filter exactly.
  const std::vector<Interval>& kernel = intervals_.kernel;
  const std::size_t chunks = chunk_count(kernel.size(), pool_.get());
  std::vector<std::vector<Interval>> kept(chunks);
  auto filter_chunk = [&](std::size_t c) {
    const std::size_t begin = c * kernel.size() / chunks;
    const std::size_t end = (c + 1) * kernel.size() / chunks;
    for (std::size_t i = begin; i < end; ++i)
      if (qualifies(kernel[i])) kept[c].push_back(kernel[i]);
  };
  if (chunks > 1) {
    pool_->parallel_for(chunks, filter_chunk);
  } else if (chunks == 1) {
    filter_chunk(0);
  }

  std::vector<Interval> kernel_noise;
  kernel_noise.reserve(kernel.size());
  for (auto& chunk : kept)
    kernel_noise.insert(kernel_noise.end(), chunk.begin(), chunk.end());

  std::vector<Interval> preempt_noise;
  for (const Interval& iv : intervals_.preemption)
    if (qualifies(iv)) preempt_noise.push_back(iv);

  // Both inputs are ordered by interval_before (filtering preserves order),
  // so a single merge yields the deterministic combined list.
  noise_.reserve(kernel_noise.size() + preempt_noise.size());
  std::merge(kernel_noise.begin(), kernel_noise.end(), preempt_noise.begin(),
             preempt_noise.end(), std::back_inserter(noise_), interval_before);
}

void NoiseAnalysis::build_kind_stats() {
  // One pass over the kernel list, sharded into chunks of per-kind exact
  // accumulators; the reduce is integer-exact, so the result does not depend
  // on the chunking (byte-identical across --jobs settings).
  const std::vector<Interval>& kernel = intervals_.kernel;
  const std::size_t chunks = chunk_count(kernel.size(), pool_.get());
  std::vector<ActivityAccumArray> partials(chunks);
  auto accumulate_chunk = [&](std::size_t c) {
    const std::size_t begin = c * kernel.size() / chunks;
    const std::size_t end = (c + 1) * kernel.size() / chunks;
    for (std::size_t i = begin; i < end; ++i)
      partials[c][static_cast<std::size_t>(kernel[i].kind)].add(charged(kernel[i]));
  };
  if (chunks > 1) {
    pool_->parallel_for(chunks, accumulate_chunk);
  } else if (chunks == 1) {
    accumulate_chunk(0);
  }

  kind_accums_ = ActivityAccumArray{};
  for (const ActivityAccumArray& partial : partials)
    for (std::size_t k = 0; k < kind_accums_.size(); ++k)
      kind_accums_[k].merge(partial[k]);

  // Derived preemption intervals live outside the kernel list; the tables
  // report them under their own activity row.
  for (const Interval& iv : intervals_.preemption)
    kind_accums_[static_cast<std::size_t>(ActivityKind::kPreemption)].add(charged(iv));
}

EventStats NoiseAnalysis::activity_stats(ActivityKind kind) const {
  return kind_accums_[static_cast<std::size_t>(kind)].to_stats(model_->duration(),
                                                               model_->cpu_count());
}

std::vector<double> NoiseAnalysis::noise_durations(ActivityKind kind) const {
  std::vector<double> out;
  for (const Interval& iv : noise_)
    if (iv.kind == kind) out.push_back(static_cast<double>(charged(iv)));
  return out;
}

std::array<DurNs, static_cast<std::size_t>(NoiseCategory::kMaxCategory)>
NoiseAnalysis::category_breakdown(Pid task) const {
  std::array<DurNs, static_cast<std::size_t>(NoiseCategory::kMaxCategory)> out{};
  for (const Interval& iv : noise_) {
    if (iv.task != task) continue;
    out[static_cast<std::size_t>(categorize(iv.kind))] += charged(iv);
  }
  return out;
}

std::array<DurNs, static_cast<std::size_t>(NoiseCategory::kMaxCategory)>
NoiseAnalysis::category_breakdown_all() const {
  std::array<DurNs, static_cast<std::size_t>(NoiseCategory::kMaxCategory)> out{};
  for (const Interval& iv : noise_) {
    if (!model_->is_app(iv.task)) continue;
    out[static_cast<std::size_t>(categorize(iv.kind))] += charged(iv);
  }
  return out;
}

DurNs NoiseAnalysis::total_noise(Pid task) const {
  const auto breakdown = category_breakdown(task);
  DurNs total = 0;
  for (std::size_t c = 0; c < breakdown.size(); ++c) {
    if (c == static_cast<std::size_t>(NoiseCategory::kRequestedService)) continue;
    total += breakdown[c];
  }
  return total;
}

}  // namespace osn::noise
