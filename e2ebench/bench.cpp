#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "stats/percentile.hpp"

namespace osnbench {

std::size_t Spans::begin(const char* name, std::size_t parent, std::uint64_t request) {
  if (!enabled_) return kNoParent;
  const TimeNs start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, start, parent, request});
  return spans_.size() - 1;
}

void Spans::finish(std::size_t id) {
  if (!enabled_ || id == kNoParent) return;
  const TimeNs end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end = end;
}

std::size_t Spans::add(std::string name, TimeNs start, TimeNs end, std::size_t parent,
                       std::uint64_t request) {
  if (!enabled_) return kNoParent;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), start, end, parent, request});
  return spans_.size() - 1;
}

std::vector<Spans::Span> Spans::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<DurNs> Spans::self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent < spans.size()) children[spans[i].parent].push_back(i);

  std::vector<DurNs> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<TimeNs, TimeNs>> cover;
    for (const std::size_t c : children[i]) {
      const TimeNs a = std::max(spans[c].start, s.start);
      const TimeNs b = std::min(spans[c].end, s.end);
      if (a < b) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    DurNs covered = 0;
    TimeNs reach = s.start;
    for (const auto& [a, b] : cover) {
      const TimeNs from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[i] = s.end - s.start - covered;
  }
  return self;
}

bool Spans::write_jsonl(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<DurNs> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"request\":%llu,\"self_ns\":%llu}\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

void Report::op(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  // Keep the log bounded on a run where everything fails.
  if (failures_.size() < 20) failures_.push_back(what);
}

double quantile(std::vector<double> values, double q) {
  return values.empty() ? 0 : osn::stats::exact_quantile(std::move(values), q);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

}  // namespace osnbench
