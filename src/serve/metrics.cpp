#include "serve/metrics.hpp"

#include "serve/protocol.hpp"

namespace osn::serve {

namespace {

void append_kv(std::string& out, const char* key, std::uint64_t value, bool comma = true) {
  out += "    \"";
  out += key;
  out += "\": ";
  out += std::to_string(value);
  out += comma ? ",\n" : "\n";
}

void append_cache(std::string& out, const char* key, const CacheStats& s, bool comma) {
  out += "  \"";
  out += key;
  out += "\": {\n";
  append_kv(out, "hits", s.hits);
  append_kv(out, "misses", s.misses);
  append_kv(out, "insertions", s.insertions);
  append_kv(out, "evictions", s.evictions);
  append_kv(out, "oversize", s.oversize);
  append_kv(out, "entries", s.entries);
  append_kv(out, "bytes", s.bytes, /*comma=*/false);
  out += comma ? "  },\n" : "  }\n";
}

}  // namespace

std::string ServerMetrics::to_json(const CacheStats& results,
                                   const CacheStats& models,
                                   const NetGauges* net) const {
  std::uint64_t total = 0;
  DurNs p50 = 0, p90 = 0, p99 = 0;
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    total = latency_.total();
    if (total > 0) {
      p50 = latency_.quantile(0.50);
      p90 = latency_.quantile(0.90);
      p99 = latency_.quantile(0.99);
    }
  }

  std::string out = "{\n";
  out += "  \"requests\": ";
  out += std::to_string(requests_.load(std::memory_order_relaxed));
  out += ",\n";
  out += "  \"per_op\": {\n";
  // kPing is the last enumerator; every op slot gets a key.
  constexpr std::size_t n_ops = static_cast<std::size_t>(Op::kPing) + 1;
  for (std::size_t i = 0; i < n_ops; ++i) {
    out += "    \"";
    out += op_name(static_cast<Op>(i));
    out += "\": ";
    out += std::to_string(per_op_[i].load(std::memory_order_relaxed));
    out += i + 1 < n_ops ? ",\n" : "\n";
  }
  out += "  },\n";
  out += "  \"ok\": ";
  out += std::to_string(ok_.load(std::memory_order_relaxed));
  out += ",\n";
  out += "  \"errors\": ";
  out += std::to_string(errors_.load(std::memory_order_relaxed));
  out += ",\n";
  out += "  \"shed\": ";
  out += std::to_string(shed_.load(std::memory_order_relaxed));
  out += ",\n";
  out += "  \"deadline_exceeded\": ";
  out += std::to_string(deadline_exceeded_.load(std::memory_order_relaxed));
  out += ",\n";
  out += "  \"bad_lines\": ";
  out += std::to_string(bad_lines_.load(std::memory_order_relaxed));
  out += ",\n";
  out += "  \"connections\": ";
  out += std::to_string(connections_.load(std::memory_order_relaxed));
  out += ",\n";
  out += "  \"latency\": {\n";
  append_kv(out, "samples", total);
  append_kv(out, "p50_ns", p50);
  append_kv(out, "p90_ns", p90);
  append_kv(out, "p99_ns", p99, /*comma=*/false);
  out += "  },\n";
  append_cache(out, "result_cache", results, /*comma=*/true);
  append_cache(out, "model_cache", models, /*comma=*/net != nullptr);
  if (net != nullptr) {
    out += "  \"net\": {\n";
    // A schema key clients read; epoll is the only readiness backend.
    out += "    \"backend\": \"epoll\",\n";
    append_kv(out, "accepted", net->accepted);
    append_kv(out, "open", net->open);
    append_kv(out, "idle", net->idle);
    append_kv(out, "dispatched", net->dispatched);
    append_kv(out, "draining", net->draining);
    append_kv(out, "requests_json", net->requests_json);
    append_kv(out, "requests_osnb", net->requests_osnb);
    append_kv(out, "write_queue_hwm", net->write_queue_hwm);
    append_kv(out, "slow_reader_closes", net->slow_reader_closes);
    append_kv(out, "idle_timeouts", net->idle_timeouts);
    append_kv(out, "codec_errors", net->codec_errors, /*comma=*/false);
    out += "  }\n";
  }
  out += "}\n";
  return out;
}

}  // namespace osn::serve
