#include "serve/query.hpp"

#include <exception>
#include <utility>

#include "export/json.hpp"
#include "noise/interval.hpp"

namespace osn::serve {

namespace {

void append_field(std::string& out, const char* key, const std::string& value,
                  bool comma = true) {
  out += "      \"";
  out += key;
  out += "\": \"";
  out += exporter::json_escape(value);
  out += comma ? "\",\n" : "\"\n";
}

void append_field(std::string& out, const char* key, std::uint64_t value,
                  bool comma = true) {
  out += "      \"";
  out += key;
  out += "\": ";
  out += std::to_string(value);
  out += comma ? ",\n" : "\n";
}

std::string list_payload(const QueryContext& ctx) {
  ctx.catalog->refresh();
  const std::vector<TraceEntry> entries = ctx.catalog->list();
  std::string out = "{\n  \"dir\": \"";
  out += exporter::json_escape(ctx.catalog->dir());
  out += "\",\n  \"traces\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TraceEntry& e = entries[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n";
    append_field(out, "name", e.name);
    out += "      \"usable\": ";
    out += e.usable() ? "true" : "false";
    out += ",\n";
    if (!e.usable()) {
      append_field(out, "error", e.error);
    } else {
      append_field(out, "version", e.version);
      out += "      \"truncated\": ";
      out += e.truncated ? "true" : "false";
      out += ",\n";
      append_field(out, "records", e.records);
      append_field(out, "chunks", e.chunks);
      append_field(out, "workload", e.workload);
      append_field(out, "duration_ns", sat_sub(e.end_ns, e.start_ns));
      append_field(out, "n_cpus", e.n_cpus);
    }
    append_field(out, "bytes", e.size, /*comma=*/false);
    out += "    }";
  }
  out += entries.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string info_payload(const Lease& lease) {
  const trace::OsntReader& reader = *lease.reader;
  const trace::TraceMeta& meta = reader.meta();
  std::string out = "{\n";
  out += "  \"name\": \"";
  out += exporter::json_escape(lease.entry.name);
  out += "\",\n  \"version\": ";
  out += std::to_string(reader.version());
  out += ",\n  \"truncated\": ";
  out += reader.truncated() ? "true" : "false";
  out += ",\n  \"index_recovered\": ";
  out += reader.index_recovered() ? "true" : "false";
  out += ",\n  \"chunks\": ";
  out += std::to_string(reader.chunks().size());
  out += ",\n  \"indexed_records\": ";
  out += std::to_string(reader.indexed_records());
  out += ",\n  \"workload\": \"";
  out += exporter::json_escape(meta.workload);
  out += "\",\n  \"start_ns\": ";
  out += std::to_string(meta.start_ns);
  out += ",\n  \"end_ns\": ";
  out += std::to_string(meta.end_ns);
  out += ",\n  \"duration_ns\": ";
  out += std::to_string(sat_sub(meta.end_ns, meta.start_ns));
  out += ",\n  \"n_cpus\": ";
  out += std::to_string(meta.n_cpus);
  out += ",\n  \"tick_period_ns\": ";
  out += std::to_string(meta.tick_period_ns);
  out += ",\n  \"tasks\": [";
  std::size_t i = 0;
  for (const auto& [pid, info] : reader.tasks()) {
    out += i++ == 0 ? "\n" : ",\n";
    out += "    {\n";
    append_field(out, "pid", pid);
    append_field(out, "name", info.name);
    append_field(out, "kind",
                 info.is_app ? "application" : (info.is_kernel_thread ? "kthread" : "user"),
                 /*comma=*/false);
    out += "    }";
  }
  out += reader.tasks().empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

/// Thrown by the engine checkpoint when the request deadline expires
/// mid-execution; caught in execute_query and turned into the response.
/// Not a std::exception on purpose — it must never be swallowed by the
/// generic internal-error handler.
struct DeadlineError {
  const char* stage;
};

Response deadline_failure(const QueryContext& ctx, const Request& req,
                          const char* stage) {
  ctx.metrics->count_deadline_exceeded();
  return Response::failure(req.id, errc::kDeadlineExceeded,
                           std::string("deadline exceeded ") + stage);
}

Response run_query(const QueryContext& ctx, const Request& req, Deadline deadline) {
  // Uncached control-plane ops first.
  if (req.op == Op::kPing) {
    const Deadline stall_end = Deadline::after(req.stall);
    while (!stall_end.expired()) {
      if (deadline.expired()) return deadline_failure(ctx, req, "during stall");
      if (ctx.draining != nullptr && ctx.draining->load(std::memory_order_acquire))
        break;  // drain cuts the stall short; the response still completes
      stall_end.min(deadline).sleep_remaining(10 * kNsPerMs);
    }
    return Response::success(req.id, "{\n  \"pong\": true\n}\n");
  }
  if (req.op == Op::kMetrics) {
    NetGauges gauges;
    const NetGauges* net = nullptr;
    if (ctx.net_gauges) {
      gauges = ctx.net_gauges();
      net = &gauges;
    }
    return Response::success(
        req.id, ctx.metrics->to_json(ctx.engine->result_cache_stats(),
                                     ctx.engine->model_cache_stats(), net));
  }
  if (req.op == Op::kList) return Response::success(req.id, list_payload(ctx));
  if (req.op == Op::kRefresh) {
    // The explicit rescan op: `list` refreshes too, but a monitor client
    // wants "notice new segments" without paying for the full listing.
    ctx.catalog->refresh();
    return Response::success(req.id, "{\n  \"refreshed\": true,\n  \"traces\": " +
                                         std::to_string(ctx.catalog->list().size()) +
                                         "\n}\n");
  }
  if (req.op == Op::kAlerts || req.op == Op::kMonitorStatus) {
    const auto& provider =
        req.op == Op::kAlerts ? ctx.monitor_alerts : ctx.monitor_status;
    if (!provider)
      return Response::failure(req.id, errc::kBadRequest, "no monitor attached");
    return Response::success(req.id, provider());
  }

  // Ops that address one trace: lease it first.
  if (deadline.expired()) return deadline_failure(ctx, req, "before lease");
  Lease lease = ctx.catalog->open(req.trace);
  if (!lease.reader) {
    const bool unknown = lease.error.rfind("unknown trace", 0) == 0;
    return Response::failure(req.id, unknown ? errc::kUnknownTrace : errc::kTraceError,
                             lease.error);
  }
  if (req.op == Op::kInfo) return Response::success(req.id, info_payload(lease));

  // Data-plane ops run through the shared engine: it owns the result and
  // model caches, the index-only fast path, and the chunk pushdown. The
  // checkpoint turns engine stage boundaries into deadline enforcement.
  const query::Plan plan = plan_from_request(req);
  std::string payload = ctx.engine->run(
      *lease.reader, lease.entry.id(), plan, /*pool=*/nullptr,
      [&deadline](const char* stage) {
        if (deadline.expired()) throw DeadlineError{stage};
      });
  return Response::success(req.id, std::move(payload));
}

}  // namespace

query::Plan plan_from_request(const Request& req) {
  using query::PlanError;
  query::Plan plan;
  // parse_request bounds quantum_us, but plan_from_request is also reachable
  // with an in-process Request; keep the product guarded here so no caller
  // can wrap the quantum to 0 and SIGFPE the bucket division.
  const auto quantum_ns = [&req]() -> DurNs {
    if (req.quantum_us == 0 || req.quantum_us > kTimeInfinity / kNsPerUs)
      throw PlanError(PlanError::Kind::kBadPlan, "quantum_us out of range");
    return req.quantum_us * kNsPerUs;
  };
  const auto apply_window = [&req, &plan]() {
    if (!query::window_from_ms(plan, req.window_from_ms, req.window_to_ms))
      throw PlanError(PlanError::Kind::kBadPlan,
                      "window requires 0 <= from_ms < to_ms");
  };
  switch (req.op) {
    case Op::kSummary:
      break;
    case Op::kWindow:
      apply_window();
      break;
    case Op::kChart:
      plan.aggregate = query::Aggregate::kChart;
      plan.task = req.task;
      plan.quantum = quantum_ns();
      break;
    case Op::kTimeseries:
      plan.aggregate = query::Aggregate::kTimeseries;
      plan.quantum = quantum_ns();
      if (!req.activity.empty()) {
        const auto kind = noise::activity_from_name(req.activity);
        if (!kind.has_value())
          throw PlanError(PlanError::Kind::kBadPlan,
                          "unknown activity: " + req.activity);
        plan.activity = *kind;
      }
      if (req.has_window) apply_window();
      break;
    case Op::kTopK:
      plan.aggregate = query::Aggregate::kTopK;
      plan.k = static_cast<std::size_t>(req.k);
      if (req.has_window) apply_window();
      break;
    default:
      throw PlanError(PlanError::Kind::kBadPlan,
                      std::string(op_name(req.op)) + " has no query plan");
  }
  plan.cpu = req.cpu;
  return plan;
}

Response execute_query(const QueryContext& ctx, const Request& req, Deadline deadline) {
  ctx.metrics->count_request(static_cast<std::size_t>(req.op));
  Response resp;
  try {
    resp = run_query(ctx, req, deadline);
  } catch (const DeadlineError& e) {
    resp = deadline_failure(ctx, req, e.stage);
  } catch (const query::PlanError& e) {
    resp = Response::failure(req.id,
                             e.kind() == query::PlanError::Kind::kBadPlan
                                 ? errc::kBadRequest
                                 : errc::kTraceError,
                             e.what());
  } catch (const trace::TraceReadError& e) {
    resp = Response::failure(req.id, errc::kTraceError, e.what());
  } catch (const noise::AnalysisError& e) {
    resp = Response::failure(req.id, errc::kTraceError, e.what());
  } catch (const std::exception& e) {
    resp = Response::failure(req.id, errc::kInternal, e.what());
  }
  if (resp.ok) {
    ctx.metrics->count_ok();
  } else {
    ctx.metrics->count_error();
  }
  return resp;
}

}  // namespace osn::serve
