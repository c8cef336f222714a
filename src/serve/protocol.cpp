#include "serve/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/varint.hpp"
#include "export/json.hpp"

namespace osn::serve {

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

namespace {

/// Recursive-descent reader over one request/response line. Depth-bounded;
/// every failure is a clean false return, never an exception or crash.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    return pos_ == text_.size();  // trailing garbage is a syntax error
  }

 private:
  static constexpr std::size_t kMaxDepth = 32;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\r' && c != '\n') break;
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (depth > kMaxDepth || pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case '[':
        return parse_array(out, depth);
      case '{':
        return parse_object(out, depth);
      default:
        return parse_number(out);
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return false;
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) return false;
    out.kind = JsonValue::Kind::kNumber;
    out.number = v;
    return true;
  }

  /// Appends a code point as UTF-8 (for \uXXXX escapes).
  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<std::uint32_t>(c - 'A' + 10);
      else return false;
    }
    return true;
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            std::uint32_t cp = 0;
            if (!parse_hex4(cp)) return false;
            // Surrogate pair: a high surrogate must be followed by \uDC00..
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                  text_[pos_ + 1] == 'u') {
                pos_ += 2;
                std::uint32_t lo = 0;
                if (!parse_hex4(lo) || lo < 0xDC00 || lo > 0xDFFF) return false;
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              } else {
                return false;
              }
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return false;  // lone low surrogate
            }
            append_utf8(out, cp);
            break;
          }
          default:
            return false;
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      out += c;
      ++pos_;
    }
    return false;  // unterminated
  }

  bool parse_array(JsonValue& out, std::size_t depth) {
    ++pos_;  // '['
    out.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue elem;
      skip_ws();
      if (!parse_value(elem, depth + 1)) return false;
      out.array.push_back(std::move(elem));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool parse_object(JsonValue& out, std::size_t depth) {
    ++pos_;  // '{'
    out.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return false;
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.object[std::move(key)] = std::move(value);
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// "1000" not "1000.0": integral protocol fields serialize as integers.
std::string number_to_json(double v) {
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::optional<JsonValue> parse_json(const std::string& text) {
  JsonValue out;
  if (!JsonReader(text).parse(out)) return std::nullopt;
  return out;
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

const char* op_name(Op op) {
  switch (op) {
    case Op::kList: return "list";
    case Op::kInfo: return "info";
    case Op::kSummary: return "summary";
    case Op::kChart: return "chart";
    case Op::kWindow: return "window";
    case Op::kTimeseries: return "timeseries";
    case Op::kTopK: return "topk";
    case Op::kRefresh: return "refresh";
    case Op::kAlerts: return "alerts";
    case Op::kMonitorStatus: return "monitor_status";
    case Op::kMetrics: return "metrics";
    case Op::kPing: return "ping";
  }
  return "?";
}

namespace {

std::optional<Op> op_from_name(const std::string& name) {
  for (const Op op : {Op::kList, Op::kInfo, Op::kSummary, Op::kChart, Op::kWindow,
                      Op::kTimeseries, Op::kTopK, Op::kRefresh, Op::kAlerts,
                      Op::kMonitorStatus, Op::kMetrics, Op::kPing})
    if (name == op_name(op)) return op;
  return std::nullopt;
}

/// True when the op addresses one trace (and thus requires `trace`).
bool op_takes_trace(Op op) {
  return op == Op::kInfo || op == Op::kSummary || op == Op::kChart ||
         op == Op::kWindow || op == Op::kTimeseries || op == Op::kTopK;
}

/// The semantic bounds of a request, shared by both wires: each parser
/// decodes its fields, then calls this, so the bounds and their error
/// strings are identical by construction. `cpu` is the decoded cpu field
/// before narrowing to CpuId; `req.stall` arrives uncapped.
bool validate_request(Request& req, std::optional<std::uint64_t> cpu, std::string& error) {
  if (op_takes_trace(req.op) && req.trace.empty()) {
    error = std::string(op_name(req.op)) + " requires a trace name";
    return false;
  }
  // NaN fails the comparison, so it is refused too.
  if (req.has_window && (!(req.window_to_ms > req.window_from_ms) || req.window_from_ms < 0)) {
    error = "window requires 0 <= from_ms < to_ms";
    return false;
  }
  if (req.op == Op::kWindow && !req.has_window) {
    error = "window op requires a window field";
    return false;
  }
  // The bound keeps quantum_us * kNsPerUs from wrapping (a wrapped quantum
  // of 0 would make the chart bucket division a SIGFPE).
  if (req.quantum_us == 0 || req.quantum_us > kTimeInfinity / kNsPerUs) {
    error = "quantum_us out of range";
    return false;
  }
  if (cpu.has_value()) {
    // CpuId is 16-bit; anything wider can never match a record.
    if (*cpu > 0xFFFF) {
      error = "cpu out of range";
      return false;
    }
    req.cpu = static_cast<CpuId>(*cpu);
  }
  if (req.k == 0 || req.k > 65536) {
    error = "k out of range";
    return false;
  }
  // A load-test stall must not be able to park a worker for minutes.
  req.stall = std::min<DurNs>(req.stall, 10'000 * kNsPerMs);
  return true;
}

bool get_u64_field(const JsonValue& root, const char* key, std::uint64_t& out,
                   std::string& error) {
  const JsonValue* v = root.find(key);
  if (v == nullptr) return true;
  // The upper bound matters: casting a double >= 2^64 to uint64_t is
  // undefined behaviour, so hostile values like 1e300 must die here.
  constexpr double kTwoPow64 = 18446744073709551616.0;
  if (!v->is_number() || v->number < 0 || v->number != std::floor(v->number) ||
      v->number >= kTwoPow64) {
    error = std::string(key) + " must be a non-negative integer < 2^64";
    return false;
  }
  out = static_cast<std::uint64_t>(v->number);
  return true;
}

}  // namespace

std::optional<Request> parse_request(const std::string& line, std::string& error) {
  const auto root = parse_json(line);
  if (!root.has_value() || root->kind != JsonValue::Kind::kObject) {
    error = "request is not a JSON object";
    return std::nullopt;
  }
  Request req;
  const JsonValue* op = root->find("op");
  if (op == nullptr || !op->is_string()) {
    error = "missing string field: op";
    return std::nullopt;
  }
  const auto parsed_op = op_from_name(op->string);
  if (!parsed_op.has_value()) {
    error = "unknown op: " + op->string;
    return std::nullopt;
  }
  req.op = *parsed_op;

  if (!get_u64_field(*root, "id", req.id, error)) return std::nullopt;

  if (const JsonValue* trace = root->find("trace"); trace != nullptr) {
    if (!trace->is_string()) {
      error = "trace must be a string";
      return std::nullopt;
    }
    req.trace = trace->string;
  }

  if (const JsonValue* window = root->find("window"); window != nullptr) {
    if (window->kind != JsonValue::Kind::kArray || window->array.size() != 2 ||
        !window->array[0].is_number() || !window->array[1].is_number()) {
      error = "window must be [from_ms, to_ms]";
      return std::nullopt;
    }
    req.window_from_ms = window->array[0].number;
    req.window_to_ms = window->array[1].number;
    req.has_window = true;
  }

  std::uint64_t task = 0;
  const bool had_task = root->find("task") != nullptr;
  if (!get_u64_field(*root, "task", task, error)) return std::nullopt;
  if (had_task) req.task = static_cast<Pid>(task);

  if (!get_u64_field(*root, "quantum_us", req.quantum_us, error)) return std::nullopt;

  std::optional<std::uint64_t> cpu;
  if (root->find("cpu") != nullptr) {
    cpu.emplace(0);
    if (!get_u64_field(*root, "cpu", *cpu, error)) return std::nullopt;
  }

  if (const JsonValue* activity = root->find("activity"); activity != nullptr) {
    if (!activity->is_string()) {
      error = "activity must be a string";
      return std::nullopt;
    }
    req.activity = activity->string;
  }

  if (!get_u64_field(*root, "k", req.k, error)) return std::nullopt;

  std::uint64_t deadline_ms = 0;
  const bool had_deadline = root->find("deadline_ms") != nullptr;
  if (!get_u64_field(*root, "deadline_ms", deadline_ms, error)) return std::nullopt;
  // Saturate rather than wrap: a huge requested deadline means "effectively
  // never", the same convention Deadline::after applies to its addition.
  if (had_deadline)
    req.deadline = deadline_ms > kTimeInfinity / kNsPerMs ? kTimeInfinity
                                                          : deadline_ms * kNsPerMs;

  std::uint64_t stall_ms = 0;
  if (!get_u64_field(*root, "stall_ms", stall_ms, error)) return std::nullopt;
  req.stall = stall_ms > kTimeInfinity / kNsPerMs ? kTimeInfinity : stall_ms * kNsPerMs;

  if (!validate_request(req, cpu, error)) return std::nullopt;
  return req;
}

std::string Request::to_line() const {
  std::string out = "{";
  if (id != 0) out += "\"id\":" + std::to_string(id) + ",";
  out += "\"op\":\"";
  out += op_name(op);
  out += '"';
  if (!trace.empty()) out += ",\"trace\":\"" + exporter::json_escape(trace) + "\"";
  if (has_window)
    out += ",\"window\":[" + number_to_json(window_from_ms) + "," +
           number_to_json(window_to_ms) + "]";
  if (task.has_value()) out += ",\"task\":" + std::to_string(*task);
  if (quantum_us != 1000) out += ",\"quantum_us\":" + std::to_string(quantum_us);
  if (cpu.has_value()) out += ",\"cpu\":" + std::to_string(*cpu);
  if (!activity.empty()) out += ",\"activity\":\"" + exporter::json_escape(activity) + "\"";
  if (k != 5) out += ",\"k\":" + std::to_string(k);
  if (deadline.has_value())
    out += ",\"deadline_ms\":" + std::to_string(*deadline / kNsPerMs);
  if (stall != 0) out += ",\"stall_ms\":" + std::to_string(stall / kNsPerMs);
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

Response Response::success(std::uint64_t id, std::string payload) {
  Response r;
  r.id = id;
  r.ok = true;
  r.payload = std::move(payload);
  return r;
}

Response Response::failure(std::uint64_t id, std::string error, std::string message) {
  Response r;
  r.id = id;
  r.ok = false;
  r.error = std::move(error);
  r.message = std::move(message);
  return r;
}

std::string Response::to_line() const {
  std::string out = "{\"id\":" + std::to_string(id);
  if (ok) {
    out += ",\"ok\":true,\"payload\":\"" + exporter::json_escape(payload) + "\"}";
  } else {
    out += ",\"ok\":false,\"error\":\"" + exporter::json_escape(error) +
           "\",\"message\":\"" + exporter::json_escape(message) + "\"}";
  }
  return out;
}

std::optional<Response> parse_response(const std::string& line) {
  const auto root = parse_json(line);
  if (!root.has_value() || root->kind != JsonValue::Kind::kObject) return std::nullopt;
  const JsonValue* ok = root->find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) return std::nullopt;
  Response r;
  r.ok = ok->boolean;
  if (const JsonValue* id = root->find("id"); id != nullptr && id->is_number())
    r.id = static_cast<std::uint64_t>(id->number);
  if (r.ok) {
    const JsonValue* payload = root->find("payload");
    if (payload == nullptr || !payload->is_string()) return std::nullopt;
    r.payload = payload->string;
  } else {
    const JsonValue* error = root->find("error");
    if (error == nullptr || !error->is_string()) return std::nullopt;
    r.error = error->string;
    if (const JsonValue* msg = root->find("message"); msg != nullptr && msg->is_string())
      r.message = msg->string;
  }
  return r;
}

// ---------------------------------------------------------------------------
// OSNB binary envelope
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint8_t kTagRequest = 0x01;
constexpr std::uint8_t kTagResponse = 0x02;

constexpr std::uint8_t kFlagWindow = 1u << 0;
constexpr std::uint8_t kFlagTask = 1u << 1;
constexpr std::uint8_t kFlagCpu = 1u << 2;
constexpr std::uint8_t kFlagDeadline = 1u << 3;
constexpr std::uint8_t kKnownFlags =
    kFlagWindow | kFlagTask | kFlagCpu | kFlagDeadline;

/// IEEE-754 bits, explicitly little-endian so the wire is host-independent.
void put_f64(std::string& out, double v) {
  static_assert(sizeof(double) == 8);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  for (int i = 0; i < 8; ++i)
    out += static_cast<char>((bits >> (8 * i)) & 0xFF);
}

bool get_f64(const std::string& frame, std::size_t& pos, double& out) {
  if (frame.size() - pos < 8) return false;
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(frame[pos + i]))
            << (8 * i);
  pos += 8;
  std::memcpy(&out, &bits, 8);
  return true;
}

bool get_u8(const std::string& frame, std::size_t& pos, std::uint8_t& out) {
  if (pos >= frame.size()) return false;
  out = static_cast<std::uint8_t>(frame[pos++]);
  return true;
}

/// Varint where "need more" is as malformed as a bad byte: the codec already
/// delivered a complete frame, so truncation inside it is a hard error.
bool get_varint(const std::string& frame, std::size_t& pos, std::uint64_t& out) {
  return varint_decode(frame, pos, out) == VarintStatus::kOk;
}

void put_bytes(std::string& out, const std::string& bytes) {
  varint_append(out, bytes.size());
  out += bytes;
}

bool get_bytes(const std::string& frame, std::size_t& pos, std::string& out) {
  std::uint64_t len = 0;
  if (!get_varint(frame, pos, len)) return false;
  if (frame.size() - pos < len) return false;
  out.assign(frame, pos, static_cast<std::size_t>(len));
  pos += static_cast<std::size_t>(len);
  return true;
}

}  // namespace

std::string request_to_osnb(const Request& req) {
  std::string out;
  out += static_cast<char>(kTagRequest);
  varint_append(out, req.id);
  out += static_cast<char>(static_cast<std::uint8_t>(req.op));
  std::uint8_t flags = 0;
  if (req.has_window) flags |= kFlagWindow;
  if (req.task.has_value()) flags |= kFlagTask;
  if (req.cpu.has_value()) flags |= kFlagCpu;
  if (req.deadline.has_value()) flags |= kFlagDeadline;
  out += static_cast<char>(flags);
  put_bytes(out, req.trace);
  if (req.has_window) {
    put_f64(out, req.window_from_ms);
    put_f64(out, req.window_to_ms);
  }
  if (req.task.has_value()) varint_append(out, *req.task);
  varint_append(out, req.quantum_us);
  if (req.cpu.has_value()) varint_append(out, *req.cpu);
  put_bytes(out, req.activity);
  varint_append(out, req.k);
  if (req.deadline.has_value()) varint_append(out, *req.deadline);
  varint_append(out, req.stall);
  return out;
}

std::optional<Request> parse_request_osnb(const std::string& frame,
                                          std::string& error) {
  std::size_t pos = 0;
  std::uint8_t tag = 0;
  if (!get_u8(frame, pos, tag) || tag != kTagRequest) {
    error = "not an OSNB request frame";
    return std::nullopt;
  }
  Request req;
  std::uint8_t op_byte = 0;
  std::uint8_t flags = 0;
  if (!get_varint(frame, pos, req.id) || !get_u8(frame, pos, op_byte) ||
      !get_u8(frame, pos, flags)) {
    error = "truncated request header";
    return std::nullopt;
  }
  if (op_byte > static_cast<std::uint8_t>(Op::kPing)) {
    error = "unknown op: " + std::to_string(op_byte);
    return std::nullopt;
  }
  req.op = static_cast<Op>(op_byte);
  if ((flags & ~kKnownFlags) != 0) {
    error = "unknown request flags";
    return std::nullopt;
  }

  if (!get_bytes(frame, pos, req.trace)) {
    error = "truncated trace field";
    return std::nullopt;
  }

  if ((flags & kFlagWindow) != 0) {
    if (!get_f64(frame, pos, req.window_from_ms) ||
        !get_f64(frame, pos, req.window_to_ms)) {
      error = "truncated window field";
      return std::nullopt;
    }
    req.has_window = true;
  }

  if ((flags & kFlagTask) != 0) {
    std::uint64_t task = 0;
    if (!get_varint(frame, pos, task)) {
      error = "truncated task field";
      return std::nullopt;
    }
    req.task = static_cast<Pid>(task);
  }

  if (!get_varint(frame, pos, req.quantum_us)) {
    error = "truncated quantum_us field";
    return std::nullopt;
  }

  std::optional<std::uint64_t> cpu;
  if ((flags & kFlagCpu) != 0) {
    cpu.emplace(0);
    if (!get_varint(frame, pos, *cpu)) {
      error = "truncated cpu field";
      return std::nullopt;
    }
  }

  if (!get_bytes(frame, pos, req.activity)) {
    error = "truncated activity field";
    return std::nullopt;
  }

  if (!get_varint(frame, pos, req.k)) {
    error = "truncated k field";
    return std::nullopt;
  }

  if ((flags & kFlagDeadline) != 0) {
    std::uint64_t deadline_ns = 0;
    if (!get_varint(frame, pos, deadline_ns)) {
      error = "truncated deadline field";
      return std::nullopt;
    }
    req.deadline = deadline_ns;
  }

  if (!get_varint(frame, pos, req.stall)) {
    error = "truncated stall field";
    return std::nullopt;
  }

  if (pos != frame.size()) {
    error = "trailing bytes after request";
    return std::nullopt;
  }
  if (!validate_request(req, cpu, error)) return std::nullopt;
  return req;
}

std::string response_to_osnb(const Response& resp) {
  std::string out;
  out += static_cast<char>(kTagResponse);
  varint_append(out, resp.id);
  out += static_cast<char>(resp.ok ? 1 : 0);
  if (resp.ok) {
    put_bytes(out, resp.payload);
  } else {
    put_bytes(out, resp.error);
    put_bytes(out, resp.message);
  }
  return out;
}

std::optional<Response> parse_response_osnb(const std::string& frame) {
  std::size_t pos = 0;
  std::uint8_t tag = 0;
  std::uint8_t ok_byte = 0;
  Response r;
  if (!get_u8(frame, pos, tag) || tag != kTagResponse) return std::nullopt;
  if (!get_varint(frame, pos, r.id) || !get_u8(frame, pos, ok_byte))
    return std::nullopt;
  if (ok_byte > 1) return std::nullopt;
  r.ok = ok_byte == 1;
  if (r.ok) {
    if (!get_bytes(frame, pos, r.payload)) return std::nullopt;
  } else {
    if (!get_bytes(frame, pos, r.error)) return std::nullopt;
    if (!get_bytes(frame, pos, r.message)) return std::nullopt;
  }
  if (pos != frame.size()) return std::nullopt;
  return r;
}

}  // namespace osn::serve
