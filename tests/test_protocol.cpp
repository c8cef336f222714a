// serve wire protocol: JSON parsing, request validation, response framing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace osn::serve {
namespace {

// --------------------------------------------------------------------------
// JSON parser
// --------------------------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_EQ(parse_json("null")->kind, JsonValue::Kind::kNull);
  EXPECT_TRUE(parse_json("true")->boolean);
  EXPECT_FALSE(parse_json("false")->boolean);
  EXPECT_DOUBLE_EQ(parse_json("42")->number, 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-1.5e3")->number, -1500.0);
  EXPECT_EQ(parse_json("\"hi\"")->string, "hi");
}

TEST(JsonParse, NestedStructures) {
  const auto v = parse_json(R"({"a":[1,2,{"b":"c"}],"d":{"e":null}})");
  ASSERT_TRUE(v.has_value());
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[2].find("b")->string, "c");
  EXPECT_EQ(v->find("d")->find("e")->kind, JsonValue::Kind::kNull);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\nb\t\"\\A")")->string, "a\nb\t\"\\A");
  // Surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse_json(R"("😀")")->string, "\xF0\x9F\x98\x80");
  // Lone surrogates are invalid.
  EXPECT_FALSE(parse_json(R"("\ud83d")").has_value());
  EXPECT_FALSE(parse_json(R"("\ude00")").has_value());
}

TEST(JsonParse, RejectsMalformed) {
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json("{\"a\":1,}").has_value());
  EXPECT_FALSE(parse_json("[1 2]").has_value());
  EXPECT_FALSE(parse_json("\"unterminated").has_value());
  EXPECT_FALSE(parse_json("tru").has_value());
  EXPECT_FALSE(parse_json("1e").has_value());
  EXPECT_FALSE(parse_json("{} trailing").has_value());
  EXPECT_FALSE(parse_json("\"raw\ncontrol\"").has_value());
}

TEST(JsonParse, DepthBounded) {
  // Hostile deeply-nested input must fail cleanly, not blow the stack.
  std::string deep;
  for (int i = 0; i < 2000; ++i) deep += '[';
  for (int i = 0; i < 2000; ++i) deep += ']';
  EXPECT_FALSE(parse_json(deep).has_value());
}

// --------------------------------------------------------------------------
// Requests
// --------------------------------------------------------------------------

TEST(RequestParse, MinimalAndRoundTrip) {
  std::string error;
  const auto ping = parse_request(R"({"op":"ping"})", error);
  ASSERT_TRUE(ping.has_value()) << error;
  EXPECT_EQ(ping->op, Op::kPing);
  EXPECT_EQ(ping->id, 0u);

  Request req;
  req.id = 7;
  req.op = Op::kWindow;
  req.trace = "ftq";
  req.has_window = true;
  req.window_from_ms = 100.5;
  req.window_to_ms = 900;
  req.task = 3;
  req.quantum_us = 500;
  req.deadline = 250 * kNsPerMs;
  const auto back = parse_request(req.to_line(), error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->id, 7u);
  EXPECT_EQ(back->op, Op::kWindow);
  EXPECT_EQ(back->trace, "ftq");
  EXPECT_TRUE(back->has_window);
  EXPECT_DOUBLE_EQ(back->window_from_ms, 100.5);
  EXPECT_DOUBLE_EQ(back->window_to_ms, 900.0);
  ASSERT_TRUE(back->task.has_value());
  EXPECT_EQ(*back->task, 3u);
  EXPECT_EQ(back->quantum_us, 500u);
  ASSERT_TRUE(back->deadline.has_value());
  EXPECT_EQ(*back->deadline, 250 * kNsPerMs);
}

TEST(RequestParse, Validation) {
  std::string error;
  EXPECT_FALSE(parse_request("not json", error).has_value());
  EXPECT_FALSE(parse_request("[1,2]", error).has_value());
  EXPECT_FALSE(parse_request(R"({"id":1})", error).has_value());  // no op
  EXPECT_FALSE(parse_request(R"({"op":"explode"})", error).has_value());
  // Trace-addressed ops require a trace name.
  EXPECT_FALSE(parse_request(R"({"op":"summary"})", error).has_value());
  // The window op requires a window, and windows must be ordered.
  EXPECT_FALSE(parse_request(R"({"op":"window","trace":"t"})", error).has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"window","trace":"t","window":[900,100]})", error)
          .has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"window","trace":"t","window":[-5,100]})", error)
          .has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"window","trace":"t","window":[100]})", error).has_value());
  // Numeric fields must be non-negative integers.
  EXPECT_FALSE(parse_request(R"({"op":"ping","id":-1})", error).has_value());
  EXPECT_FALSE(parse_request(R"({"op":"ping","id":1.5})", error).has_value());
  EXPECT_FALSE(
      parse_request(R"({"op":"chart","trace":"t","quantum_us":0})", error).has_value());
}

TEST(RequestParse, HostileNumericBoundsRejected) {
  std::string error;
  // Casting a double >= 2^64 to uint64_t is UB; such values must not reach
  // the cast. 1e300 is an exact non-negative integer as a double.
  EXPECT_FALSE(parse_request(R"({"op":"ping","id":1e300})", error).has_value());
  EXPECT_FALSE(parse_request(R"({"op":"ping","id":18446744073709551616})", error)
                   .has_value());
  // 2^61 is exactly representable and passes the integer check, but
  // quantum_us * 1000 would wrap to 0 and the chart bucket division would
  // SIGFPE the daemon. Must be rejected at parse time.
  EXPECT_FALSE(
      parse_request(R"({"op":"chart","trace":"t","quantum_us":2305843009213693952})",
                    error)
          .has_value());
  // A large but representable value stays in range for the field itself
  // (id has no semantic bound; 2^53 - 1 is the largest exact odd integer).
  EXPECT_TRUE(parse_request(R"({"op":"ping","id":9007199254740991})", error)
                  .has_value())
      << error;
  EXPECT_EQ(parse_request(R"({"op":"ping","id":9007199254740991})", error)->id,
            9007199254740991ull);
}

TEST(RequestParse, HugeDeadlineSaturatesInsteadOfWrapping) {
  std::string error;
  // deadline_ms * 1e6 would wrap for large values, spuriously turning a huge
  // requested budget into a tiny one; it must saturate to "never" instead.
  const auto req = parse_request(R"({"op":"ping","deadline_ms":1000000000000000})",
                                 error);
  ASSERT_TRUE(req.has_value()) << error;
  ASSERT_TRUE(req->deadline.has_value());
  EXPECT_EQ(*req->deadline, kTimeInfinity);
}

TEST(RequestParse, StallIsCapped) {
  std::string error;
  const auto req = parse_request(R"({"op":"ping","stall_ms":999999})", error);
  ASSERT_TRUE(req.has_value()) << error;
  EXPECT_EQ(req->stall, 10'000 * kNsPerMs);  // capped at 10 s
}

// --------------------------------------------------------------------------
// Responses
// --------------------------------------------------------------------------

TEST(Response, MultiLinePayloadSurvivesFraming) {
  // Payloads are whole JSON documents with newlines; the response line must
  // carry them byte-exactly without breaking the one-line-per-message frame.
  const std::string doc = "{\n  \"workload\": \"ftq \\ é\",\n  \"n\": 3\n}\n";
  const Response out = Response::success(9, doc);
  const std::string line = out.to_line();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto back = parse_response(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->id, 9u);
  EXPECT_EQ(back->payload, doc);
}

TEST(Response, FailureRoundTrip) {
  const Response out = Response::failure(4, errc::kDeadlineExceeded, "too slow");
  const auto back = parse_response(out.to_line());
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error, errc::kDeadlineExceeded);
  EXPECT_EQ(back->message, "too slow");
}

TEST(Response, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_response("garbage").has_value());
  EXPECT_FALSE(parse_response(R"({"id":1})").has_value());                 // no ok
  EXPECT_FALSE(parse_response(R"({"id":1,"ok":true})").has_value());      // no payload
  EXPECT_FALSE(parse_response(R"({"id":1,"ok":false})").has_value());     // no error
}

// --------------------------------------------------------------------------
// OSNB binary envelope
// --------------------------------------------------------------------------

TEST(Osnb, RequestRoundTripsEveryField) {
  Request req;
  req.id = 0xDEADBEEFull;
  req.op = Op::kWindow;
  req.trace = "ftq";
  req.has_window = true;
  req.window_from_ms = 100.5;
  req.window_to_ms = 900.25;
  req.task = 42;
  req.quantum_us = 500;
  req.cpu = 3;
  req.activity = "irq";
  req.k = 12;
  req.deadline = 250 * kNsPerMs;
  req.stall = 7 * kNsPerMs;

  std::string error;
  const auto back = parse_request_osnb(request_to_osnb(req), error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->id, req.id);
  EXPECT_EQ(back->op, Op::kWindow);
  EXPECT_EQ(back->trace, "ftq");
  EXPECT_TRUE(back->has_window);
  EXPECT_DOUBLE_EQ(back->window_from_ms, 100.5);
  EXPECT_DOUBLE_EQ(back->window_to_ms, 900.25);
  ASSERT_TRUE(back->task.has_value());
  EXPECT_EQ(*back->task, 42u);
  EXPECT_EQ(back->quantum_us, 500u);
  ASSERT_TRUE(back->cpu.has_value());
  EXPECT_EQ(*back->cpu, 3u);
  EXPECT_EQ(back->activity, "irq");
  EXPECT_EQ(back->k, 12u);
  ASSERT_TRUE(back->deadline.has_value());
  EXPECT_EQ(*back->deadline, 250 * kNsPerMs);
  EXPECT_EQ(back->stall, 7 * kNsPerMs);
}

TEST(Osnb, MinimalRequestKeepsDefaults) {
  Request req;  // ping with all defaults
  std::string error;
  const auto back = parse_request_osnb(request_to_osnb(req), error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->op, Op::kPing);
  EXPECT_EQ(back->id, 0u);
  EXPECT_FALSE(back->has_window);
  EXPECT_FALSE(back->task.has_value());
  EXPECT_FALSE(back->cpu.has_value());
  EXPECT_FALSE(back->deadline.has_value());
  EXPECT_EQ(back->quantum_us, 1000u);
  EXPECT_EQ(back->k, 5u);
}

// The monitoring ops are trace-less daemon queries; both wires must accept
// them without a trace name and agree on identity after the Op renumbering.
TEST(Osnb, MonitorOpsRoundTripOnBothWires) {
  static constexpr struct {
    Op op;
    const char* name;
  } kOps[] = {{Op::kRefresh, "refresh"},
              {Op::kAlerts, "alerts"},
              {Op::kMonitorStatus, "monitor_status"}};
  std::string error;
  for (const auto& [op, name] : kOps) {
    Request req;
    req.id = 11;
    req.op = op;

    const auto via_json = parse_request(req.to_line(), error);
    ASSERT_TRUE(via_json.has_value()) << name << ": " << error;
    EXPECT_EQ(via_json->op, op) << name;
    EXPECT_EQ(via_json->id, 11u) << name;
    EXPECT_NE(req.to_line().find(std::string("\"") + name + "\""), std::string::npos)
        << name;

    const auto via_osnb = parse_request_osnb(request_to_osnb(req), error);
    ASSERT_TRUE(via_osnb.has_value()) << name << ": " << error;
    EXPECT_EQ(via_osnb->op, op) << name;
    EXPECT_EQ(via_osnb->id, 11u) << name;
  }
}

TEST(Osnb, RequestEnforcesJsonParserBounds) {
  // The two wires must agree on what a valid request is: every bad request
  // goes through both parsers and must be refused with the same error, so
  // nothing the JSON parser rejects sneaks in through the binary door.
  struct Case {
    const char* what;
    Request req;
    std::string error;
  };
  const auto make = [](Op op, const char* trace) {
    Request req;
    req.op = op;
    req.trace = trace;
    return req;
  };
  std::vector<Case> cases;
  cases.push_back({"no trace", make(Op::kSummary, ""), "summary requires a trace name"});
  {
    Request req = make(Op::kWindow, "t");
    req.has_window = true;
    req.window_from_ms = 900;
    req.window_to_ms = 100;
    cases.push_back({"reversed window", req, "window requires 0 <= from_ms < to_ms"});
    req.window_from_ms = -5;
    cases.push_back({"negative window", req, "window requires 0 <= from_ms < to_ms"});
  }
  cases.push_back(
      {"window op, no window", make(Op::kWindow, "t"), "window op requires a window field"});
  {
    Request req = make(Op::kChart, "t");
    req.quantum_us = 0;
    cases.push_back({"zero quantum", req, "quantum_us out of range"});
    req.quantum_us = kTimeInfinity / kNsPerUs + 1;
    cases.push_back({"wrapping quantum", req, "quantum_us out of range"});
  }
  {
    Request req = make(Op::kTopK, "t");
    req.k = 0;
    cases.push_back({"zero k", req, "k out of range"});
    req.k = 65537;
    cases.push_back({"huge k", req, "k out of range"});
  }
  {
    // cpu 65535 is the widest a Request can hold; both encodings are
    // patched to 65536 below (its varint has the same length).
    Request req = make(Op::kSummary, "t");
    req.cpu = 0xFFFF;
    cases.push_back({"cpu past 16 bits", req, "cpu out of range"});
  }

  for (const Case& c : cases) {
    std::string json = c.req.to_line();
    std::string osnb = request_to_osnb(c.req);
    if (c.error == "cpu out of range") {
      const std::size_t at_json = json.find("65535");
      const std::size_t at_osnb = osnb.find("\xff\xff\x03");
      ASSERT_NE(at_json, std::string::npos);
      ASSERT_NE(at_osnb, std::string::npos);
      json.replace(at_json, 5, "65536");
      osnb.replace(at_osnb, 3, "\x80\x80\x04");
    }
    std::string json_error, osnb_error;
    EXPECT_FALSE(parse_request(json, json_error).has_value()) << c.what;
    EXPECT_FALSE(parse_request_osnb(osnb, osnb_error).has_value()) << c.what;
    EXPECT_EQ(json_error, c.error) << c.what;
    EXPECT_EQ(osnb_error, c.error) << c.what;
  }

  // The stall cap is a bound too: both wires clamp to the same 10 s.
  Request huge_stall;
  huge_stall.stall = 600'000 * kNsPerMs;
  std::string error;
  const auto capped_json = parse_request(huge_stall.to_line(), error);
  ASSERT_TRUE(capped_json.has_value()) << error;
  const auto capped_osnb = parse_request_osnb(request_to_osnb(huge_stall), error);
  ASSERT_TRUE(capped_osnb.has_value()) << error;
  EXPECT_EQ(capped_json->stall, 10'000 * kNsPerMs);
  EXPECT_EQ(capped_osnb->stall, 10'000 * kNsPerMs);
}

TEST(Osnb, RequestParserRejectsMangledFrames) {
  Request req;
  req.op = Op::kSummary;
  req.trace = "ftq";
  const std::string good = request_to_osnb(req);
  std::string error;
  ASSERT_TRUE(parse_request_osnb(good, error).has_value()) << error;

  // Every truncation must fail cleanly (a frame is complete by construction;
  // a short one is corruption, not "need more").
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    EXPECT_FALSE(parse_request_osnb(good.substr(0, cut), error).has_value())
        << "cut at " << cut;

  // Trailing bytes are a framing bug, not padding.
  EXPECT_FALSE(parse_request_osnb(good + "x", error).has_value());

  // Wrong tag (a response tag on the request path).
  std::string wrong_tag = good;
  wrong_tag[0] = '\x02';
  EXPECT_FALSE(parse_request_osnb(wrong_tag, error).has_value());

  // Unknown op and unknown flag bits must be rejected, not ignored —
  // otherwise old servers silently misread new clients.
  std::string bad_op = good;
  bad_op[2] = '\x7F';
  EXPECT_FALSE(parse_request_osnb(bad_op, error).has_value());
  std::string bad_flags = good;
  bad_flags[3] = static_cast<char>(0x80);
  EXPECT_FALSE(parse_request_osnb(bad_flags, error).has_value());
}

TEST(Osnb, ResponseSuccessRoundTripPreservesDocumentBytes) {
  // The whole point of the binary wire: the payload document is carried
  // verbatim, newlines and UTF-8 included, with no escaping layer.
  const std::string doc = "{\n  \"workload\": \"ftq \\ é\",\n  \"n\": 3\n}\n";
  const Response out = Response::success(9, doc);
  const auto back = parse_response_osnb(response_to_osnb(out));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->id, 9u);
  EXPECT_EQ(back->payload, doc);
}

TEST(Osnb, ResponseFailureRoundTrip) {
  const Response out = Response::failure(4, errc::kDeadlineExceeded, "too slow");
  const auto back = parse_response_osnb(response_to_osnb(out));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->id, 4u);
  EXPECT_EQ(back->error, errc::kDeadlineExceeded);
  EXPECT_EQ(back->message, "too slow");
}

TEST(Osnb, ResponseParserRejectsMangledFrames) {
  const std::string good = response_to_osnb(Response::success(1, "{}\n"));
  ASSERT_TRUE(parse_response_osnb(good).has_value());
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    EXPECT_FALSE(parse_response_osnb(good.substr(0, cut)).has_value())
        << "cut at " << cut;
  EXPECT_FALSE(parse_response_osnb(good + "x").has_value());
  std::string wrong_tag = good;
  wrong_tag[0] = '\x01';
  EXPECT_FALSE(parse_response_osnb(wrong_tag).has_value());
}

}  // namespace
}  // namespace osn::serve
