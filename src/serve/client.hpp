// Client side of the osn-served protocol: connect, send one request, read
// one response. Speaks either wire — line-delimited JSON (the default) or
// the OSNB binary framing, selected at construction (a binary client leads
// with the OSNB preamble so the server's codec detection routes it).
// Transport failures are surfaced as synthetic failed Responses (error
// "transport") so callers handle one shape.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/clock.hpp"
#include "common/socket.hpp"
#include "serve/protocol.hpp"

namespace osn::serve {

/// Which framing the client puts on the wire.
enum class Wire : std::uint8_t { kJson, kBinary };

const char* wire_name(Wire wire);

class Client {
 public:
  /// Connects to an osn-served instance. Check ok() before calling. A
  /// kBinary client sends the OSNB preamble as part of its first request.
  Client(const std::string& host, std::uint16_t port,
         Deadline deadline = Deadline::never(), Wire wire = Wire::kJson);

  bool ok() const { return stream_.ok(); }
  const std::string& connect_error() const { return connect_error_; }
  Wire wire() const { return wire_; }

  /// One round-trip. Any transport problem (send failure, EOF, unparseable
  /// response) comes back as a failed Response with error "transport".
  Response call(const Request& req, Deadline deadline = Deadline::never());

  /// Raw-line variant (tests exercising protocol errors directly). Always
  /// the JSON wire — a line is meaningless inside OSNB framing.
  Response call_line(const std::string& line, std::uint64_t id,
                     Deadline deadline = Deadline::never());

 private:
  Response call_binary(const Request& req, Deadline deadline);

  TcpStream stream_;
  std::string connect_error_;
  Wire wire_ = Wire::kJson;
  bool sent_preamble_ = false;
  std::string rbuf_;  ///< binary wire: received, not yet framed
};

/// Largest response the client reads, on either wire: the server's write
/// cap (net::LoopOptions::write_queue_max), so any document it sends fits.
inline constexpr std::size_t kMaxResponseBytes = 8u << 20;

/// errc-style code for client-side transport failures (never sent on the
/// wire by a server).
inline constexpr const char* kTransportError = "transport";

}  // namespace osn::serve
