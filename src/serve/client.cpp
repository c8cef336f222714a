#include "serve/client.hpp"

#include "net/codec.hpp"
#include "net/event_loop.hpp"

namespace osn::serve {

static_assert(kMaxResponseBytes >= net::LoopOptions{}.write_queue_max,
              "a response the server can queue must fit the client's limit");

const char* wire_name(Wire wire) {
  return wire == Wire::kBinary ? "binary" : "json";
}

Client::Client(const std::string& host, std::uint16_t port, Deadline deadline,
               Wire wire)
    : wire_(wire) {
  stream_ = TcpStream::connect(host, port, deadline, &connect_error_);
}

Response Client::call(const Request& req, Deadline deadline) {
  if (wire_ == Wire::kBinary) return call_binary(req, deadline);
  return call_line(req.to_line(), req.id, deadline);
}

Response Client::call_line(const std::string& line, std::uint64_t id,
                           Deadline deadline) {
  if (!stream_.ok())
    return Response::failure(id, kTransportError,
                             connect_error_.empty() ? "not connected" : connect_error_);
  if (!stream_.send_all(line + "\n", deadline))
    return Response::failure(id, kTransportError, "send failed");
  std::optional<std::string> reply =
      stream_.recv_line(deadline, /*cancel=*/nullptr, kMaxResponseBytes);
  if (!reply)
    return Response::failure(id, kTransportError, "connection closed before response");
  std::optional<Response> resp = parse_response(*reply);
  if (!resp)
    return Response::failure(id, kTransportError, "unparseable response line");
  return *resp;
}

Response Client::call_binary(const Request& req, Deadline deadline) {
  if (!stream_.ok())
    return Response::failure(req.id, kTransportError,
                             connect_error_.empty() ? "not connected" : connect_error_);
  const net::Codec& codec = net::codec_for(net::CodecKind::kOsnb);
  std::string wire;
  if (!sent_preamble_) {
    // Piggy-back the codec-selection preamble on the first request: one
    // write, and the server's detection consumes it before framing.
    wire.assign(net::kOsnbPreamble, net::kOsnbPreambleLen);
    sent_preamble_ = true;
  }
  wire += codec.encode(request_to_osnb(req));
  if (!stream_.send_all(wire, deadline))
    return Response::failure(req.id, kTransportError, "send failed");

  std::string frame;
  std::string frame_error;
  for (;;) {
    switch (codec.decode(rbuf_, kMaxResponseBytes, frame, frame_error)) {
      case net::Codec::Result::kFrame: {
        std::optional<Response> resp = parse_response_osnb(frame);
        if (!resp)
          return Response::failure(req.id, kTransportError,
                                   "unparseable response frame");
        return *resp;
      }
      case net::Codec::Result::kError:
        return Response::failure(req.id, kTransportError,
                                 "bad response framing: " + frame_error);
      case net::Codec::Result::kNeedMore:
        if (!stream_.recv_chunk(rbuf_, deadline))
          return Response::failure(req.id, kTransportError,
                                   "connection closed before response");
        break;
    }
  }
}

}  // namespace osn::serve
