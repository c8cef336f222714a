// osn-served — the trace-query daemon.
//
// Serves a directory of OSNT traces over the line-delimited JSON protocol
// (src/serve/protocol.hpp): `osn-analyze query` is the matching client.
// Binds loopback by default; --port 0 asks the kernel for a free port and
// --port-file publishes whichever port was bound (how scripted harnesses
// avoid port races). SIGTERM/SIGINT trigger a graceful drain: in-flight
// requests finish, idle connections are told "shutting_down", then the
// process exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/clock.hpp"
#include "serve/server.hpp"

namespace {

using namespace osn;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "osn-served — serve OSNT traces to osn-analyze query clients\n\n"
               "  osn-served --dir DIR [--host H] [--port N] [--port-file FILE]\n"
               "             [--workers N] [--max-inflight N] [--cache-mb N]\n"
               "             [--model-cache-mb N] [--deadline-ms N]\n"
               "             [--idle-timeout-ms N]\n\n"
               "  --dir DIR          directory of .osnt trace files (required)\n"
               "  --host H           bind address (default 127.0.0.1)\n"
               "  --port N           TCP port; 0 = kernel-assigned (default 0)\n"
               "  --port-file FILE   write the bound port to FILE once listening\n"
               "  --workers N        request worker threads (default 4)\n"
               "  --max-inflight N   connections served concurrently before the\n"
               "                     server sheds with 'overloaded' (default 32)\n"
               "  --cache-mb N       result cache budget in MiB (default 64)\n"
               "  --model-cache-mb N decoded-model cache budget in MiB (default 256)\n"
               "  --deadline-ms N    default per-request deadline (default none)\n"
               "  --idle-timeout-ms N  close connections idle this long\n"
               "                     (default: keep them forever)\n");
  return 2;
}

const char* arg_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "error: %s expects a value\n", argv[i]);
    std::exit(usage());
  }
  return argv[++i];
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dir") {
      options.dir = arg_value(argc, argv, i);
    } else if (arg == "--host") {
      options.host = arg_value(argc, argv, i);
    } else if (arg == "--port") {
      options.port = static_cast<std::uint16_t>(std::atoi(arg_value(argc, argv, i)));
    } else if (arg == "--port-file") {
      port_file = arg_value(argc, argv, i);
    } else if (arg == "--workers") {
      options.workers = static_cast<std::size_t>(std::atoll(arg_value(argc, argv, i)));
    } else if (arg == "--max-inflight") {
      options.max_inflight = static_cast<std::size_t>(std::atoll(arg_value(argc, argv, i)));
    } else if (arg == "--cache-mb") {
      options.result_cache_bytes =
          static_cast<std::uint64_t>(std::atoll(arg_value(argc, argv, i))) << 20;
    } else if (arg == "--model-cache-mb") {
      options.model_cache_bytes =
          static_cast<std::uint64_t>(std::atoll(arg_value(argc, argv, i))) << 20;
    } else if (arg == "--deadline-ms") {
      options.default_deadline =
          static_cast<osn::DurNs>(std::atoll(arg_value(argc, argv, i))) * osn::kNsPerMs;
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout =
          static_cast<osn::DurNs>(std::atoll(arg_value(argc, argv, i))) * osn::kNsPerMs;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", arg.c_str());
      return usage();
    }
  }
  if (options.dir.empty()) {
    std::fprintf(stderr, "error: --dir is required\n");
    return usage();
  }

  serve::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: cannot listen on %s:%u: %s\n", options.host.c_str(),
                 options.port, error.c_str());
    return 1;
  }

  std::fprintf(stderr, "osn-served: serving %s on %s:%u (%zu workers)\n",
               options.dir.c_str(), options.host.c_str(), server.port(), options.workers);
  if (!port_file.empty()) {
    // The port file is the readiness signal for scripts: written (atomically
    // enough for a <6-byte file) only after listen() succeeded.
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  while (!g_stop) Deadline::after(100 * kNsPerMs).sleep_remaining();

  std::fprintf(stderr, "osn-served: draining (%llu requests served, %llu shed)\n",
               static_cast<unsigned long long>(server.metrics().requests()),
               static_cast<unsigned long long>(server.metrics().shed()));
  server.stop();
  return 0;
}
