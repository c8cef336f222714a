// The readiness core: one thread, one poller, every connection.
//
// An EventLoop owns the listening socket, every Connection, a timer heap,
// and a cross-thread wakeup. It multiplexes all of them through one
// level-triggered epoll poller, so ten thousand idle clients cost ten
// thousand registered fds and zero worker threads. Protocol logic lives in
// a Handler the session layer implements; this file knows frames, not
// requests — the lint layering rule (src/net/ includes no
// serve/query/trace headers) keeps that structural.
//
// Threading contract:
//  * run thread        — everything that touches a Connection or the poller.
//  * any thread        — send(), finish(), close(), post(), add_timer(),
//                        stop(), stats(): these enqueue a closure and signal
//                        the wakeup; the loop applies it. drain() does the
//                        same but blocks until the loop acknowledges, so
//                        "no more on_frames()" is a post-condition.
//  * Handler callbacks — invoked on the run thread. on_frames() typically
//                        submits to a worker pool and returns immediately;
//                        the worker answers via send()+finish().
//
// Dispatch discipline: when a connection yields complete frames it moves to
// kDispatched and its read interest is dropped — pipelined requests beyond
// the already-buffered ones wait in the kernel socket buffer, giving
// natural TCP back-pressure, and one connection can never occupy more than
// one worker. finish() re-runs framing on leftover buffered bytes before
// re-arming readability, so pipelined frames the poller cannot see are
// still served promptly.
//
// Shutdown: drain() stops accepting and tells idle connections goodbye (a
// Handler-rendered control frame in each connection's own codec); dispatched
// connections finish their in-flight batch, get the same goodbye from
// finish(), and flush. stop() then bounds the final flush and joins.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/annotations.hpp"
#include "common/clock.hpp"
#include "common/socket.hpp"
#include "net/codec.hpp"
#include "net/connection.hpp"
#include "net/poller.hpp"
#include "net/wakeup.hpp"

namespace osn::net {

/// Control frames the loop asks the Handler to render (in the connection's
/// codec) at admission-shed and drain time.
enum class Control : std::uint8_t { kOverloaded, kShuttingDown };

class Handler {
 public:
  virtual ~Handler() = default;

  /// A connection was accepted. Return false to shed it: its first decoded
  /// frame is answered with control_frame(kOverloaded) and it closes.
  virtual bool on_accept(std::uint64_t id) = 0;

  /// A batch of complete frames from one connection (now kDispatched; its
  /// reads are parked). The handler must eventually call EventLoop::send()
  /// for each response and then EventLoop::finish(id) — or close(id).
  virtual void on_frames(std::uint64_t id, CodecKind kind,
                         std::vector<std::string> frames) = 0;

  /// Renders a control document as one frame payload for `kind` (the loop
  /// wraps it in wire framing itself).
  virtual std::string control_frame(CodecKind kind, Control which) = 0;

  /// The connection is gone (any reason). `admitted` mirrors on_accept's
  /// verdict so the session can balance its admission counter.
  virtual void on_closed(std::uint64_t id, bool admitted) = 0;
};

struct LoopOptions {
  /// Largest single frame (and unframed receive backlog) per connection.
  std::size_t max_frame_bytes = 1 << 20;
  /// Pending-write cap per connection; beyond it the peer is a slow reader
  /// and the connection is closed rather than buffering without bound.
  std::size_t write_queue_max = 8u << 20;
  /// Close connections idle in kReading longer than this (0 = never).
  DurNs idle_timeout = 0;
  /// Per-pass read budget for one connection (fairness under firehose).
  std::size_t read_budget = 256 * 1024;
  /// Bound on flushing still-queued bytes at stop().
  DurNs stop_flush_budget = kNsPerSec;
};

/// Monotonic counters and gauges, readable from any thread. Gauges are
/// written only by the run thread; readers see a consistent-enough snapshot
/// for metrics and soak assertions.
struct LoopStats {
  std::uint64_t accepted = 0;          ///< connections ever accepted
  std::uint64_t closed = 0;            ///< connections ever closed
  std::uint64_t open = 0;              ///< gauge: currently registered
  std::uint64_t reading = 0;           ///< gauge: idle/awaiting a request
  std::uint64_t dispatched = 0;        ///< gauge: a worker owns a batch
  std::uint64_t draining = 0;          ///< gauge: flushing final bytes
  std::uint64_t frames_in = 0;         ///< complete request frames decoded
  std::uint64_t frames_out = 0;        ///< response frames queued
  std::uint64_t slow_reader_closes = 0;
  std::uint64_t idle_timeouts = 0;
  std::uint64_t codec_errors = 0;      ///< framing violations that closed a conn
  std::uint64_t write_queue_hwm = 0;   ///< max pending bytes on any connection
};

class EventLoop {
 public:
  EventLoop(LoopOptions options, Handler* handler);
  ~EventLoop();  ///< stops if still running

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Takes ownership of a bound listener and starts the run thread.
  bool start(TcpListener listener, std::string* error = nullptr);

  /// Stops accepting and says goodbye to idle connections. Dispatched
  /// connections keep running until their workers finish. Idempotent,
  /// callable from any thread. *Blocks* until the run thread acknowledges:
  /// after drain() returns, Handler::on_frames() will never fire again, so
  /// the caller may tear down whatever on_frames() dispatches to.
  void drain();

  /// drain() + wait for queued work, flush bounded by stop_flush_budget,
  /// join the run thread. Idempotent. Callers that route worker responses
  /// through this loop must join their workers *between* drain() and
  /// stop() so every response still finds a live loop.
  void stop();

  std::uint16_t port() const { return port_; }

  // -- worker-facing API (any thread) ---------------------------------------

  /// Queues one response frame (payload; the connection's codec frames it).
  /// Dropped silently if the connection is gone.
  void send(std::uint64_t id, std::string frame);

  /// The worker is done with the dispatched batch: leftover buffered frames
  /// are re-examined, then the connection resumes reading (or gets the
  /// drain goodbye when the loop is draining).
  void finish(std::uint64_t id);

  /// Force-closes a connection after flushing anything already queued.
  void close(std::uint64_t id);

  /// Runs a closure on the loop thread.
  void post(std::function<void()> fn);

  /// One-shot timer on the loop thread. Safe from any thread.
  void add_timer(DurNs delay, std::function<void()> fn);

  LoopStats stats() const;

 private:
  struct Timer {
    TimeNs at;
    std::uint64_t seq;  ///< tie-break so equal deadlines stay FIFO
    std::function<void()> fn;
    bool operator>(const Timer& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  void run();
  void do_accept();
  void on_readable(Connection& conn);
  void on_writable(Connection& conn);
  /// Frame extraction + dispatch/doomed/control handling for one connection.
  void pump_frames(Connection& conn);
  void do_finish(std::uint64_t id);
  /// Queue a control frame and move to kDraining (close once flushed).
  void send_goodbye(Connection& conn, Control which);
  void queue_frame(Connection& conn, std::string_view frame_payload);
  void close_conn(std::uint64_t id);
  void close_conn(Connection& conn);
  void update_interest(Connection& conn);
  void enter_drain();
  void reap_idle();
  void run_due_timers(TimeNs now);
  DurNs idle_sweep_period() const;
  int next_timeout_ms() const;
  void set_gauge_delta(ConnState state, std::int64_t delta);

  LoopOptions options_;
  Handler* handler_;
  TcpListener listener_;
  std::uint16_t port_ = 0;
  Poller poller_;
  Wakeup wakeup_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  // Run-thread state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::uint64_t next_id_ = 2;  ///< 0 and 1 are the wakeup/listener poller keys
  std::vector<Timer> timers_;  ///< min-heap by (at, seq)
  std::uint64_t timer_seq_ = 0;
  bool draining_ = false;
  bool quitting_ = false;
  Deadline quit_flush_deadline_;
  TimeNs next_idle_sweep_ = 0;

  // Cross-thread mailbox.
  mutable std::mutex posted_mu_;
  std::vector<std::function<void()>> posted_ OSN_GUARDED_BY(posted_mu_);
  bool mailbox_closed_ OSN_GUARDED_BY(posted_mu_) = false;  ///< run thread exited

  // Stats: counters bumped with relaxed atomics; see LoopStats.
  struct AtomicStats {
    std::atomic<std::uint64_t> accepted{0}, closed{0}, open{0}, reading{0},
        dispatched{0}, draining{0}, frames_in{0}, frames_out{0},
        slow_reader_closes{0}, idle_timeouts{0}, codec_errors{0},
        write_queue_hwm{0};
  } stats_;
};

}  // namespace osn::net
