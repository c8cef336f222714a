// EventLoop tests against a toy echo protocol. The handler echoes each
// frame back with an "echo:" prefix — enough protocol to exercise accept,
// dispatch, pipelining, shed, idle reaping, drain goodbyes, timers, and the
// worker-facing thread contract without dragging in the serve layer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/socket.hpp"
#include "net/codec.hpp"
#include "net/event_loop.hpp"

namespace osn::net {
namespace {

/// Echoes every frame back ("echo:" + payload) from a worker thread,
/// mimicking how the serve layer answers via send()+finish() off the run
/// thread. Workers are tracked so tests can honor the documented shutdown
/// contract: join them between drain() and stop(). admit_limit caps
/// concurrent admissions to test shed.
class EchoHandler : public Handler {
 public:
  explicit EchoHandler(std::size_t admit_limit = SIZE_MAX)
      : admit_limit_(admit_limit) {}

  void attach(EventLoop* loop) { loop_ = loop; }

  bool on_accept(std::uint64_t) override {
    return admitted_.fetch_add(1) < admit_limit_ ? true : (admitted_--, false);
  }

  void on_frames(std::uint64_t id, CodecKind, std::vector<std::string> frames) override {
    EventLoop* loop = loop_;
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers_.emplace_back([loop, id, frames = std::move(frames)] {
      for (const std::string& f : frames) loop->send(id, "echo:" + f);
      loop->finish(id);
    });
  }

  std::string control_frame(CodecKind, Control which) override {
    return which == Control::kOverloaded ? "ctl:overloaded" : "ctl:shutting_down";
  }

  void on_closed(std::uint64_t, bool admitted) override {
    if (admitted) admitted_--;
    closed_++;
  }

  /// Joins every worker spawned so far (looping: a batch dispatched
  /// concurrently with drain can still add one).
  void join_workers() {
    for (;;) {
      std::vector<std::thread> batch;
      {
        std::lock_guard<std::mutex> lock(workers_mu_);
        batch.swap(workers_);
      }
      if (batch.empty()) return;
      for (std::thread& t : batch) t.join();
    }
  }

  std::atomic<std::size_t> admitted_{0};
  std::atomic<std::size_t> closed_{0};

 private:
  std::size_t admit_limit_;
  EventLoop* loop_ = nullptr;
  std::mutex workers_mu_;
  std::vector<std::thread> workers_;
};

class EventLoopTest : public ::testing::Test {
 protected:
  void start(LoopOptions options = {}, std::size_t admit_limit = SIZE_MAX) {
    handler_ = std::make_unique<EchoHandler>(admit_limit);
    loop_ = std::make_unique<EventLoop>(options, handler_.get());
    handler_->attach(loop_.get());
    std::string error;
    TcpListener listener = TcpListener::listen("127.0.0.1", 0, 64, &error);
    ASSERT_TRUE(listener.ok()) << error;
    ASSERT_TRUE(loop_->start(std::move(listener), &error)) << error;
  }

  void TearDown() override {
    if (!loop_) return;
    // The documented shutdown order: drain, join workers (their responses
    // must still find a live loop), then stop.
    loop_->drain();
    handler_->join_workers();
    loop_->stop();
  }

  TcpStream connect() {
    std::string error;
    TcpStream s = TcpStream::connect("127.0.0.1", loop_->port(),
                                     Deadline::after(5 * kNsPerSec), &error);
    EXPECT_TRUE(s.ok()) << error;
    return s;
  }

  std::unique_ptr<EchoHandler> handler_;
  std::unique_ptr<EventLoop> loop_;
};

TEST_F(EventLoopTest, EchoesOneLineFrame) {
  start();
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(5 * kNsPerSec);
  ASSERT_TRUE(s.send_all("hello\n", deadline));
  std::optional<std::string> reply = s.recv_line(deadline);
  ASSERT_TRUE(reply);
  EXPECT_EQ(*reply, "echo:hello");
}

TEST_F(EventLoopTest, EchoesOsnbFramesAfterPreamble) {
  start();
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(5 * kNsPerSec);
  const Codec& osnb = codec_for(CodecKind::kOsnb);
  std::string wire(kOsnbPreamble, kOsnbPreambleLen);
  wire += osnb.encode("ping");
  ASSERT_TRUE(s.send_all(wire, deadline));
  std::string rbuf;
  std::string frame;
  std::string error;
  while (osnb.decode(rbuf, 1 << 20, frame, error) != Codec::Result::kFrame)
    ASSERT_TRUE(s.recv_chunk(rbuf, deadline));
  EXPECT_EQ(frame, "echo:ping");
}

TEST_F(EventLoopTest, ServesPipelinedFramesSentAsOneWrite) {
  // All three frames land in one TCP segment; the loop must serve the ones
  // buffered past the dispatched batch without another readiness event.
  start();
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(5 * kNsPerSec);
  ASSERT_TRUE(s.send_all("a\nb\nc\n", deadline));
  for (const char* want : {"echo:a", "echo:b", "echo:c"}) {
    std::optional<std::string> reply = s.recv_line(deadline);
    ASSERT_TRUE(reply);
    EXPECT_EQ(*reply, want);
  }
  const LoopStats stats = loop_->stats();
  EXPECT_EQ(stats.frames_in, 3u);
  EXPECT_EQ(stats.frames_out, 3u);
}

TEST_F(EventLoopTest, ManySequentialRoundTripsOnOneConnection) {
  start();
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(10 * kNsPerSec);
  for (int i = 0; i < 50; ++i) {
    const std::string msg = "msg" + std::to_string(i);
    ASSERT_TRUE(s.send_all(msg + "\n", deadline));
    std::optional<std::string> reply = s.recv_line(deadline);
    ASSERT_TRUE(reply);
    EXPECT_EQ(*reply, "echo:" + msg);
  }
}

TEST_F(EventLoopTest, ShedConnectionGetsOverloadedControlFrame) {
  start({}, /*admit_limit=*/1);
  TcpStream first = connect();
  const Deadline deadline = Deadline::after(5 * kNsPerSec);
  // Prove the first connection is admitted (and keep it open).
  ASSERT_TRUE(first.send_all("hi\n", deadline));
  ASSERT_TRUE(first.recv_line(deadline));

  TcpStream second = connect();
  ASSERT_TRUE(second.send_all("hi\n", deadline));
  std::optional<std::string> reply = second.recv_line(deadline);
  ASSERT_TRUE(reply);
  EXPECT_EQ(*reply, "ctl:overloaded");
  // The shed connection is then closed by the server.
  EXPECT_FALSE(second.recv_line(deadline));
  EXPECT_FALSE(second.ok());
}

TEST_F(EventLoopTest, FramingViolationClosesTheConnection) {
  LoopOptions options;
  options.max_frame_bytes = 64;
  start(options);
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(5 * kNsPerSec);
  ASSERT_TRUE(s.send_all(std::string(200, 'x'), deadline));  // overlong, no '\n'
  EXPECT_FALSE(s.recv_line(deadline));
  EXPECT_FALSE(s.ok()) << "server must close on framing violation";
  // Poll until the loop registers the close (it races the client's read).
  const Deadline settle = Deadline::after(5 * kNsPerSec);
  while (loop_->stats().codec_errors == 0 && !settle.expired())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(loop_->stats().codec_errors, 1u);
}

TEST_F(EventLoopTest, IdleConnectionsAreReaped) {
  LoopOptions options;
  options.idle_timeout = 50 * kNsPerMs;
  start(options);
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(10 * kNsPerSec);
  EXPECT_FALSE(s.recv_line(deadline)) << "reaper should close the idle conn";
  const Deadline settle = Deadline::after(5 * kNsPerSec);
  while (loop_->stats().idle_timeouts == 0 && !settle.expired())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(loop_->stats().idle_timeouts, 1u);
}

TEST_F(EventLoopTest, DrainSendsGoodbyeToIdleConnections) {
  start();
  TcpStream s = connect();
  const Deadline deadline = Deadline::after(5 * kNsPerSec);
  // Round-trip once so the connection is fully registered and idle.
  ASSERT_TRUE(s.send_all("hi\n", deadline));
  ASSERT_TRUE(s.recv_line(deadline));
  loop_->drain();
  std::optional<std::string> reply = s.recv_line(deadline);
  ASSERT_TRUE(reply);
  EXPECT_EQ(*reply, "ctl:shutting_down");
  EXPECT_FALSE(s.recv_line(deadline)) << "goodbye is followed by close";
}

TEST_F(EventLoopTest, TimersFireInOrderOnTheLoopThread) {
  start();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> fired;
  loop_->add_timer(40 * kNsPerMs, [&] {
    std::lock_guard<std::mutex> lock(mu);
    fired.push_back(2);
    cv.notify_all();
  });
  loop_->add_timer(5 * kNsPerMs, [&] {
    std::lock_guard<std::mutex> lock(mu);
    fired.push_back(1);
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return fired.size() == 2; }));
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST_F(EventLoopTest, StatsTrackConnectionLifecycle) {
  start();
  {
    TcpStream s = connect();
    const Deadline deadline = Deadline::after(5 * kNsPerSec);
    ASSERT_TRUE(s.send_all("hi\n", deadline));
    ASSERT_TRUE(s.recv_line(deadline));
    const LoopStats mid = loop_->stats();
    EXPECT_EQ(mid.accepted, 1u);
    EXPECT_EQ(mid.open, 1u);
    EXPECT_GE(mid.write_queue_hwm, std::string("echo:hi").size());
  }
  // The loop counts the close before it calls on_closed: wait for both.
  const Deadline settle = Deadline::after(5 * kNsPerSec);
  while ((loop_->stats().closed == 0 || handler_->closed_.load() == 0) && !settle.expired())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const LoopStats after = loop_->stats();
  EXPECT_EQ(after.closed, 1u);
  EXPECT_EQ(after.open, 0u);
  EXPECT_EQ(handler_->closed_.load(), 1u);
}

TEST_F(EventLoopTest, StopWithNoConnectionsIsPrompt) {
  start();
  loop_->stop();
  loop_.reset();  // TearDown would double-stop; exercise idempotence anyway
}

}  // namespace
}  // namespace osn::net
