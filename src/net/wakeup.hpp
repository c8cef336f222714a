// Cross-thread wakeup for a readiness loop.
//
// Workers and the public EventLoop API run on arbitrary threads; the loop
// sleeps in epoll_wait. A Wakeup is the one fd that pops it out: any thread
// calls signal(), the loop sees the fd readable and drains it. Backed by
// eventfd(2): one fd, one counter, no pipe-full edge. The fd is
// non-blocking; signalling an already-signalled wakeup is a no-op, never a
// stall.
#pragma once

namespace osn::net {

class Wakeup {
 public:
  Wakeup() = default;
  ~Wakeup() { close(); }
  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  /// Creates the eventfd. False on resource exhaustion.
  bool open();
  void close();
  bool ok() const { return fd_ >= 0; }

  /// The fd the loop registers for readability.
  int fd() const { return fd_; }

  /// Makes fd() readable. Async-signal-safe, thread-safe, non-blocking.
  void signal();

  /// Consumes pending signals so level-triggered polling quiesces.
  void drain();

 private:
  int fd_ = -1;
};

}  // namespace osn::net
