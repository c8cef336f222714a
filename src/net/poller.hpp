// Readiness backend: one epoll(7) instance.
//
// The EventLoop asks a single question — "which of my fds are
// readable/writable?" — and epoll answers it in O(ready) no matter how many
// idle connections are registered, which is what lets one loop thread hold
// tens of thousands of quiet clients.
//
// Level-triggered: an fd keeps reporting until the condition is consumed,
// so a loop pass that reads less than everything is woken again rather than
// wedged.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace osn::net {

/// Readiness bits of one fd.
struct Ready {
  std::uint64_t key = 0;  ///< caller's tag for the fd (connection id)
  bool readable = false;
  bool writable = false;
  bool error = false;     ///< EPOLLERR/EPOLLHUP-class condition
};

/// Interest bits for watch()/rearm().
inline constexpr unsigned kInterestRead = 1u << 0;
inline constexpr unsigned kInterestWrite = 1u << 1;

class Poller {
 public:
  Poller();
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// False when the epoll instance could not be created.
  bool ok() const { return epfd_ >= 0; }

  /// Registers fd with the given interest (possibly 0: parked but tracked).
  bool watch(int fd, unsigned interest, std::uint64_t key);
  /// Changes the interest set of a registered fd.
  bool rearm(int fd, unsigned interest);
  /// Deregisters fd (must be called before the fd is closed).
  void forget(int fd);

  /// Blocks up to timeout_ms (-1 = forever) and appends ready fds to `out`.
  /// Returns false on an unrecoverable epoll error (EINTR is retried
  /// internally and surfaces as an empty wait, not a failure).
  bool wait(int timeout_ms, std::vector<Ready>& out);

 private:
  int epfd_;
  /// fd -> key, so rearm() does not need the key replumbed through callers.
  std::unordered_map<int, std::uint64_t> keys_;
};

}  // namespace osn::net
