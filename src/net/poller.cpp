#include "net/poller.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>

namespace osn::net {

namespace {

epoll_event make_event(unsigned interest, std::uint64_t key) {
  epoll_event ev{};
  ev.events = 0;  // level-triggered by default
  if ((interest & kInterestRead) != 0) ev.events |= EPOLLIN;
  if ((interest & kInterestWrite) != 0) ev.events |= EPOLLOUT;
  ev.data.u64 = key;
  return ev;
}

}  // namespace

Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {}

Poller::~Poller() {
  if (epfd_ >= 0) ::close(epfd_);
}

bool Poller::watch(int fd, unsigned interest, std::uint64_t key) {
  keys_[fd] = key;
  epoll_event ev = make_event(interest, key);
  return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool Poller::rearm(int fd, unsigned interest) {
  const auto it = keys_.find(fd);
  if (it == keys_.end()) return false;
  epoll_event ev = make_event(interest, it->second);
  return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void Poller::forget(int fd) {
  keys_.erase(fd);
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

bool Poller::wait(int timeout_ms, std::vector<Ready>& out) {
  epoll_event events[256];
  int n;
  do {
    n = ::epoll_wait(epfd_, events, 256, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return false;
  for (int i = 0; i < n; ++i) {
    Ready r;
    r.key = events[i].data.u64;
    r.readable = (events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0;
    r.writable = (events[i].events & EPOLLOUT) != 0;
    r.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(r);
  }
  return true;
}

}  // namespace osn::net
