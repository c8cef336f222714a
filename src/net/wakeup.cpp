#include "net/wakeup.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cstdint>

namespace osn::net {

bool Wakeup::open() {
  close();
  fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  return fd_ >= 0;
}

void Wakeup::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void Wakeup::signal() {
  if (fd_ < 0) return;
  const std::uint64_t one = 1;
  // EAGAIN only when the counter would overflow: the loop is waking anyway,
  // so dropping this signal is correct, not lossy.
  [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof(one));
}

void Wakeup::drain() {
  if (fd_ < 0) return;
  std::uint64_t count = 0;
  // One read resets the eventfd counter.
  [[maybe_unused]] const ssize_t n = ::read(fd_, &count, sizeof(count));
}

}  // namespace osn::net
