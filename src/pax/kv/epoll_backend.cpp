#include "pax/kv/epoll_backend.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "pax/common/log.hpp"

namespace pax::kv {

namespace {

constexpr std::uint64_t kListenerKey = 0;
constexpr std::uint64_t kWakeKey = 1;

// How long accepting stays paused after a persistent accept failure before
// wait() re-arms the listener on its own.
constexpr std::chrono::milliseconds kAcceptRetry{100};

}  // namespace

EpollBackend::~EpollBackend() {
  if (ep_ >= 0) ::close(ep_);
}

Status EpollBackend::init(int listen_fd, int wake_fd) {
  listen_fd_ = listen_fd;
  wake_fd_ = wake_fd;
  ep_ = epoll_create1(EPOLL_CLOEXEC);
  if (ep_ < 0) return io_error("epoll_create1 failed");
  if (!ctl(EPOLL_CTL_ADD, listen_fd_, EPOLLIN, kListenerKey)) {
    return io_error("epoll_ctl(listener) failed");
  }
  if (!ctl(EPOLL_CTL_ADD, wake_fd_, EPOLLIN, kWakeKey)) {
    return io_error("epoll_ctl(wake) failed");
  }
  return Status::ok();
}

Status EpollBackend::add_conn(std::uint64_t conn_id, int fd) {
  ConnState st;
  st.fd = fd;
  // Registered with an empty mask: EPOLLERR/EPOLLHUP are always reported;
  // EPOLLIN arrives once a recv is armed.
  if (!ctl(EPOLL_CTL_ADD, fd, 0, conn_id)) {
    return io_error("epoll_ctl(add conn) failed");
  }
  conns_.emplace(conn_id, st);
  return Status::ok();
}

void EpollBackend::remove_conn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  epoll_ctl(ep_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns_.erase(it);
}

void EpollBackend::arm_recv(std::uint64_t conn_id, void* buf,
                            std::size_t len) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  it->second.rbuf = buf;
  it->second.rlen = len;
  it->second.want_recv = true;
  mark_dirty(conn_id, it->second);
}

void EpollBackend::arm_send(std::uint64_t conn_id, const void* buf,
                            std::size_t len) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // Eager attempt: most sends complete without waiting for EPOLLOUT.
  const ssize_t n = ::send(it->second.fd, buf, len, MSG_NOSIGNAL);
  if (n >= 0) {
    ready_.push_back({BackendEvent::Kind::kSend, conn_id, -1, n});
    return;
  }
  if (errno != EAGAIN && errno != EWOULDBLOCK) {
    ready_.push_back({BackendEvent::Kind::kSend, conn_id, -1, -errno});
    return;
  }
  it->second.sbuf = buf;
  it->second.slen = len;
  it->second.want_send = true;
  mark_dirty(conn_id, it->second);
}

void EpollBackend::resume_accepts() {
  if (!accepts_paused_) return;
  if (ctl(EPOLL_CTL_ADD, listen_fd_, EPOLLIN, kListenerKey)) {
    accepts_paused_ = false;
  }
}

std::size_t EpollBackend::wait(std::span<BackendEvent> out, int timeout_ms) {
  if (accepts_paused_) {
    const Clock::time_point now = Clock::now();
    if (now >= accept_retry_at_) {
      resume_accepts();
    } else {
      // Wake up in time for the retry (rounded up: never early).
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          accept_retry_at_ - now);
      const int left_ms = static_cast<int>(left.count());
      if (timeout_ms < 0 || left_ms < timeout_ms) timeout_ms = left_ms;
    }
  }
  apply_dirty();
  if (!ready_.empty()) timeout_ms = 0;  // don't block on queued events
  std::array<epoll_event, 64> events;
  const int n = epoll_wait(ep_, events.data(),
                           static_cast<int>(events.size()), timeout_ms);
  for (int i = 0; i < n; ++i) {
    const epoll_event& ev = events[static_cast<std::size_t>(i)];
    dispatch(ev.data.u64, ev.events);
  }
  std::size_t delivered = 0;
  while (delivered < out.size() && !ready_.empty()) {
    out[delivered++] = ready_.front();
    ready_.pop_front();
  }
  return delivered;
}

bool EpollBackend::ctl(int op, int fd, std::uint32_t mask,
                       std::uint64_t key) {
  epoll_event ev{};
  ev.events = mask;
  ev.data.u64 = key;
  return epoll_ctl(ep_, op, fd, &ev) == 0;
}

void EpollBackend::mark_dirty(std::uint64_t conn_id, ConnState& st) {
  if (!st.dirty) {
    st.dirty = true;
    dirty_.push_back(conn_id);
  }
}

void EpollBackend::apply_dirty() {
  for (const std::uint64_t id : dirty_) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    ConnState& st = it->second;
    st.dirty = false;
    std::uint32_t mask = 0;
    if (st.want_recv) mask |= EPOLLIN | EPOLLRDHUP;
    if (st.want_send) mask |= EPOLLOUT;
    if (mask != st.armed_mask) {
      if (ctl(EPOLL_CTL_MOD, st.fd, mask, id)) st.armed_mask = mask;
    }
  }
  dirty_.clear();
}

void EpollBackend::dispatch(std::uint64_t key, std::uint32_t events) {
  if (key == kListenerKey) {
    drain_accepts();
    return;
  }
  if (key == kWakeKey) {
    std::uint64_t drained = 0;
    while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
    }
    ready_.push_back({BackendEvent::Kind::kWake, 0, -1, 0});
    return;
  }
  auto it = conns_.find(key);
  if (it == conns_.end()) return;
  ConnState& st = it->second;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    ready_.push_back({BackendEvent::Kind::kHangup, key, -1, 0});
    return;
  }
  if ((events & (EPOLLIN | EPOLLRDHUP)) != 0 && st.want_recv) {
    const ssize_t n = ::recv(st.fd, st.rbuf, st.rlen, 0);
    if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      st.want_recv = false;
      mark_dirty(key, st);
      ready_.push_back(
          {BackendEvent::Kind::kRecv, key, -1, n >= 0 ? n : -errno});
    }
  }
  if ((events & EPOLLOUT) != 0 && st.want_send) {
    const ssize_t n = ::send(st.fd, st.sbuf, st.slen, MSG_NOSIGNAL);
    if (n >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      st.want_send = false;
      mark_dirty(key, st);
      ready_.push_back(
          {BackendEvent::Kind::kSend, key, -1, n >= 0 ? n : -errno});
    }
  }
}

void EpollBackend::drain_accepts() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      ready_.push_back({BackendEvent::Kind::kAccepted, 0, fd, 0});
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
      continue;  // per-connection hiccup: keep draining the backlog
    }
    // Persistent failure (EMFILE/ENFILE/ENOMEM/...): pause; see the
    // header for how accepting resumes.
    PAX_LOG_ERROR("accept4: %s; pausing accepts", std::strerror(errno));
    if (epoll_ctl(ep_, EPOLL_CTL_DEL, listen_fd_, nullptr) == 0) {
      accepts_paused_ = true;
      accept_retry_at_ = Clock::now() + kAcceptRetry;
    }
    return;
  }
}

}  // namespace pax::kv
