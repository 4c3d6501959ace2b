// EpollBackend — the per-event-loop I/O engine behind KvServer.
//
// Each event loop owns exactly one backend, its SO_REUSEPORT listener, its
// wake eventfd, and its connections. The backend turns epoll readiness
// into a completion-style contract, so the server's connection state
// machine — frame parsing, in-flight ordering, commit modes — only ever
// sees completed I/O.
//
// The contract:
//
//   * arm_recv()/arm_send() each request exactly ONE completion (kRecv /
//     kSend) carrying the byte count or -errno. At most one of each may be
//     outstanding per connection; buffers must stay valid (and unmoved)
//     until the completion is delivered.
//   * kAccepted delivers a new, non-blocking connection socket; the caller
//     then add_conn()s it under a caller-chosen id.
//   * kWake is delivered when the wake eventfd was written (cross-thread
//     nudge); the backend drains the eventfd counter itself.
//   * kHangup reports a peer disconnect noticed outside a recv
//     (EPOLLHUP/EPOLLERR).
//   * remove_conn() deregisters and closes the socket. Events already
//     queued for that id may still be delivered, so the caller never
//     reuses an id and drops events for ids it no longer knows.
//
// Level-triggered epoll with lazily-applied interest masks: EPOLLIN is
// subscribed only while a recv is armed and EPOLLOUT only while a send
// could not complete eagerly, so an idle (or read-paused) connection never
// spins the loop. arm_send() first tries the send() syscall inline — on
// anything but EAGAIN the completion is queued immediately and the next
// wait() returns without blocking. Mask changes are batched and applied
// with one epoll_ctl(MOD) per dirty connection at wait() entry, so the
// common arm→complete→re-arm cycle costs zero extra syscalls when the
// mask lands back where it started.
//
// On a persistent accept failure (EMFILE and friends) a level-triggered
// listener would spin epoll_wait at 100% CPU, so accepting pauses: the
// listener leaves the epoll set until resume_accepts() (the caller freed
// an fd) or until wait() finds 100 ms have passed. The timed retry
// matters for a loop that owns no connection it could close to free one.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "pax/common/status.hpp"

namespace pax::kv {

struct BackendEvent {
  enum class Kind : std::uint8_t {
    kAccepted,  // fd = new connection socket
    kRecv,      // conn_id, result = bytes (0 = EOF) or -errno
    kSend,      // conn_id, result = bytes or -errno
    kWake,      // wake eventfd was written
    kHangup     // conn_id: peer hung up / socket error
  };
  Kind kind = Kind::kWake;
  std::uint64_t conn_id = 0;
  int fd = -1;
  ssize_t result = 0;
};

class EpollBackend {
 public:
  EpollBackend() = default;
  ~EpollBackend();
  EpollBackend(const EpollBackend&) = delete;
  EpollBackend& operator=(const EpollBackend&) = delete;

  /// Registers the (already listening, SO_REUSEPORT) listener socket and
  /// the wake eventfd; starts accepting. Both fds stay owned by the
  /// caller and must outlive the backend.
  Status init(int listen_fd, int wake_fd);

  /// Registers a connection socket under `conn_id` (caller-unique, >= 2).
  Status add_conn(std::uint64_t conn_id, int fd);

  /// Deregisters and closes the connection's socket.
  void remove_conn(std::uint64_t conn_id);

  /// Requests one receive into [buf, buf+len) → one kRecv completion.
  void arm_recv(std::uint64_t conn_id, void* buf, std::size_t len);

  /// Requests one send of [buf, buf+len) → one kSend completion (partial
  /// writes allowed; the caller re-arms with the remainder).
  void arm_send(std::uint64_t conn_id, const void* buf, std::size_t len);

  /// Re-arms a paused listener (no-op while accepting).
  void resume_accepts();

  /// Blocks up to timeout_ms; fills `out` with ready events. Returns the
  /// number delivered (0 = timeout or EINTR); the rest stay queued.
  std::size_t wait(std::span<BackendEvent> out, int timeout_ms);

 private:
  using Clock = std::chrono::steady_clock;

  struct ConnState {
    int fd = -1;
    bool want_recv = false;
    bool want_send = false;
    void* rbuf = nullptr;
    std::size_t rlen = 0;
    const void* sbuf = nullptr;
    std::size_t slen = 0;
    std::uint32_t armed_mask = 0;  // mask currently installed in epoll
    bool dirty = false;
  };

  bool ctl(int op, int fd, std::uint32_t mask, std::uint64_t key);
  void mark_dirty(std::uint64_t conn_id, ConnState& st);
  void apply_dirty();
  void dispatch(std::uint64_t key, std::uint32_t events);
  void drain_accepts();

  int ep_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  bool accepts_paused_ = false;
  Clock::time_point accept_retry_at_{};
  std::unordered_map<std::uint64_t, ConnState> conns_;
  std::deque<BackendEvent> ready_;
  std::vector<std::uint64_t> dirty_;
};

}  // namespace pax::kv
