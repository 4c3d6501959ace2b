// KvServer — the PaxKV network serving frontend.
//
// N event-loop threads (loop_threads) each own an SO_REUSEPORT listener,
// a wake eventfd, and a disjoint set of connections; the kernel spreads
// incoming connections across the listeners. M shard workers — shared by
// every loop — own the data plane; an optional commit coordinator owns
// durability. The request path:
//
//   socket bytes → FrameParser → per-connection in-flight slot (responses
//   are sent strictly in request order) → the owning shard's dispatch
//   queue → shard worker executes against KvStore → completion (response
//   bytes) flows back to the ORIGINATING loop over that loop's MPSC queue
//   + eventfd wake → ordered prefix of ready responses is flushed to the
//   socket.
//
// There is no cross-loop connection state: a connection is born, served,
// and destroyed on one loop, so the hot path takes no lock that another
// loop contends on (the per-loop completion queue is the only
// producer/consumer handoff). Each loop drives its sockets through its own
// EpollBackend (epoll_backend.hpp): level-triggered epoll with direct
// syscalls behind an arm/complete contract.
//
// Per-connection pipelining falls out of the in-flight deque: a client may
// write any number of request frames before reading; the server caps the
// in-flight window (max_inflight_per_conn) by not re-arming the receive —
// TCP back-pressure does the rest.
//
// ── Durability: when is a write acknowledged? ─────────────────────────────
//
// GETs (and missed DELs) complete as soon as the shard worker executes
// them: they read the latest applied value. Successful PUT/DEL responses
// are governed by the commit mode:
//
//   kGroup        cross-shard epoch group commit. Writes are applied
//                 immediately but their responses are parked with the
//                 coordinator; the coordinator accumulates dirty shards
//                 and, every group_interval (or sooner at group_max_ops
//                 pending writes), issues ONE commit wave — one
//                 persist_async() per dirty shard, drains overlapping on
//                 each shard's epoch pipeline — then releases every parked
//                 response at once. One log-flush round per WAVE, not per
//                 write or per shard-batch.
//   kIndependent  per-shard commit: each worker commits its own shard
//                 after each drained batch, then releases that batch's
//                 write responses. The baseline group commit is measured
//                 against (bench/abl_paxkv.cpp): at N shards it issues up
//                 to N log-flush rounds where a wave issues one.
//   kVolatile     acknowledge on apply; no commits at all. Upper bound on
//                 throughput, no durability — for measurement only.
//
// In both durable modes a response leaving the socket implies the write
// (and, per epoch ordering, every earlier write on that shard) is durable
// on its shard's PM. The crash-consistency contract across shards is the
// wave cut: tests/kv_group_commit_crash_test.cpp.
//
// Threading summary: loop_threads event-loop threads (each owns its Conns
// exclusively), one thread per shard (owns that shard's ops), coordinator
// thread (kGroup), all cross-thread traffic via mutex-guarded queues —
// TSan-clean by construction (tests/kv_server_test.cpp rides in the TSan
// CI job, including the multi-loop torture case).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pax/common/status.hpp"
#include "pax/kv/epoll_backend.hpp"
#include "pax/kv/protocol.hpp"
#include "pax/kv/store.hpp"

namespace pax::kv {

struct KvServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read the bound port from port()
  KvStoreOptions store;

  enum class CommitMode { kGroup, kIndependent, kVolatile };
  CommitMode commit_mode = CommitMode::kGroup;

  /// Event-loop threads, each with its own SO_REUSEPORT listener and
  /// disjoint connection set (clamped to >= 1).
  std::size_t loop_threads = 1;

  /// kGroup cadence: a wave fires when this many write acks are pending…
  std::uint64_t group_max_ops = 256;
  /// …or this long after the first of them arrived, whichever is first.
  std::chrono::microseconds group_interval{200};

  /// Reads pause once a connection has this many responses outstanding.
  std::size_t max_inflight_per_conn = 1024;
};

struct KvServerStats {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_closed = 0;
  std::uint64_t requests = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t puts = 0;
  std::uint64_t dels = 0;
  std::uint64_t stats_requests = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class KvServer {
 public:
  /// Binds, listens, and spawns the event loops, shard workers, and (in
  /// kGroup mode) the commit coordinator. Returns with the server live.
  static Result<std::unique_ptr<KvServer>> start(
      const KvServerOptions& options);

  /// stop() + join everything.
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// The bound TCP port (useful with port = 0). All listeners share it.
  std::uint16_t port() const { return port_; }

  /// Number of event-loop threads actually running.
  std::size_t loop_count() const { return loops_.size(); }

  /// Graceful shutdown: stops accepting, joins all threads, closes every
  /// connection. Idempotent. Parked write acks are completed (their wave
  /// is flushed) before the coordinator exits.
  void stop();

  KvStore& store() { return *store_; }
  KvServerStats stats() const;

  /// The STATS payload: server counters plus serving-plane shape (loops)
  /// plus, per shard, the runtime's RuntimeStats/SyncStats,
  /// PipelineStats, device log-flush counters, and the group-commit wave
  /// stats — the observability surface for tuning under live traffic.
  std::string stats_json() const;

 private:
  struct Op {
    std::uint32_t loop = 0;  // originating event loop (completion routing)
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    OpCode op = OpCode::kGet;
    std::string key;
    std::string value;
  };

  struct Completion {
    std::uint32_t loop = 0;
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::vector<std::byte> resp;
  };

  struct Pending {
    bool ready = false;
    std::vector<std::byte> resp;
  };

  struct Conn {
    std::uint64_t id = 0;
    FrameParser parser;
    std::uint64_t next_seq = 0;  // seq of the next request parsed
    std::uint64_t base_seq = 0;  // seq of inflight.front()
    std::deque<Pending> inflight;
    std::vector<std::byte> rbuf;  // receive buffer (stable: the backend
                                  // keeps a pointer into it while a recv
                                  // is armed)
    std::vector<std::byte> out;   // ordered response bytes being sent
    std::size_t out_off = 0;
    bool recv_armed = false;
    bool send_armed = false;
    bool paused_read = false;  // in-flight cap reached: recv not re-armed
  };

  // One per event-loop thread. Everything here except comp_mu/completions
  // is owned exclusively by that thread (no locks on the socket hot path).
  struct EventLoop {
    std::size_t index = 0;
    int listen_fd = -1;  // this loop's SO_REUSEPORT listener
    int wake_fd = -1;
    EpollBackend backend;
    std::thread thread;

    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
    std::uint64_t next_conn_id = 2;  // 0/1 reserved (listener, wake)

    // This loop's MPSC completion queue: workers/coordinator → loop.
    std::mutex comp_mu;
    std::vector<Completion> completions;
  };

  struct ShardWorker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Op> queue;
    bool stop = false;
    std::thread thread;
  };

  KvServer() = default;

  Status setup_listeners(const KvServerOptions& options);
  void event_loop(EventLoop& loop);
  void on_accepted(EventLoop& loop, int fd);
  void on_recv(EventLoop& loop, std::uint64_t conn_id, ssize_t result);
  void on_send(EventLoop& loop, std::uint64_t conn_id, ssize_t result);
  bool handle_request(EventLoop& loop, Conn& conn, const Request& req);
  void arm_recv(EventLoop& loop, Conn& conn);
  /// Moves the ready response prefix out and keeps exactly one send armed.
  void try_flush(EventLoop& loop, Conn& conn);
  void close_conn(EventLoop& loop, std::uint64_t conn_id);
  void drain_completions(EventLoop& loop);
  void shutdown_loop(EventLoop& loop);

  void worker_loop(std::size_t shard);
  void execute_op(std::size_t shard, const Op& op,
                  std::vector<Completion>* deferred_writes);
  void coordinator_loop();

  /// Routes completions to their originating loops, one wake per loop.
  void post_completions(std::vector<Completion> batch);
  void wake_loop(EventLoop& loop);

  KvServerOptions options_;
  std::unique_ptr<KvStore> store_;
  std::uint16_t port_ = 0;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<bool> stop_{false};
  bool stopped_ = false;  // join-once latch (main thread)

  std::vector<std::unique_ptr<ShardWorker>> workers_;

  // kGroup coordinator state: write acks parked until their wave commits.
  std::mutex co_mu_;
  std::condition_variable co_cv_;
  std::vector<Completion> parked_writes_;
  bool co_stop_ = false;
  std::thread co_thread_;

  // Counters (relaxed atomics: single-writer or monotonic).
  std::atomic<std::uint64_t> conns_accepted_{0};
  std::atomic<std::uint64_t> conns_closed_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> gets_{0};
  std::atomic<std::uint64_t> get_hits_{0};
  std::atomic<std::uint64_t> puts_{0};
  std::atomic<std::uint64_t> dels_{0};
  std::atomic<std::uint64_t> stats_requests_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
};

}  // namespace pax::kv
