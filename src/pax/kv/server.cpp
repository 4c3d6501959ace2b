#include "pax/kv/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <utility>

#include "pax/common/check.hpp"
#include "pax/common/log.hpp"

namespace pax::kv {

namespace {

constexpr std::size_t kRecvBufBytes = 16 << 10;

const char* commit_mode_name(KvServerOptions::CommitMode mode) {
  switch (mode) {
    case KvServerOptions::CommitMode::kGroup:
      return "group";
    case KvServerOptions::CommitMode::kIndependent:
      return "independent";
    case KvServerOptions::CommitMode::kVolatile:
      return "volatile";
  }
  return "?";
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(n, sizeof(buf) - 1));
}

}  // namespace

Result<std::unique_ptr<KvServer>> KvServer::start(
    const KvServerOptions& options) {
  auto server = std::unique_ptr<KvServer>(new KvServer());
  server->options_ = options;
  if (server->options_.loop_threads == 0) server->options_.loop_threads = 1;

  auto store = KvStore::create_in_memory(options.store);
  if (!store.ok()) return store.status();
  server->store_ = std::move(store).value();

  PAX_RETURN_IF_ERROR(server->setup_listeners(server->options_));

  const std::size_t shards = server->store_->shard_count();
  server->workers_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    server->workers_.push_back(std::make_unique<ShardWorker>());
  }
  for (std::size_t i = 0; i < shards; ++i) {
    server->workers_[i]->thread =
        std::thread([srv = server.get(), i] { srv->worker_loop(i); });
  }
  if (options.commit_mode == KvServerOptions::CommitMode::kGroup) {
    server->co_thread_ =
        std::thread([srv = server.get()] { srv->coordinator_loop(); });
  }
  for (auto& loop : server->loops_) {
    loop->thread = std::thread(
        [srv = server.get(), lp = loop.get()] { srv->event_loop(*lp); });
  }

  PAX_LOG_INFO("paxkv serving on %s:%u (%zu shards, %s commit, %zu loops)",
               options.bind_address.c_str(), server->port_, shards,
               commit_mode_name(options.commit_mode), server->loops_.size());
  return server;
}

Status KvServer::setup_listeners(const KvServerOptions& options) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) != 1) {
    return invalid_argument("bad bind address: " + options.bind_address);
  }

  loops_.reserve(options.loop_threads);
  for (std::size_t i = 0; i < options.loop_threads; ++i) {
    auto loop = std::make_unique<EventLoop>();
    loop->index = i;

    loop->listen_fd =
        socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (loop->listen_fd < 0) return io_error("socket failed");
    const int one = 1;
    setsockopt(loop->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    // SO_REUSEPORT on every listener: the kernel hashes incoming
    // connections across the loops' accept queues.
    setsockopt(loop->listen_fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));

    // Loop 0 may bind port 0 (ephemeral); the rest bind the resolved port.
    addr.sin_port = htons(i == 0 ? options.port : port_);
    if (bind(loop->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
      return io_error(std::string("bind failed: ") + std::strerror(errno));
    }
    if (listen(loop->listen_fd, 128) < 0) return io_error("listen failed");
    if (i == 0) {
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (getsockname(loop->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                      &len) < 0) {
        return io_error("getsockname failed");
      }
      port_ = ntohs(bound.sin_port);
    }

    loop->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->wake_fd < 0) return io_error("eventfd failed");

    PAX_RETURN_IF_ERROR(loop->backend.init(loop->listen_fd, loop->wake_fd));
    loops_.push_back(std::move(loop));
  }
  return Status::ok();
}

KvServer::~KvServer() { stop(); }

void KvServer::stop() {
  if (stopped_) return;
  stopped_ = true;

  // Workers first: no new write acks get parked after they exit.
  for (auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mu);
      worker->stop = true;
    }
    worker->cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // Coordinator flushes any still-parked acks in a final wave, then exits.
  if (co_thread_.joinable()) {
    {
      std::lock_guard lock(co_mu_);
      co_stop_ = true;
    }
    co_cv_.notify_all();
    co_thread_.join();
  }
  stop_.store(true, std::memory_order_release);
  for (auto& loop : loops_) wake_loop(*loop);
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (auto& loop : loops_) shutdown_loop(*loop);
  loops_.clear();
}

void KvServer::shutdown_loop(EventLoop& loop) {
  // The loop thread has exited; single-threaded now.
  for (const auto& [id, conn] : loop.conns) loop.backend.remove_conn(id);
  loop.conns.clear();
  if (loop.wake_fd >= 0) ::close(loop.wake_fd);
  if (loop.listen_fd >= 0) ::close(loop.listen_fd);
  loop.wake_fd = loop.listen_fd = -1;
}

void KvServer::wake_loop(EventLoop& loop) {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(loop.wake_fd, &one, sizeof(one));
}

void KvServer::event_loop(EventLoop& loop) {
  std::array<BackendEvent, 64> events;
  while (!stop_.load(std::memory_order_acquire)) {
    const std::size_t n = loop.backend.wait(events, /*timeout_ms=*/100);
    for (std::size_t i = 0; i < n; ++i) {
      const BackendEvent& ev = events[i];
      switch (ev.kind) {
        case BackendEvent::Kind::kAccepted:
          on_accepted(loop, ev.fd);
          break;
        case BackendEvent::Kind::kRecv:
          on_recv(loop, ev.conn_id, ev.result);
          break;
        case BackendEvent::Kind::kSend:
          on_send(loop, ev.conn_id, ev.result);
          break;
        case BackendEvent::Kind::kWake:
          drain_completions(loop);
          break;
        case BackendEvent::Kind::kHangup:
          close_conn(loop, ev.conn_id);
          break;
      }
    }
  }
}

void KvServer::on_accepted(EventLoop& loop, int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto conn = std::make_unique<Conn>();
  conn->id = loop.next_conn_id++;
  conn->rbuf.resize(kRecvBufBytes);
  if (!loop.backend.add_conn(conn->id, fd).is_ok()) {
    ::close(fd);
    return;
  }
  Conn& ref = *conn;
  loop.conns.emplace(ref.id, std::move(conn));
  conns_accepted_.fetch_add(1, std::memory_order_relaxed);
  arm_recv(loop, ref);
}

void KvServer::arm_recv(EventLoop& loop, Conn& conn) {
  conn.recv_armed = true;
  loop.backend.arm_recv(conn.id, conn.rbuf.data(), conn.rbuf.size());
}

void KvServer::on_recv(EventLoop& loop, std::uint64_t conn_id,
                       ssize_t result) {
  auto it = loop.conns.find(conn_id);
  if (it == loop.conns.end()) return;
  Conn& conn = *it->second;
  conn.recv_armed = false;
  if (result <= 0) {
    close_conn(loop, conn_id);  // EOF or socket error
    return;
  }
  bytes_in_.fetch_add(static_cast<std::uint64_t>(result),
                      std::memory_order_relaxed);
  conn.parser.feed(conn.rbuf.data(), static_cast<std::size_t>(result));
  for (;;) {
    auto req = conn.parser.next_request();
    if (!req.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      close_conn(loop, conn_id);
      return;
    }
    if (!req.value().has_value()) break;
    if (!handle_request(loop, conn, *req.value())) return;
  }
  if (conn.inflight.size() >= options_.max_inflight_per_conn) {
    conn.paused_read = true;  // resume in try_flush once below the cap
    return;
  }
  arm_recv(loop, conn);
}

bool KvServer::handle_request(EventLoop& loop, Conn& conn,
                              const Request& req) {
  const std::uint64_t seq = conn.next_seq++;
  conn.inflight.emplace_back();
  requests_.fetch_add(1, std::memory_order_relaxed);

  if (req.op == OpCode::kStats) {
    stats_requests_.fetch_add(1, std::memory_order_relaxed);
    Pending& slot = conn.inflight.back();
    append_response(slot.resp, RespStatus::kOk, stats_json());
    slot.ready = true;
    try_flush(loop, conn);
    return true;
  }

  Op op;
  op.loop = static_cast<std::uint32_t>(loop.index);
  op.conn_id = conn.id;
  op.seq = seq;
  op.op = req.op;
  op.key.assign(req.key);
  op.value.assign(req.value);

  ShardWorker& worker = *workers_[store_->shard_for(req.key)];
  {
    std::lock_guard lock(worker.mu);
    worker.queue.push_back(std::move(op));
  }
  worker.cv.notify_one();
  return true;
}

void KvServer::try_flush(EventLoop& loop, Conn& conn) {
  // While a send is armed the backend holds a pointer into conn.out — the
  // buffer must not grow or move. Newly-ready responses wait in their
  // in-flight slots until the send completes.
  if (conn.send_armed) return;

  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
    // Move the ready prefix of the in-flight window into the output
    // buffer — responses leave in request order, whatever order shards
    // finished in.
    while (!conn.inflight.empty() && conn.inflight.front().ready) {
      Pending& front = conn.inflight.front();
      conn.out.insert(conn.out.end(), front.resp.begin(), front.resp.end());
      conn.inflight.pop_front();
      ++conn.base_seq;
    }
  }

  if (conn.paused_read &&
      conn.inflight.size() < options_.max_inflight_per_conn) {
    conn.paused_read = false;
    if (!conn.recv_armed) arm_recv(loop, conn);
  }

  if (conn.out_off < conn.out.size()) {
    conn.send_armed = true;
    loop.backend.arm_send(conn.id, conn.out.data() + conn.out_off,
                          conn.out.size() - conn.out_off);
  }
}

void KvServer::on_send(EventLoop& loop, std::uint64_t conn_id,
                       ssize_t result) {
  auto it = loop.conns.find(conn_id);
  if (it == loop.conns.end()) return;
  Conn& conn = *it->second;
  conn.send_armed = false;
  if (result < 0) {
    close_conn(loop, conn_id);
    return;
  }
  bytes_out_.fetch_add(static_cast<std::uint64_t>(result),
                       std::memory_order_relaxed);
  conn.out_off += static_cast<std::size_t>(result);
  try_flush(loop, conn);
}

void KvServer::close_conn(EventLoop& loop, std::uint64_t conn_id) {
  if (loop.conns.erase(conn_id) == 0) return;
  conns_closed_.fetch_add(1, std::memory_order_relaxed);
  loop.backend.remove_conn(conn_id);
  loop.backend.resume_accepts();  // an fd just freed up (no-op otherwise)
}

void KvServer::drain_completions(EventLoop& loop) {
  std::vector<Completion> batch;
  {
    std::lock_guard lock(loop.comp_mu);
    batch.swap(loop.completions);
  }
  for (Completion& c : batch) {
    auto it = loop.conns.find(c.conn_id);
    if (it == loop.conns.end()) continue;  // connection died with ops in flight
    Conn& conn = *it->second;
    const std::uint64_t idx = c.seq - conn.base_seq;
    PAX_CHECK_MSG(idx < conn.inflight.size(),
                  "completion outside the in-flight window");
    Pending& slot = conn.inflight[static_cast<std::size_t>(idx)];
    slot.resp = std::move(c.resp);
    slot.ready = true;
  }
  // One flush pass per drained connection set (flushing per completion
  // would re-walk the deque needlessly; ready-prefix flushing is cheap).
  // try_flush cannot close a connection (errors surface as kSend
  // completions), but collect ids first anyway to keep iteration simple.
  std::vector<std::uint64_t> to_flush;
  to_flush.reserve(loop.conns.size());
  for (auto& [id, conn] : loop.conns) {
    if (!conn->inflight.empty() && conn->inflight.front().ready) {
      to_flush.push_back(id);
    }
  }
  for (const std::uint64_t id : to_flush) {
    auto it = loop.conns.find(id);
    if (it != loop.conns.end()) try_flush(loop, *it->second);
  }
}

void KvServer::post_completions(std::vector<Completion> batch) {
  if (batch.empty()) return;
  // Partition by originating loop; one queue append + one wake per loop.
  for (auto& loop : loops_) {
    bool any = false;
    {
      std::lock_guard lock(loop->comp_mu);
      for (Completion& c : batch) {
        if (c.loop == loop->index) {
          loop->completions.push_back(std::move(c));
          any = true;
        }
      }
    }
    if (any) wake_loop(*loop);
  }
}

void KvServer::worker_loop(std::size_t shard) {
  ShardWorker& worker = *workers_[shard];
  const bool independent =
      options_.commit_mode == KvServerOptions::CommitMode::kIndependent;
  const bool group =
      options_.commit_mode == KvServerOptions::CommitMode::kGroup;

  std::unique_lock lock(worker.mu);
  for (;;) {
    worker.cv.wait(lock,
                   [&worker] { return worker.stop || !worker.queue.empty(); });
    if (worker.queue.empty()) {
      if (worker.stop) return;
      continue;
    }
    std::deque<Op> batch;
    batch.swap(worker.queue);
    lock.unlock();

    // execute_op appends to `deferred` only for acked writes in durable
    // modes; everything else posts to its loop's completion queue inline.
    std::vector<Completion> deferred;
    for (const Op& op : batch) {
      execute_op(shard, op, group || independent ? &deferred : nullptr);
    }

    if (!deferred.empty()) {
      if (independent) {
        // Per-shard commit: this shard alone, one log-flush round per
        // worker batch. The group-commit baseline.
        auto committed = store_->group().commit_one(shard);
        if (!committed.ok()) {
          for (Completion& c : deferred) {
            c.resp.clear();
            append_response(c.resp, RespStatus::kError);
          }
        }
        post_completions(std::move(deferred));
      } else {
        // Group mode: park the acks with the coordinator; the next wave
        // releases them.
        std::lock_guard glock(co_mu_);
        if (parked_writes_.empty()) {
          oldest_parked_ = std::chrono::steady_clock::now();
        }
        for (Completion& c : deferred) {
          parked_writes_.push_back(std::move(c));
        }
        co_cv_.notify_one();
      }
    }
    lock.lock();
  }
}

void KvServer::execute_op(std::size_t shard, const Op& op,
                          std::vector<Completion>* deferred_writes) {
  (void)shard;
  Completion c;
  c.loop = op.loop;
  c.conn_id = op.conn_id;
  c.seq = op.seq;
  bool durable_write = false;

  switch (op.op) {
    case OpCode::kGet: {
      gets_.fetch_add(1, std::memory_order_relaxed);
      std::string value;
      if (store_->get(op.key, &value)) {
        get_hits_.fetch_add(1, std::memory_order_relaxed);
        append_response(c.resp, RespStatus::kOk, value);
      } else {
        append_response(c.resp, RespStatus::kNotFound);
      }
      break;
    }
    case OpCode::kPut: {
      puts_.fetch_add(1, std::memory_order_relaxed);
      store_->put(op.key, op.value);
      append_response(c.resp, RespStatus::kOk);
      durable_write = true;
      break;
    }
    case OpCode::kDel: {
      dels_.fetch_add(1, std::memory_order_relaxed);
      const bool removed = store_->erase(op.key);
      append_response(c.resp,
                      removed ? RespStatus::kOk : RespStatus::kNotFound);
      // A miss mutated nothing — nothing to make durable before the ack.
      durable_write = removed;
      break;
    }
    case OpCode::kStats:
      // Handled on the event loop; a shard worker never sees it.
      append_response(c.resp, RespStatus::kBadRequest);
      break;
  }

  if (durable_write && deferred_writes != nullptr) {
    deferred_writes->push_back(std::move(c));
  } else {
    std::vector<Completion> one;
    one.push_back(std::move(c));
    post_completions(std::move(one));
  }
}

void KvServer::coordinator_loop() {
  std::unique_lock lock(co_mu_);
  for (;;) {
    if (parked_writes_.empty()) {
      // Idle: the first ack to park fires a wave at once.
      co_cv_.wait(lock,
                  [this] { return co_stop_ || !parked_writes_.empty(); });
    } else {
      // Acks parked while the last wave ran. Fire at group_max_ops, or
      // group_interval after the oldest of them parked — not a fresh
      // interval from now, which would add the last wave's duration to
      // their wait.
      co_cv_.wait_until(
          lock, oldest_parked_ + options_.group_interval, [this] {
            return co_stop_ ||
                   parked_writes_.size() >= options_.group_max_ops;
          });
    }
    if (parked_writes_.empty()) {
      if (co_stop_) return;
      continue;
    }
    std::vector<Completion> batch;
    batch.swap(parked_writes_);
    lock.unlock();
    if (options_.on_wave_start) options_.on_wave_start();

    // One wave covers every shard these acks touched (and any other shard
    // dirtied meanwhile): a single cross-shard log-flush round.
    auto wave = store_->group().commit_wave();
    if (!wave.ok()) {
      for (Completion& c : batch) {
        c.resp.clear();
        append_response(c.resp, RespStatus::kError);
      }
    }
    post_completions(std::move(batch));

    lock.lock();
    if (co_stop_ && parked_writes_.empty()) return;
  }
}

KvServerStats KvServer::stats() const {
  KvServerStats s;
  s.conns_accepted = conns_accepted_.load(std::memory_order_relaxed);
  s.conns_closed = conns_closed_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.gets = gets_.load(std::memory_order_relaxed);
  s.get_hits = get_hits_.load(std::memory_order_relaxed);
  s.puts = puts_.load(std::memory_order_relaxed);
  s.dels = dels_.load(std::memory_order_relaxed);
  s.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return s;
}

std::string KvServer::stats_json() const {
  const KvServerStats s = stats();
  const libpax::GroupCommitStats g = store_->group().stats();
  const std::uint64_t flushes = store_->total_log_flushes();
  const std::uint64_t acked = g.wave_ops + g.independent_ops;

  std::string out;
  out.reserve(2048);
  out += "{\n";
  appendf(out, "  \"commit_mode\": \"%s\",\n",
          commit_mode_name(options_.commit_mode));
  appendf(out, "  \"loops\": %zu,\n", options_.loop_threads);
  appendf(out, "  \"shards\": %zu,\n", store_->shard_count());
  appendf(out, "  \"log_flushes_total\": %llu,\n",
          static_cast<unsigned long long>(flushes));
  appendf(out, "  \"acked_write_ops\": %llu,\n",
          static_cast<unsigned long long>(acked));
  appendf(out, "  \"log_flushes_per_acked_op\": %.6f,\n",
          acked == 0 ? 0.0
                     : static_cast<double>(flushes) /
                           static_cast<double>(acked));
  appendf(out,
          "  \"server\": {\"conns_accepted\": %llu, \"conns_closed\": %llu, "
          "\"requests\": %llu, \"gets\": %llu, \"get_hits\": %llu, "
          "\"puts\": %llu, \"dels\": %llu, \"stats_requests\": %llu, "
          "\"protocol_errors\": %llu, \"bytes_in\": %llu, "
          "\"bytes_out\": %llu},\n",
          static_cast<unsigned long long>(s.conns_accepted),
          static_cast<unsigned long long>(s.conns_closed),
          static_cast<unsigned long long>(s.requests),
          static_cast<unsigned long long>(s.gets),
          static_cast<unsigned long long>(s.get_hits),
          static_cast<unsigned long long>(s.puts),
          static_cast<unsigned long long>(s.dels),
          static_cast<unsigned long long>(s.stats_requests),
          static_cast<unsigned long long>(s.protocol_errors),
          static_cast<unsigned long long>(s.bytes_in),
          static_cast<unsigned long long>(s.bytes_out));
  appendf(out,
          "  \"group_commit\": {\"waves\": %llu, \"empty_waves\": %llu, "
          "\"wave_shard_seals\": %llu, \"wave_ops\": %llu, "
          "\"max_wave_shards\": %llu, \"max_wave_ops\": %llu, "
          "\"independent_commits\": %llu, \"independent_ops\": %llu},\n",
          static_cast<unsigned long long>(g.waves),
          static_cast<unsigned long long>(g.empty_waves),
          static_cast<unsigned long long>(g.wave_shard_seals),
          static_cast<unsigned long long>(g.wave_ops),
          static_cast<unsigned long long>(g.max_wave_shards),
          static_cast<unsigned long long>(g.max_wave_ops),
          static_cast<unsigned long long>(g.independent_commits),
          static_cast<unsigned long long>(g.independent_ops));
  out += "  \"shard_stats\": [\n";
  for (std::size_t i = 0; i < store_->shard_count(); ++i) {
    auto& rt = const_cast<KvStore*>(store_.get())->shard_runtime(i);
    const libpax::RuntimeStats r = rt.stats();
    const libpax::SyncStats sync = rt.sync_stats();
    const libpax::PipelineStats pipe = rt.pipeline_stats();
    const device::UndoLoggerStats log = rt.device().log_stats();
    appendf(out,
            "    {\"shard\": %zu, \"committed_epoch\": %llu, "
            "\"persists\": %llu, \"pages_diffed\": %llu, "
            "\"device_calls\": %llu, \"sync_batches\": %llu,\n",
            i, static_cast<unsigned long long>(rt.committed_epoch()),
            static_cast<unsigned long long>(r.persists),
            static_cast<unsigned long long>(r.pages_diffed),
            static_cast<unsigned long long>(r.device_calls),
            static_cast<unsigned long long>(r.sync_batches));
    appendf(out,
            "     \"sync\": {\"tracker\": \"%s\", \"pages_scanned\": %llu, "
            "\"lines_diffed\": %llu, \"lines_skipped\": %llu, "
            "\"lines_synced\": %llu},\n",
            rt.tracker_name(),
            static_cast<unsigned long long>(sync.pages_scanned),
            static_cast<unsigned long long>(sync.lines_diffed),
            static_cast<unsigned long long>(sync.lines_skipped),
            static_cast<unsigned long long>(sync.lines_synced));
    appendf(out,
            "     \"pipeline\": {\"async_persists\": %llu, "
            "\"jobs_drained\": %llu, \"backpressure_waits\": %llu},\n",
            static_cast<unsigned long long>(pipe.async_persists),
            static_cast<unsigned long long>(pipe.jobs_drained),
            static_cast<unsigned long long>(pipe.backpressure_waits));
    appendf(out,
            "     \"log\": {\"flushes\": %llu, \"records\": %llu, "
            "\"frames\": %llu, \"ring_full_stalls\": %llu}}%s\n",
            static_cast<unsigned long long>(log.flushes),
            static_cast<unsigned long long>(log.records),
            static_cast<unsigned long long>(log.frames),
            static_cast<unsigned long long>(log.ring_full_stalls),
            i + 1 < store_->shard_count() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace pax::kv
