// kv_write / kv_read: the real `paxkv` server (started by run.py as its
// own process: group commit, 2 shards, the default 200 us / 256-op wave
// cadence) driven closed-loop over loopback by one thread with 2
// connections at pipeline depth 8, over 100k preloaded keys with 128 B
// values. Each connection owns a disjoint half of the keys, so the last
// PUT it sent for a key is that key's expected value.
//
//   kv_write  70% PUT / 30% GET
//   kv_read    5% PUT / 95% GET
//
// `kv` mode is the client: preload, warm-up, the timed window, drain, then
// the correctness gate (GET every key of each slice). STATS documents and
// /proc/<pid>/stat are captured at the timed phase's edges, and the host's
// CPU line of /proc/stat at every window edge (its steal column tells
// which windows other tenants of the host slowed down). `kv-replay` mode
// applies the same generated op stream to an in-process KvStore of the
// server's shard count with one commit_wave() per kWaveOps PUTs: the PM
// counters behind pm_write_amp, and in traced runs the per-call timings of
// KvStore::put/get and commit_wave().
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <fstream>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "pax/kv/client.hpp"
#include "pax/kv/protocol.hpp"
#include "pax/kv/store.hpp"

namespace paxbench {
namespace {

using pax::kv::OpCode;
using pax::kv::RespStatus;

constexpr std::size_t kKeys = 100000;
constexpr std::size_t kShards = 2;  // paxkv --shards (run.py SERVER_ARGS)
constexpr std::size_t kThreads = 1;
constexpr std::size_t kConnsPerThread = 2;
constexpr std::size_t kConns = kThreads * kConnsPerThread;
constexpr std::size_t kDepth = 8;
// Preload and gate reads: 2 x 128 in flight keeps a preload wave within
// group_max_ops. Larger waves can overflow a shard's undo log extent
// while its map grows, and the server then fails the whole wave.
constexpr std::size_t kPreloadDepth = 128;
constexpr std::size_t kValueBytes = 128;
constexpr std::size_t kSliceKeys = kKeys / kConns;
constexpr double kWarmupSeconds = 1.0;
// Replies are binned by arrival into windows of this length (see run.py
// for how windows are summarised). Traced runs record spans in every odd
// window only: alternating cancels drift out of the tracing overhead.
constexpr std::int64_t kWindowNs = 250'000'000;
// PUTs per replayed wave: one connection's depth. The live server seals a
// wave every 200 us, and under this closed loop it holds about 7 acked
// writes (STATS wave_ops / waves), far below group_max_ops.
constexpr std::uint64_t kWaveOps = kDepth;
constexpr std::uint64_t kPreloadWaveOps = 256;  // group_max_ops
constexpr int kReplayWarmupWaves = 64;
constexpr int kReplayWaves = 1024;
constexpr std::uint64_t kSpanSampleEvery = 16;

struct Mix {
  double put_share;
};

bool workload_mix(const std::string& name, Mix* mix) {
  if (name == "kv_write") {
    *mix = {0.70};
  } else if (name == "kv_read") {
    *mix = {0.05};
  } else {
    return false;
  }
  return true;
}

/// Key i of the keyspace: 16 hex digits of a seed-keyed bijection of i.
std::string key_of(std::uint64_t seed, std::size_t i) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    mix64(seed * 0x9e3779b97f4a7c15ULL + i)));
  return buf;
}

/// The 128 B value of key i at version v.
std::string value_of(std::uint64_t seed, std::size_t i, std::uint32_t v) {
  std::string out(kValueBytes, '\0');
  std::uint64_t h = mix64(seed ^ (std::uint64_t{i} << 20) ^
                               (std::uint64_t{v} * 0xd6e8feb86659fd93ULL));
  for (std::size_t off = 0; off < kValueBytes; off += sizeof h) {
    h = mix64(h + off);
    std::memcpy(out.data() + off, &h, sizeof h);
  }
  return out;
}

/// One connection's op stream over its key slice: the same sequence for
/// the live client and the replay.
class OpStream {
 public:
  OpStream(std::uint64_t seed, std::size_t conn, Mix mix)
      : seed_(seed),
        lo_(conn * kSliceKeys),
        rng_(mix64(seed + 0x10000 * (conn + 1))),
        mix_(mix),
        version_(kSliceKeys, 0) {
    order_.resize(kSliceKeys);
    std::iota(order_.begin(), order_.end(), lo_);
    for (std::size_t i = kSliceKeys; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.next_below(i)]);
    }
  }

  struct Op {
    OpCode op;
    std::size_t key;
    std::uint32_t version;  // PUT: the new version; GET: the expected one
  };

  /// Preload order: every key of the slice once, shuffled by the seed.
  const std::vector<std::size_t>& preload_order() const { return order_; }

  Op next() {
    const std::size_t key = lo_ + rng_.next_below(kSliceKeys);
    std::uint32_t& v = version_[key - lo_];
    if (rng_.next_bool(mix_.put_share)) return {OpCode::kPut, key, ++v};
    return {OpCode::kGet, key, v};
  }

  std::uint32_t version(std::size_t key) const { return version_[key - lo_]; }
  std::size_t lo() const { return lo_; }
  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::size_t lo_;
  pax::Xoshiro256 rng_;
  Mix mix_;
  std::vector<std::uint32_t> version_;
  std::vector<std::size_t> order_;
};

// --- Live client -----------------------------------------------------------

struct Pending {
  std::int64_t sent_ns;
  OpStream::Op op;
};

struct Tally {
  // One entry per window of the timed phase.
  std::vector<std::uint64_t> ops;
  std::vector<std::vector<std::int64_t>> put_ns;
  std::vector<std::vector<std::int64_t>> get_ns;
  std::int64_t get_floor_ns = INT64_MAX;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
};

/// Phase boundaries shared by the client threads (absolute now_ns()).
/// `start` is published last, once every client has preloaded.
struct Windows {
  std::atomic<std::int64_t> start{0};  // warm-up ends, timing begins
  std::atomic<std::int64_t> end{0};
};

class Conn {
 public:
  Conn(int fd, OpStream* stream) : fd_(fd), stream_(stream) {}
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }
  OpStream& stream() { return *stream_; }
  std::size_t outstanding() const { return pending_.size(); }

  void send(const OpStream::Op& op) {
    const std::string key = key_of(stream_->seed(), op.key);
    if (op.op == OpCode::kPut) {
      pax::kv::append_request(out_, OpCode::kPut, key,
                              value_of(stream_->seed(), op.key, op.version));
    } else {
      pax::kv::append_request(out_, OpCode::kGet, key);
    }
    pending_.push_back({now_ns(), op});
  }

  bool flush() {
    std::size_t off = 0;
    while (off < out_.size()) {
      const ssize_t n =
          ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    out_.clear();
    return true;
  }

  /// Reads what the socket has and hands each completed op to `done`.
  /// Returns false when the connection failed.
  template <typename Done>
  bool receive(Done&& done) {
    std::array<std::byte, 64 << 10> buf;
    for (;;) {
      const ssize_t n = ::recv(fd_, buf.data(), buf.size(), MSG_DONTWAIT);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) return false;
      parser_.feed(buf.data(), static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < buf.size()) break;
    }
    for (;;) {
      auto resp = parser_.next_response();
      if (!resp.ok()) return false;
      if (!resp.value().has_value()) return true;
      if (pending_.empty()) return false;  // a reply nobody asked for
      const std::int64_t t = now_ns();
      const Pending p = pending_.front();
      pending_.pop_front();
      done(p, *resp.value(), t);
    }
  }

 private:
  int fd_;
  OpStream* stream_;
  std::vector<std::byte> out_;
  std::deque<Pending> pending_;
  pax::kv::FrameParser parser_;
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Checks one reply against the op that caused it. GETs must return the
/// last version this connection sent for the key: a connection owns its
/// keys, and a shard applies one key's ops in arrival order.
bool reply_ok(OpStream& stream, const OpStream::Op& op,
              const pax::kv::Response& resp) {
  if (resp.status != RespStatus::kOk) return false;
  if (op.op == OpCode::kPut) return true;
  return resp.value == value_of(stream.seed(), op.key, op.version);
}

/// Keeps up to `depth` ops in flight on each connection, drawing them from
/// `next` until it returns nullopt, and hands replies to `done`.
template <typename Next, typename Done>
bool pump(std::vector<Conn*>& conns, std::size_t depth, Next&& next,
          Done&& done) {
  std::vector<bool> exhausted(conns.size(), false);
  for (;;) {
    bool any = false;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      while (!exhausted[c] && conns[c]->outstanding() < depth) {
        const std::optional<OpStream::Op> op = next(*conns[c]);
        if (!op) {
          exhausted[c] = true;
          break;
        }
        conns[c]->send(*op);
      }
      if (!conns[c]->flush()) return false;
      any = any || conns[c]->outstanding() > 0;
    }
    if (!any) return true;
    std::array<pollfd, kConnsPerThread> fds{};
    for (std::size_t c = 0; c < conns.size(); ++c) {
      fds[c] = {conns[c]->fd(), POLLIN, 0};
    }
    const int ready = ::poll(fds.data(), conns.size(), 10000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;  // error, or 10 s without a reply
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (fds[c].revents == 0) continue;
      Conn& conn = *conns[c];
      if (!conn.receive([&](const Pending& p, const pax::kv::Response& r,
                            std::int64_t t) { done(conn, p, r, t); })) {
        return false;
      }
    }
  }
}

std::size_t slot(const std::vector<Conn*>& conns, const Conn& c) {
  return static_cast<std::size_t>(
      std::find(conns.begin(), conns.end(), &c) - conns.begin());
}

void client_thread(std::vector<Conn*> conns, const Windows& w,
                   std::atomic<int>* preloaded, bool corrupt, Tracer* tracer,
                   Tally* tally) {
  auto fail_all = [&] {
    for (Conn* c : conns) tally->failed += c->outstanding();
  };
  auto check = [&](Conn& c, const Pending& p, const pax::kv::Response& r) {
    ++tally->attempted;
    if (r.status != RespStatus::kOk) {
      ++tally->failed;
    } else if (!reply_ok(c.stream(), p.op, r)) {
      ++tally->failed;
      ++tally->mismatches;
    }
  };

  // Preload: every key of each slice once, at version 0.
  std::vector<std::size_t> cursor(conns.size(), 0);
  bool ok = pump(
      conns, kPreloadDepth,
      [&](Conn& c) -> std::optional<OpStream::Op> {
        const std::size_t i = slot(conns, c);
        const auto& order = c.stream().preload_order();
        if (cursor[i] == order.size()) return std::nullopt;
        return OpStream::Op{OpCode::kPut, order[cursor[i]++], 0};
      },
      [&](Conn& c, const Pending& p, const pax::kv::Response& r,
          std::int64_t) { check(c, p, r); });
  preloaded->fetch_add(1);
  if (!ok) {
    fail_all();
    return;
  }
  while (w.start.load() == 0) std::this_thread::yield();
  const std::int64_t start = w.start.load();
  const std::int64_t end = w.end.load();
  const auto windows = static_cast<std::size_t>((end - start + kWindowNs - 1) /
                                                kWindowNs);
  tally->ops.resize(windows);
  tally->put_ns.resize(windows);
  tally->get_ns.resize(windows);

  // Warm-up, then the timed windows. A reply counts toward the window it
  // arrives in; ops still in flight at the end drain uncounted.
  std::uint64_t op_id = 0;
  ok = pump(
      conns, kDepth,
      [&](Conn& c) -> std::optional<OpStream::Op> {
        if (now_ns() >= end) return std::nullopt;
        return c.stream().next();
      },
      [&](Conn& c, const Pending& p, const pax::kv::Response& r,
          std::int64_t t) {
        check(c, p, r);
        if (t < start || t >= end) return;
        const std::int64_t lat = t - p.sent_ns;
        const auto win = static_cast<std::size_t>((t - start) / kWindowNs);
        ++tally->ops[win];
        (p.op.op == OpCode::kPut ? tally->put_ns : tally->get_ns)[win]
            .push_back(lat);
        if (tracer != nullptr && win % 2 == 1 &&
            ++op_id % kSpanSampleEvery == 0) {
          tracer->record("client.request", p.sent_ns, t, op_id);
        }
        if (p.op.op == OpCode::kGet) {
          tally->get_floor_ns = std::min(tally->get_floor_ns, lat);
        }
      });
  if (!ok) {
    fail_all();
    return;
  }

  // Correctness gate: every key of each slice holds the last version sent.
  std::fill(cursor.begin(), cursor.end(), 0);
  ok = pump(
      conns, kPreloadDepth,
      [&](Conn& c) -> std::optional<OpStream::Op> {
        const std::size_t i = slot(conns, c);
        if (cursor[i] == kSliceKeys) return std::nullopt;
        const std::size_t key = c.stream().lo() + cursor[i]++;
        std::uint32_t v = c.stream().version(key);
        if (corrupt && i == 0 && key == c.stream().lo()) ++v;
        return OpStream::Op{OpCode::kGet, key, v};
      },
      [&](Conn& c, const Pending& p, const pax::kv::Response& r,
          std::int64_t) { check(c, p, r); });
  if (!ok) fail_all();
}

void sleep_until_ns(std::int64_t t) {
  while (now_ns() < t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// The aggregate "cpu" line of /proc/stat: the host's tick counters.
std::string host_cpu_line() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return line;
}

std::string stats_doc(std::uint16_t port) {
  auto client = pax::kv::KvClient::connect("127.0.0.1", port);
  if (!client.ok()) return "";
  auto resp = client.value().stats();
  return resp.ok() ? resp.value().value : "";
}

}  // namespace

int run_kv_client(const Args& args) {
  Mix mix{};
  if (!workload_mix(args.workload, &mix)) {
    std::fprintf(stderr, "paxbench: unknown kv workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const std::string pid = std::to_string(args.server_pid);

  std::vector<std::unique_ptr<OpStream>> streams;
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t c = 0; c < kConns; ++c) {
    streams.push_back(std::make_unique<OpStream>(args.seed, c, mix));
    const int fd = connect_to(args.port);
    if (fd < 0) {
      std::fprintf(stderr, "paxbench: cannot connect to port %u\n",
                   args.port);
      return 1;
    }
    conns.push_back(std::make_unique<Conn>(fd, streams.back().get()));
  }

  Windows w;
  std::atomic<int> preloaded{0};
  std::vector<Tally> tallies(kThreads);
  std::vector<Tracer> tracers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    tracers.emplace_back(static_cast<std::uint32_t>(t + 1));
  }
  std::vector<std::thread> threads;
  const std::int64_t t0 = now_ns();
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::vector<Conn*> mine;
    for (std::size_t k = 0; k < kConnsPerThread; ++k) {
      mine.push_back(conns[kConnsPerThread * t + k].get());
    }
    threads.emplace_back(client_thread, mine, std::cref(w), &preloaded,
                         args.corrupt_expected,
                         args.trace ? &tracers[t] : nullptr, &tallies[t]);
  }
  while (preloaded.load() < static_cast<int>(kThreads)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::int64_t preload_ns = now_ns() - t0;

  std::vector<std::string> host_stat;  // one per window edge
  const std::int64_t start =
      now_ns() + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  const auto len = static_cast<std::int64_t>(args.seconds * 1e9);
  w.end = start + len;
  w.start = start;
  sleep_until_ns(start);
  host_stat.push_back(host_cpu_line());
  const std::string stat_before = read_proc(pid, "stat");
  const std::string stats_before = stats_doc(args.port);
  for (std::int64_t t = start + kWindowNs; t < start + len; t += kWindowNs) {
    sleep_until_ns(t);
    host_stat.push_back(host_cpu_line());
  }
  sleep_until_ns(start + len);
  host_stat.push_back(host_cpu_line());
  const std::string stat_after = read_proc(pid, "stat");
  const std::string stats_after = stats_doc(args.port);
  for (std::thread& t : threads) t.join();
  const std::string status = read_proc(pid, "status");

  Tally all;
  Tracer tracer;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const Tally& x = tallies[t];
    all.ops.resize(x.ops.size());
    all.put_ns.resize(x.put_ns.size());
    all.get_ns.resize(x.get_ns.size());
    for (std::size_t i = 0; i < x.put_ns.size(); ++i) {
      all.ops[i] += x.ops[i];
      all.put_ns[i].insert(all.put_ns[i].end(), x.put_ns[i].begin(),
                           x.put_ns[i].end());
      all.get_ns[i].insert(all.get_ns[i].end(), x.get_ns[i].begin(),
                           x.get_ns[i].end());
    }
    all.get_floor_ns = std::min(all.get_floor_ns, x.get_floor_ns);
    all.attempted += x.attempted;
    all.failed += x.failed;
    all.mismatches += x.mismatches;
    tracer.merge(tracers[t]);
  }

  Json j;
  j.begin_object()
      .str("workload", args.workload)
      .num("seed", args.seed)
      .num("keys", static_cast<std::uint64_t>(kKeys))
      .num("preload_ns", preload_ns)
      .num("attempted", all.attempted)
      .num("failed", all.failed)
      .num("mismatches", all.mismatches);
  j.array("window_ops", all.ops)
      .num("get_floor_ns",
           all.get_floor_ns == INT64_MAX ? std::int64_t{0} : all.get_floor_ns)
      .num("window_ns", kWindowNs)
      .num("timed_ns", w.end.load() - w.start.load());
  j.begin_array("put_ns");
  for (const auto& bin : all.put_ns) j.array({}, bin);
  j.end_array().begin_array("get_ns");
  for (const auto& bin : all.get_ns) j.array({}, bin);
  j.end_array().begin_array("host_stat");
  for (const std::string& line : host_stat) j.str({}, line);
  j.end_array()
      .str("stats_before", stats_before)
      .str("stats_after", stats_after)
      .str("proc_stat_before", stat_before)
      .str("proc_stat_after", stat_after)
      .str("proc_status", status);
  if (args.trace) {
    if (!args.trace_out.empty() &&
        !tracer.write_chrome_json(args.trace_out)) {
      std::fprintf(stderr, "paxbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  j.end_object();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

// --- In-process replay -----------------------------------------------------

int run_kv_replay(const Args& args) {
  Mix mix{};
  if (!workload_mix(args.workload, &mix)) {
    std::fprintf(stderr, "paxbench: unknown kv workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  pax::kv::KvStoreOptions options;
  options.shards = kShards;
  auto created = pax::kv::KvStore::create_in_memory(options);
  PAX_CHECK_MSG(created.ok(), "KvStore::create_in_memory");
  pax::kv::KvStore& store = *created.value();
  std::vector<pax::libpax::PaxRuntime*> rts;
  for (std::size_t i = 0; i < store.shard_count(); ++i) {
    rts.push_back(&store.shard_runtime(i));
  }

  std::vector<std::unique_ptr<OpStream>> streams;
  for (std::size_t c = 0; c < kConns; ++c) {
    streams.push_back(std::make_unique<OpStream>(args.seed, c, mix));
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  auto wave = [&] {
    ++attempted;
    if (!store.group().commit_wave().ok()) ++failed;
  };

  // Preload in the live client's order, in the server's largest waves.
  std::uint64_t puts = 0;
  for (std::size_t i = 0; i < kSliceKeys; ++i) {
    for (const auto& s : streams) {
      const std::size_t key = s->preload_order()[i];
      store.put(key_of(args.seed, key), value_of(args.seed, key, 0));
      ++attempted;
      if (++puts % kPreloadWaveOps == 0) wave();
    }
  }
  wave();

  // The op stream, round-robin across the four connections' generators.
  std::optional<DeviceProbe> device_probe;
  std::optional<PmemProbe> pmem_probe;
  if (args.trace) {
    device_probe.emplace(pax::kv::KvStoreOptions{}.runtime.device);
    pmem_probe.emplace();
  }
  Tracer tracer;
  std::vector<std::int64_t> put_ns, get_ns, wave_ns, cycle_ns, device_sync_ns,
      device_persist_ns, pmem_ns;
  std::uint64_t device_lines = 0;
  std::uint64_t pmem_flushes = 0;
  std::uint64_t app_bytes = 0;
  LayerCounters before;
  std::string value;
  std::size_t next_conn = 0;
  for (int w = -kReplayWarmupWaves; w < kReplayWaves; ++w) {
    const bool measured = w >= 0;
    const auto op_id = static_cast<std::uint64_t>(w + kReplayWarmupWaves + 1);
    if (w == 0) before = read_counters(rts);
    const LayerCounters c0 =
        args.trace && measured ? read_counters(rts) : LayerCounters{};
    const std::int64_t cycle_start = now_ns();
    std::vector<Span> children;
    for (std::uint64_t wave_puts = 0; wave_puts < kWaveOps;) {
      OpStream& s = *streams[next_conn];
      next_conn = (next_conn + 1) % kConns;
      const OpStream::Op op = s.next();
      const std::string key = key_of(args.seed, op.key);
      ++attempted;
      if (op.op == OpCode::kPut) {
        const std::string v = value_of(args.seed, op.key, op.version);
        const std::int64_t t0 = now_ns();
        store.put(key, v);
        const std::int64_t t1 = now_ns();
        ++wave_puts;
        if (measured) {
          app_bytes += key.size() + v.size();
          put_ns.push_back(t1 - t0);
          children.push_back({"kv.put", t0, t1});
        }
      } else {
        const std::int64_t t0 = now_ns();
        const bool hit = store.get(key, &value);
        const std::int64_t t1 = now_ns();
        if (!hit || value != value_of(args.seed, op.key, op.version)) {
          ++failed;
          ++mismatches;
        }
        if (measured) {
          get_ns.push_back(t1 - t0);
          children.push_back({"kv.get", t0, t1});
        }
      }
    }
    const std::int64_t t0 = now_ns();
    wave();
    const std::int64_t t1 = now_ns();
    if (!measured) continue;
    wave_ns.push_back(t1 - t0);
    cycle_ns.push_back(t1 - cycle_start);
    if (!args.trace) continue;

    const std::uint32_t root = tracer.record("bench.cycle", cycle_start, t1,
                                             op_id);
    for (const Span& c : children) {
      tracer.record(c.name, c.start_ns, c.end_ns, op_id, root);
    }
    tracer.record("group.commit_wave", t0, t1, op_id, root);

    const LayerCounters c1 = read_counters(rts);
    const std::uint64_t lines = c1.sync.lines_synced - c0.sync.lines_synced;
    const std::uint64_t flushes = c1.pm.line_flushes - c0.pm.line_flushes;
    const std::int64_t d0 = now_ns();
    const auto [sync_ns, commit_ns] = device_probe->run(
        lines, pax::kv::KvStoreOptions{}.runtime.sync_batch_lines, op_id);
    tracer.record("device.sync_lines", d0, d0 + sync_ns, op_id);
    tracer.record("device.persist", d0 + sync_ns, d0 + sync_ns + commit_ns,
                  op_id);
    const std::int64_t m0 = now_ns();
    const std::int64_t pm = pmem_probe->run(flushes, op_id);
    tracer.record("pmem.store_flush_drain", m0, m0 + pm, op_id);
    device_sync_ns.push_back(sync_ns);
    device_persist_ns.push_back(commit_ns);
    pmem_ns.push_back(pm);
    device_lines += lines;
    pmem_flushes += flushes;
  }
  const LayerCounters after = read_counters(rts);

  // Correctness gate: every key holds the last version its stream wrote.
  for (const auto& s : streams) {
    for (std::size_t key = s->lo(); key < s->lo() + kSliceKeys; ++key) {
      ++attempted;
      std::uint32_t v = s->version(key);
      if (args.corrupt_expected && key == 0) ++v;
      if (!store.get(key_of(args.seed, key), &value) ||
          value != value_of(args.seed, key, v)) {
        ++failed;
        ++mismatches;
      }
    }
  }

  Json j;
  j.begin_object()
      .str("workload", args.workload)
      .num("seed", args.seed)
      .num("waves", static_cast<std::uint64_t>(kReplayWaves))
      .num("attempted", attempted)
      .num("failed", failed)
      .num("mismatches", mismatches)
      .num("app_bytes", app_bytes)
      .array("put_ns", put_ns)
      .array("get_ns", get_ns)
      .array("wave_ns", wave_ns)
      .array("cycle_ns", cycle_ns)
      .array("device_sync_ns", device_sync_ns)
      .array("device_persist_ns", device_persist_ns)
      .array("pmem_ns", pmem_ns)
      .num("device_lines", device_lines)
      .num("pmem_flushes", pmem_flushes);
  emit_counter_delta(j, "counters", before, after);
  if (args.trace) {
    if (!args.trace_out.empty() && !tracer.write_chrome_json(args.trace_out)) {
      std::fprintf(stderr, "paxbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  j.end_object();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace paxbench
