// KvServer over loopback: basic ops, pipelined ordering (with and without
// the in-flight cap pausing reads), commit modes, the STATS surface,
// protocol-error handling, accept recovery after fd exhaustion, the
// group-commit cadence, and a concurrent torture run — the matrix cases
// run at 1 and 4 event loops, so the multi-loop SO_REUSEPORT path must
// behave like the single loop.
// This test rides in the TSan CI job: the torture case at 4 loops is the
// data-race check for the loop / shard worker / coordinator handoffs.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pax/kv/client.hpp"
#include "pax/kv/server.hpp"
#include "test_util.hpp"

namespace pax::kv {
namespace {

using pax::testing::numbered;

// The parameter is the number of event loops.
class KvServerMatrix : public ::testing::TestWithParam<std::size_t> {
 protected:
  KvServerOptions small_options(KvServerOptions::CommitMode mode) const {
    KvServerOptions options;
    options.port = 0;  // ephemeral
    options.commit_mode = mode;
    options.loop_threads = GetParam();
    options.store.shards = 2;
    options.store.shard_pool_bytes = 8 << 20;
    options.store.map_shards = 4;
    return options;
  }
};

Result<KvClient> connect_to(const KvServer& server) {
  return KvClient::connect("127.0.0.1", server.port());
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

TEST_P(KvServerMatrix, BasicOps) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kGroup));
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  KvClient& c = client.value();

  auto miss = c.get("absent");
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss.value().status, RespStatus::kNotFound);

  auto put = c.put("alpha", "1");
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.value().status, RespStatus::kOk);

  auto hit = c.get("alpha");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value().status, RespStatus::kOk);
  EXPECT_EQ(hit.value().value, "1");

  auto del = c.del("alpha");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().status, RespStatus::kOk);

  auto gone = c.get("alpha");
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone.value().status, RespStatus::kNotFound);

  auto del_miss = c.del("alpha");
  ASSERT_TRUE(del_miss.ok());
  EXPECT_EQ(del_miss.value().status, RespStatus::kNotFound);
}

TEST_P(KvServerMatrix, OverwriteReturnsLatest) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kGroup));
  ASSERT_TRUE(server.ok());
  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 16; ++i) {
    auto put = client.value().put("k", numbered("v", i));
    ASSERT_TRUE(put.ok());
    ASSERT_EQ(put.value().status, RespStatus::kOk);
  }
  auto got = client.value().get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().value, "v15");
}

TEST_P(KvServerMatrix, PipelinedResponsesArriveInRequestOrder) {
  // The default in-flight cap never binds on 400 requests; a cap of 4
  // pauses the connection's reads and resumes them as responses drain.
  for (const std::size_t cap :
       {KvServerOptions{}.max_inflight_per_conn, std::size_t{4}}) {
    SCOPED_TRACE("max_inflight_per_conn = " + std::to_string(cap));
    auto options = small_options(KvServerOptions::CommitMode::kGroup);
    options.max_inflight_per_conn = cap;
    auto server = KvServer::start(options);
    ASSERT_TRUE(server.ok());
    auto client = connect_to(*server.value());
    ASSERT_TRUE(client.ok());
    KvClient& c = client.value();

    constexpr int kN = 200;  // keys spray across both shards
    for (int i = 0; i < kN; ++i) {
      c.send_put(numbered("pipe-", i), numbered("v", i));
    }
    for (int i = 0; i < kN; ++i) c.send_get(numbered("pipe-", i));
    ASSERT_TRUE(c.flush().is_ok());

    for (int i = 0; i < kN; ++i) {
      auto resp = c.recv_response();
      ASSERT_TRUE(resp.ok()) << i;
      EXPECT_EQ(resp.value().status, RespStatus::kOk) << i;
    }
    for (int i = 0; i < kN; ++i) {
      auto resp = c.recv_response();
      ASSERT_TRUE(resp.ok()) << i;
      ASSERT_EQ(resp.value().status, RespStatus::kOk) << i;
      EXPECT_EQ(resp.value().value, numbered("v", i)) << i;
    }
  }
}

TEST_P(KvServerMatrix, IndependentAndVolatileModes) {
  for (auto mode : {KvServerOptions::CommitMode::kIndependent,
                    KvServerOptions::CommitMode::kVolatile}) {
    auto server = KvServer::start(small_options(mode));
    ASSERT_TRUE(server.ok());
    auto client = connect_to(*server.value());
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 50; ++i) {
      auto put =
          client.value().put(numbered("m", i), std::to_string(i));
      ASSERT_TRUE(put.ok());
      ASSERT_EQ(put.value().status, RespStatus::kOk);
    }
    auto got = client.value().get("m7");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().value, "7");
  }
}

TEST_P(KvServerMatrix, StatsExposesShardRuntimeAndGroupCommit) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kGroup));
  ASSERT_TRUE(server.ok());
  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(client.value().put(numbered("s", i), "x").ok());
  }
  auto stats = client.value().stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().status, RespStatus::kOk);
  const std::string& json = stats.value().value;
  // Spot checks of the observability surface (scripts/check_paxkv.py and
  // the loadgen parse this for real).
  for (const char* needle :
       {"\"commit_mode\": \"group\"", "\"loops\"",
        "\"log_flushes_total\"", "\"acked_write_ops\"", "\"group_commit\"",
        "\"waves\"", "\"shard_stats\"", "\"sync\"", "\"tracker\"",
        "\"pipeline\"", "\"frames\"", "\"ring_full_stalls\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n"
                                                    << json;
  }
  // The serving-plane shape must reflect the parametrized configuration.
  const std::string loops_line = "\"loops\": " + std::to_string(GetParam());
  EXPECT_NE(json.find(loops_line), std::string::npos) << json;
  // 64 acked PUTs must be visible in the group-commit accounting.
  const auto pos = json.find("\"acked_write_ops\": ");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_NE(json.substr(pos, 40).find("64"), std::string::npos) << json;
}

TEST_P(KvServerMatrix, MalformedFrameClosesConnection) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kVolatile));
  ASSERT_TRUE(server.ok());

  // Raw socket: an oversized length word is unrecoverable framing — the
  // server must close the connection (recv sees EOF), not hang or crash.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const sockaddr_in addr = loopback(server.value()->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const unsigned char garbage[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 4);
  char buf[16];
  EXPECT_EQ(recv(fd, buf, sizeof(buf), 0), 0);  // orderly EOF
  ::close(fd);

  // The server keeps serving healthy connections afterwards.
  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().put("ok", "1").ok());
  EXPECT_GE(server.value()->stats().protocol_errors, 1u);
}

// A loop that hits EMFILE pauses its listener. Accepting must resume even
// when that loop owns no connection it could close to free an fd: the
// client here is the only one, so no close ever re-arms the listener and
// only the backend's timed retry can. The soft fd limit is process-wide,
// so holding it at the lowest free fd makes the server's accept4 fail.
TEST_P(KvServerMatrix, AcceptResumesAfterFdExhaustion) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kVolatile));
  ASSERT_TRUE(server.ok());

  // Closes the client and restores the limit on every exit path.
  struct Guard {
    int fd = -1;
    rlimit saved{};
    bool lowered = false;
    void restore() {
      if (lowered) setrlimit(RLIMIT_NOFILE, &saved);
      lowered = false;
    }
    ~Guard() {
      restore();
      if (fd >= 0) ::close(fd);
    }
  } guard;
  guard.fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(guard.fd, 0);
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &guard.saved), 0);
  const int lowest_free = ::dup(guard.fd);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit tight = guard.saved;
  tight.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &tight), 0);
  guard.lowered = true;

  const sockaddr_in addr = loopback(server.value()->port());
  ASSERT_EQ(::connect(guard.fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::vector<std::byte> frame;
  append_request(frame, OpCode::kPut, "exhausted", "1");
  ASSERT_EQ(send(guard.fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  guard.restore();

  FrameParser parser;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  for (;;) {
    auto resp = parser.next_response();
    ASSERT_TRUE(resp.ok());
    if (resp.value().has_value()) {
      EXPECT_EQ(resp.value()->status, RespStatus::kOk);
      break;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{guard.fd, POLLIN, 0};
    ASSERT_TRUE(left.count() > 0 &&
                poll(&pfd, 1, static_cast<int>(left.count())) == 1)
        << "no response within 3 s: accepting never resumed";
    std::byte buf[64];
    const ssize_t n = recv(guard.fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    parser.feed(buf, static_cast<std::size_t>(n));
  }
}

// The TSan torture: concurrent clients hammer both shards through every
// handoff (event loops → worker → coordinator → event loops) while STATS
// reads the runtime counters. At loop_threads = 4 the clients land on
// different SO_REUSEPORT loops, exercising cross-loop completion routing.
TEST_P(KvServerMatrix, ConcurrentTorture) {
  auto options = small_options(KvServerOptions::CommitMode::kGroup);
  options.group_max_ops = 32;
  auto server = KvServer::start(options);
  ASSERT_TRUE(server.ok());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  // vector<char>, not vector<bool>: each thread owns a distinct byte.
  std::vector<char> success(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &success, &server] {
      auto client = connect_to(*server.value());
      if (!client.ok()) return;
      KvClient& c = client.value();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            numbered(numbered("t", t) + "-", i % 37);
        if (i % 3 == 0) {
          auto r = c.put(key, std::to_string(i));
          if (!r.ok() || r.value().status != RespStatus::kOk) return;
        } else if (i % 3 == 1) {
          auto r = c.get(key);
          if (!r.ok()) return;
        } else if (i % 16 == 2) {
          auto r = c.del(key);
          if (!r.ok()) return;
        } else {
          auto r = c.stats();
          if (!r.ok() || r.value().status != RespStatus::kOk) return;
        }
      }
      success[t] = 1;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(success[t]) << t;

  // Every thread's last-written key must be readable afterwards.
  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok());
  const KvServerStats stats = server.value()->stats();
  EXPECT_GE(stats.requests,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(stats.protocol_errors, 0u);
  server.value()->stop();  // explicit stop before destruction: idempotent
}

// Group-commit cadence: an ack that parks while a wave is committing must
// be released group_interval after it parked — not group_interval after
// that wave ends. The hook holds wave 1 open for kHold after the second
// PUT is sent, so the old "fresh interval from the wave's end" rule cannot
// ack it before kHold + kInterval, while the documented rule acks it at
// about kInterval.
TEST(KvServerCadence, AckParkedDuringAWaveWaitsIntervalFromItsOwnArrival) {
  constexpr auto kInterval = std::chrono::milliseconds(400);
  constexpr auto kHold = std::chrono::milliseconds(300);
  std::mutex mu;
  std::condition_variable cv;
  int waves = 0;
  bool release = false;

  KvServerOptions options;
  options.store.shards = 2;
  options.store.shard_pool_bytes = 8 << 20;
  options.store.map_shards = 4;
  options.group_interval = kInterval;
  options.on_wave_start = [&] {
    std::unique_lock lock(mu);
    if (++waves == 1) {
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
  };
  auto server = KvServer::start(options);
  ASSERT_TRUE(server.ok()) << server.status().to_string();
  auto first = connect_to(*server.value());
  auto second = connect_to(*server.value());
  ASSERT_TRUE(first.ok() && second.ok());

  // Wave 1 fires at once from idle for the first PUT, and is held open.
  std::thread first_put([&] {
    auto r = first.value().put("first", "1");
    EXPECT_TRUE(r.ok() && r.value().status == RespStatus::kOk);
  });
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return waves == 1; });
  }

  // The second PUT parks while wave 1 is still committing.
  const auto sent = std::chrono::steady_clock::now();
  std::chrono::steady_clock::duration acked{};
  std::thread second_put([&] {
    auto r = second.value().put("second", "2");
    acked = std::chrono::steady_clock::now() - sent;
    EXPECT_TRUE(r.ok() && r.value().status == RespStatus::kOk);
  });
  std::this_thread::sleep_for(kHold);
  {
    std::lock_guard lock(mu);
    release = true;
  }
  cv.notify_all();
  first_put.join();
  second_put.join();

  EXPECT_GE(acked, kInterval);
  EXPECT_LT(acked, kHold + kInterval)
      << std::chrono::duration_cast<std::chrono::milliseconds>(acked).count()
      << " ms: the wait restarted when wave 1 ended";
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(waves, 2);
  }
  server.value()->stop();
}

std::string param_name(const ::testing::TestParamInfo<std::size_t>& info) {
  return "loops" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(ServingMatrix, KvServerMatrix,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         param_name);

}  // namespace
}  // namespace pax::kv
