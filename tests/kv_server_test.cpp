// KvServer over loopback: basic ops, pipelined ordering, commit modes, the
// STATS surface, protocol-error handling, and a concurrent torture run —
// all run parametrically over the full serving matrix
// {epoll, io_uring} × {1, 4} event loops, so both EventBackends and the
// multi-loop SO_REUSEPORT path must behave byte-identically (io_uring
// cases skip gracefully when the build or kernel lacks support).
// This test rides in the TSan CI job: the torture case at 4 loops is the
// data-race check for the loop / shard worker / coordinator handoffs.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "pax/kv/client.hpp"
#include "pax/kv/server.hpp"

namespace pax::kv {
namespace {

using ServerParam = std::tuple<KvServerOptions::Backend, std::size_t>;

class KvServerMatrix : public ::testing::TestWithParam<ServerParam> {
 protected:
  void SetUp() override {
    if (std::get<0>(GetParam()) == KvServerOptions::Backend::kIoUring &&
        !KvServer::io_uring_supported()) {
      GTEST_SKIP() << "io_uring not supported here (build or kernel)";
    }
  }

  KvServerOptions small_options(KvServerOptions::CommitMode mode) const {
    KvServerOptions options;
    options.port = 0;  // ephemeral
    options.commit_mode = mode;
    options.backend = std::get<0>(GetParam());
    options.loop_threads = std::get<1>(GetParam());
    options.store.shards = 2;
    options.store.shard_pool_bytes = 8 << 20;
    options.store.map_shards = 4;
    return options;
  }
};

Result<KvClient> connect_to(const KvServer& server) {
  return KvClient::connect("127.0.0.1", server.port());
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
    auto put = client.value().put("k", "v" + std::to_string(i));
    ASSERT_TRUE(put.ok());
    ASSERT_EQ(put.value().status, RespStatus::kOk);
  }
  auto got = client.value().get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().value, "v15");
}

TEST_P(KvServerMatrix, PipelinedResponsesArriveInRequestOrder) {
  auto server = KvServer::start(
      small_options(KvServerOptions::CommitMode::kGroup));
  ASSERT_TRUE(server.ok());
  auto client = connect_to(*server.value());
  ASSERT_TRUE(client.ok());
  KvClient& c = client.value();

  constexpr int kN = 200;  // keys spray across both shards
  for (int i = 0; i < kN; ++i) {
    c.send_put("pipe-" + std::to_string(i), "v" + std::to_string(i));
  }
  for (int i = 0; i < kN; ++i) c.send_get("pipe-" + std::to_string(i));
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
    EXPECT_EQ(resp.value().value, "v" + std::to_string(i)) << i;
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
          client.value().put("m" + std::to_string(i), std::to_string(i));
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
    ASSERT_TRUE(client.value().put("s" + std::to_string(i), "x").ok());
  }
  auto stats = client.value().stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().status, RespStatus::kOk);
  const std::string& json = stats.value().value;
  // Spot checks of the observability surface (scripts/check_paxkv.py and
  // the loadgen parse this for real).
  for (const char* needle :
       {"\"commit_mode\": \"group\"", "\"backend\"", "\"loops\"",
        "\"log_flushes_total\"", "\"acked_write_ops\"", "\"group_commit\"",
        "\"waves\"", "\"shard_stats\"", "\"sync\"", "\"pipeline\"",
        "\"ring_appends\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n"
                                                    << json;
  }
  // The serving-plane shape must reflect the parametrized configuration.
  const std::string backend_line =
      std::string("\"backend\": \"") + server.value()->backend_name() + "\"";
  EXPECT_NE(json.find(backend_line), std::string::npos) << json;
  const std::string loops_line =
      "\"loops\": " + std::to_string(std::get<1>(GetParam()));
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
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.value()->port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
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
            "t" + std::to_string(t) + "-" + std::to_string(i % 37);
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

std::string param_name(const ::testing::TestParamInfo<ServerParam>& info) {
  const char* backend =
      std::get<0>(info.param) == KvServerOptions::Backend::kEpoll
          ? "epoll"
          : "io_uring";
  return std::string(backend) + "_loops" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    ServingMatrix, KvServerMatrix,
    ::testing::Combine(::testing::Values(KvServerOptions::Backend::kEpoll,
                                         KvServerOptions::Backend::kIoUring),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    param_name);

}  // namespace
}  // namespace pax::kv
