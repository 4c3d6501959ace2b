// Multi-threaded tests of ShardedMap: the §3.5 contract (thread-safe
// structure + quiesced persist) made safe by construction, under real
// concurrent mutation and simulated crashes.
#include "pax/libpax/sharded_map.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "pax/common/rng.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 64 << 20;

RuntimeOptions options() {
  RuntimeOptions o;
  o.log_size = 8 << 20;
  o.device.log_flush_batch_bytes = 0;
  return o;
}

using Map = ShardedMap<std::uint64_t, std::uint64_t>;

TEST(ShardedMapTest, BasicPutGetErase) {
  auto rt = PaxRuntime::create_in_memory(kPool, options()).value();
  auto map = Map::open(*rt, 8).value();
  EXPECT_FALSE(map.recovered());
  map.put(1, 10);
  map.put(2, 20);
  EXPECT_EQ(map.get(1), std::optional<std::uint64_t>(10));
  EXPECT_TRUE(map.erase(1));
  EXPECT_FALSE(map.erase(1));
  EXPECT_FALSE(map.get(1).has_value());
  EXPECT_EQ(map.size(), 1u);
}

TEST(ShardedMapTest, ForEachVisitsEverything) {
  auto rt = PaxRuntime::create_in_memory(kPool, options()).value();
  auto map = Map::open(*rt, 4).value();
  for (std::uint64_t k = 1; k <= 100; ++k) map.put(k, k * 2);
  std::uint64_t sum = 0, count = 0;
  map.for_each([&](std::uint64_t k, std::uint64_t v) {
    EXPECT_EQ(v, k * 2);
    sum += v;
    ++count;
  });
  EXPECT_EQ(count, 100u);
  EXPECT_EQ(sum, 100ull * 101);
}

TEST(ShardedMapTest, RejectsBadShardCounts) {
  auto rt = PaxRuntime::create_in_memory(kPool, options()).value();
  EXPECT_FALSE(Map::open(*rt, 0).ok());
  EXPECT_FALSE(Map::open(*rt, 1000).ok());
}

TEST(ShardedMapTest, ConcurrentWritersAllLand) {
  auto rt = PaxRuntime::create_in_memory(kPool, options()).value();
  auto map = Map::open(*rt, 16).value();

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        map.put(static_cast<std::uint64_t>(t) * kPerThread + i, i);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(map.size(), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t i = 0; i < kPerThread; i += 97) {
      ASSERT_EQ(map.get(t * kPerThread + i), std::optional(i));
    }
  }
}

TEST(ShardedMapTest, PersistWhileWritersRunYieldsConsistentSnapshots) {
  // Writers hammer the map while another thread persists repeatedly:
  // persist() quiesces via the shard locks, so each snapshot must contain
  // only whole operations (every key k has value k — never a torn state).
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  Epoch last_epoch = 0;
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Map::open(*rt, 16).value();

    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&map, &stop, t] {
        Xoshiro256 rng(100 + t);
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t k = rng.next_below(5000);
          map.put(k, k);  // invariant: value == key
        }
      });
    }
    // Under load the persist loop could otherwise finish before any writer
    // is scheduled, committing only empty snapshots.
    while (map.size() == 0) std::this_thread::yield();
    for (int p = 0; p < 10; ++p) {
      auto e = map.persist();
      ASSERT_TRUE(e.ok()) << e.status().to_string();
      last_epoch = e.value();
    }
    stop.store(true);
    for (auto& th : writers) th.join();
  }
  pm->crash(pmem::CrashConfig::drop_all());

  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_GE(rt->committed_epoch(), last_epoch);
  auto map = Map::open(*rt, 16).value();
  EXPECT_TRUE(map.recovered());
  std::size_t checked = 0;
  map.for_each([&](std::uint64_t k, std::uint64_t v) {
    ASSERT_EQ(v, k);  // no torn operation in any snapshot
    ++checked;
  });
  EXPECT_GT(checked, 0u);
}

TEST(ShardedMapTest, RecoversAcrossCrash) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Map::open(*rt, 8).value();
    for (std::uint64_t k = 0; k < 500; ++k) map.put(k, k + 7);
    ASSERT_TRUE(map.persist().ok());
    for (std::uint64_t k = 500; k < 600; ++k) map.put(k, 1);  // doomed
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  auto map = Map::open(*rt, 8).value();
  EXPECT_EQ(map.size(), 500u);
  for (std::uint64_t k = 0; k < 500; ++k) {
    ASSERT_EQ(map.get(k), std::optional(k + 7));
  }
}

TEST(ShardedMapTest, ShardCountMismatchDetected) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    ASSERT_TRUE(Map::open(*rt, 8).ok());
    ASSERT_TRUE(rt->persist().ok());
  }
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  auto wrong = Map::open(*rt, 16);
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedMapTest, AsyncPersistUnderQuiescence) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Map::open(*rt, 8).value();
    map.put(1, 11);
    ASSERT_TRUE(map.persist_async().ok());
    map.put(2, 22);  // next epoch, while commit pends
    ASSERT_TRUE(rt->complete_persist().ok());
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  auto map = Map::open(*rt, 8).value();
  EXPECT_EQ(map.get(1), std::optional<std::uint64_t>(11));
  EXPECT_FALSE(map.get(2).has_value());  // epoch 2 never completed
}

TEST(ShardedMapTest, ConcurrentGetsDuringPipelinedDrain) {
  // persist_async()'s quiescence covers only the dirty-set swap: with a
  // pipelined runtime the drain of the sealed snapshot runs while readers
  // (and writers) are back inside the map. TSan (this test runs in the CI
  // TSan job) proves the drain worker touches only its private snapshot,
  // never the live shards.
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  Epoch last_epoch = 0;
  {
    RuntimeOptions o = options();
    o.pipeline_depth = 2;
    auto rt = PaxRuntime::attach(pm.get(), o).value();
    auto map = Map::open(*rt, 16).value();
    for (std::uint64_t k = 0; k < 4000; ++k) map.put(k, k * 5);

    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&map, &stop, t] {
        Xoshiro256 rng(300 + t);
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t k = rng.next_below(4000);
          const auto v = map.get(k);
          if (v.has_value()) {
            ASSERT_EQ(*v, k * 5);
          }
        }
      });
    }
    // Keep sealing epochs while the readers run: each persist_async
    // returns with the drain still in flight, so gets overlap it.
    for (int e = 0; e < 8; ++e) {
      map.put(4000 + static_cast<std::uint64_t>(e),
              (4000 + static_cast<std::uint64_t>(e)) * 5);
      auto sealed = map.persist_async();
      ASSERT_TRUE(sealed.ok()) << sealed.status().to_string();
      last_epoch = sealed.value();
    }
    while (rt->committed_epoch() < last_epoch) {
      ASSERT_TRUE(rt->complete_persist().ok());
    }
    stop.store(true);
    for (auto& th : readers) th.join();
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_GE(rt->committed_epoch(), last_epoch);
  auto map = Map::open(*rt, 16).value();
  EXPECT_EQ(map.size(), 4008u);
  for (std::uint64_t k = 0; k < 4008; k += 89) {
    ASSERT_EQ(map.get(k), std::optional(k * 5));
  }
}

}  // namespace
}  // namespace pax::libpax
