// Pipelined-epoch tests: persist_async() with pipeline_depth > 0 swaps the
// dirty set into a sealed-epoch snapshot and returns while a background
// drain worker runs diff → sync → seal → commit. These tests cover snapshot
// isolation (epoch N+1 mutations must never leak into epoch N's image),
// in-order commits, back-pressure, batch-framed undo logging, and crash
// behavior with snapshots still queued.
#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>

#include "pax/libpax/persistent.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 32 << 20;

RuntimeOptions options(std::size_t depth = 2) {
  RuntimeOptions o;
  o.log_size = 4 << 20;
  o.device.log_flush_batch_bytes = 0;
  o.pipeline_depth = depth;
  return o;
}

using MapAlloc =
    PaxStlAllocator<std::pair<const std::uint64_t, std::uint64_t>>;
using PMap = std::unordered_map<std::uint64_t, std::uint64_t,
                                std::hash<std::uint64_t>,
                                std::equal_to<std::uint64_t>, MapAlloc>;

TEST(EpochPipelineTest, PipelinedPersistIsDurable) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    rt->vpm_base()[8192] = std::byte{0x41};
    ASSERT_TRUE(rt->persist().ok());  // async swap + wait
    EXPECT_EQ(rt->committed_epoch(), 1u);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_EQ(rt->committed_epoch(), 1u);
  EXPECT_EQ(rt->vpm_base()[8192], std::byte{0x41});
}

TEST(EpochPipelineTest, SnapshotIsolatesEpochFromLaterMutations) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    rt->vpm_base()[8192] = std::byte{1};
    auto sealed = rt->persist_async();
    ASSERT_TRUE(sealed.ok());
    // Epoch 2 overwrites the SAME byte while epoch 1's drain may still be
    // in flight. The drain must push epoch 1's snapshot, not this value.
    rt->vpm_base()[8192] = std::byte{2};
    rt->vpm_base()[12288] = std::byte{3};
    auto committed = rt->complete_persist();
    ASSERT_TRUE(committed.ok());
    EXPECT_EQ(committed.value(), 1u);
    // Epoch 2 never persists; crash below must roll it back.
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_EQ(rt->committed_epoch(), 1u);
  EXPECT_EQ(rt->vpm_base()[8192], std::byte{1});
  EXPECT_EQ(rt->vpm_base()[12288], std::byte{0});
}

TEST(EpochPipelineTest, PageSyncedBeforeTheSnapshotSealsItsEpochValue) {
  // A sync_step on an idle pipeline pushes page 3 and re-arms it, so the
  // next snapshot does not hold the page although the device logged its
  // line this epoch. The drain's seal must keep the pushed value, not read
  // the live region, where the next epoch has already overwritten it.
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  constexpr std::size_t kSynced = 3 * kPageSize;
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    ASSERT_TRUE(rt->persist().ok());  // settle heap-format writes
    rt->vpm_base()[kSynced] = std::byte{0x11};
    rt->sync_step();
    // A large epoch keeps the drain diffing while the store below lands.
    for (std::size_t p = 16; p < 16 + 256; ++p) {
      std::memset(rt->vpm_base() + p * kPageSize, 0x22, kPageSize);
    }
    auto sealed = rt->persist_async();
    ASSERT_TRUE(sealed.ok());
    rt->vpm_base()[kSynced] = std::byte{0x33};  // epoch 3, never persisted
    ASSERT_TRUE(rt->wait_persisted(sealed.value()).ok());
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_EQ(rt->committed_epoch(), 2u);
  EXPECT_EQ(rt->vpm_base()[kSynced], std::byte{0x11});
  EXPECT_EQ(rt->vpm_base()[16 * kPageSize], std::byte{0x22});
}

TEST(EpochPipelineTest, RevertedLineStillReachesTheDevice) {
  // ABA regression: a line changes in epoch 1 and reverts to its original
  // contents in epoch 2. If snapshot-time digests were applied lazily, the
  // epoch-2 diff would wrongly skip the line and the device would keep
  // epoch 1's value forever.
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    rt->vpm_base()[8192] = std::byte{0x55};
    ASSERT_TRUE(rt->persist().ok());  // epoch 1
    rt->vpm_base()[8192] = std::byte{0x00};  // revert to pre-epoch-1 value
    ASSERT_TRUE(rt->persist().ok());  // epoch 2
    EXPECT_EQ(rt->committed_epoch(), 2u);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_EQ(rt->committed_epoch(), 2u);
  EXPECT_EQ(rt->vpm_base()[8192], std::byte{0x00});
}

TEST(EpochPipelineTest, QueuedSnapshotsCommitInOrder) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), options(/*depth=*/3)).value();
  for (int e = 1; e <= 6; ++e) {
    rt->vpm_base()[8192 + e * 64] = static_cast<std::byte>(e);
    auto sealed = rt->persist_async();
    ASSERT_TRUE(sealed.ok());
    EXPECT_EQ(sealed.value(), static_cast<Epoch>(e));
  }
  auto committed = rt->complete_persist();
  ASSERT_TRUE(committed.ok());
  // complete_persist waits for the oldest in-flight epoch only; wait for
  // the rest the same way applications would.
  while (rt->committed_epoch() < 6u) {
    ASSERT_TRUE(rt->complete_persist().ok());
  }
  EXPECT_EQ(rt->committed_epoch(), 6u);
  const PipelineStats ps = rt->pipeline_stats();
  EXPECT_EQ(ps.async_persists, 6u);
  EXPECT_EQ(ps.jobs_drained, 6u);
  EXPECT_GE(ps.pages_snapshotted, 6u);
}

TEST(EpochPipelineTest, BackPressureBoundsTheQueue) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), options(/*depth=*/1)).value();
  // Large dirty footprint per epoch so drains take long enough for the
  // producer to catch the queue full at least once across many rounds.
  for (int e = 1; e <= 12; ++e) {
    std::memset(rt->vpm_base() + 4096, e, 1 << 20);
    ASSERT_TRUE(rt->persist_async().ok());
  }
  while (rt->committed_epoch() < 12u) {
    ASSERT_TRUE(rt->complete_persist().ok());
  }
  const PipelineStats ps = rt->pipeline_stats();
  EXPECT_EQ(ps.jobs_drained, 12u);
  EXPECT_LE(ps.queue_occupancy_max, 1u);
}

TEST(EpochPipelineTest, AbandonedSnapshotsBehaveLikeACrash) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options(/*depth=*/4)).value();
    rt->vpm_base()[8192] = std::byte{7};
    ASSERT_TRUE(rt->persist().ok());  // epoch 1 durable
    // Queue more epochs and tear down without waiting: whatever the drain
    // worker did not commit is lost, exactly like a crash.
    rt->vpm_base()[12288] = std::byte{8};
    ASSERT_TRUE(rt->persist_async().ok());
    rt->vpm_base()[16384] = std::byte{9};
    ASSERT_TRUE(rt->persist_async().ok());
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_GE(rt->committed_epoch(), 1u);
  EXPECT_EQ(rt->vpm_base()[8192], std::byte{7});
  // Later epochs either committed wholly before teardown or rolled back
  // wholly — byte 12288 may be 8 (epoch 2 drained in time) or 0, but epoch
  // 3 cannot be durable without epoch 2.
  if (rt->committed_epoch() >= 3u) {
    EXPECT_EQ(rt->vpm_base()[12288], std::byte{8});
    EXPECT_EQ(rt->vpm_base()[16384], std::byte{9});
  } else if (rt->committed_epoch() == 2u) {
    EXPECT_EQ(rt->vpm_base()[12288], std::byte{8});
    EXPECT_EQ(rt->vpm_base()[16384], std::byte{0});
  } else {
    EXPECT_EQ(rt->vpm_base()[12288], std::byte{0});
    EXPECT_EQ(rt->vpm_base()[16384], std::byte{0});
  }
}

TEST(EpochPipelineTest, DrainLogsOneUndoFramePerLogMutexHold) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options(/*depth=*/2)).value();
    for (int e = 1; e <= 4; ++e) {
      std::memset(rt->vpm_base() + 4096, 0x30 + e, 64 << 10);
      ASSERT_TRUE(rt->persist().ok());
    }
    // Every log-mutex hold appends exactly one frame, and a frame carries
    // a whole stripe group of lines, not one line.
    const auto ds = rt->device().stats();
    const auto ls = rt->device().log_stats();
    EXPECT_EQ(ds.log_append_acquisitions, ls.frames);
    EXPECT_EQ(ls.records, ds.first_touch_logs);
    EXPECT_GT(ls.records, 4 * ls.frames);
    EXPECT_EQ(ls.ring_full_stalls, 0u);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  EXPECT_EQ(rt->committed_epoch(), 4u);
  for (std::size_t i = 0; i < (64 << 10); i += 4097) {
    ASSERT_EQ(rt->vpm_base()[4096 + i], std::byte{0x34});
  }
}

TEST(EpochPipelineTest, ContainersSurvivePipelinedEpochs) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  {
    auto rt = PaxRuntime::attach(pm.get(), options()).value();
    auto map = Persistent<PMap>::open(*rt).value();
    for (std::uint64_t k = 0; k < 300; ++k) (*map)[k] = k * 3;
    ASSERT_TRUE(rt->persist_async().ok());
    for (std::uint64_t k = 300; k < 600; ++k) (*map)[k] = k * 3;
    ASSERT_TRUE(rt->persist().ok());  // commits 1 and 2 (in order)
    while (rt->committed_epoch() < 2u) {
      ASSERT_TRUE(rt->complete_persist().ok());
    }
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  auto map = Persistent<PMap>::open(*rt).value();
  ASSERT_EQ(map->size(), 600u);
  for (std::uint64_t k = 0; k < 600; ++k) ASSERT_EQ(map->at(k), k * 3);
}

TEST(EpochPipelineTest, CompletePersistWithEmptyPipelineReportsCommitted) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  auto committed = rt->complete_persist();  // nothing in flight
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed.value(), 0u);
}

TEST(EpochPipelineTest, StatsFoldDrainWorkerContribution) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), options()).value();
  std::memset(rt->vpm_base() + 4096, 0x11, 256 << 10);
  ASSERT_TRUE(rt->persist().ok());
  const RuntimeStats rs = rt->stats();
  const SyncStats ss = rt->sync_stats();
  EXPECT_GT(rs.pages_diffed, 0u);
  EXPECT_GT(rs.lines_dirty_found, 0u);
  EXPECT_GT(ss.lines_synced, 0u);
}

}  // namespace
}  // namespace pax::libpax
