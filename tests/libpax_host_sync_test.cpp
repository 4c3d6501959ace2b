// The batched host sync path: batched configs must persist the
// exact state the legacy per-line path persists, with far fewer device
// calls; plus the vPM region's coalesced re-protection and dirty-counter
// early-out, and the prompt flusher shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <vector>

#include "pax/libpax/runtime.hpp"
#include "pax/libpax/vpm_region.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 16 << 20;

RuntimeOptions legacy_opts() {
  RuntimeOptions o;
  o.log_size = 256 * 1024;
  o.sync_batch_lines = 1;  // per-line peek/intent/writeback
  return o;
}

RuntimeOptions batched_opts() {
  RuntimeOptions o;
  o.log_size = 256 * 1024;
  o.sync_batch_lines = 64;
  return o;
}

// Applies the same deterministic mutation/persist schedule to a runtime.
void run_schedule(PaxRuntime& rt) {
  for (int round = 0; round < 4; ++round) {
    for (std::size_t p = 1; p <= 20; ++p) {
      // Partial-page writes: some lines per page change, some don't.
      std::memset(rt.vpm_base() + p * kPageSize + (round * 256) % kPageSize,
                  0x10 + round * 16 + static_cast<int>(p), 192);
    }
    if (round % 2 == 0) {
      ASSERT_TRUE(rt.persist().ok());
    } else {
      ASSERT_TRUE(rt.persist_async().ok());
      ASSERT_TRUE(rt.complete_persist().ok());
    }
  }
  // Leave uncommitted garbage behind; it must vanish at the crash.
  std::memset(rt.vpm_base() + 21 * kPageSize, 0xee, 2 * kPageSize);
  rt.sync_step();
}

TEST(HostSyncEquivalenceTest, BatchedRecoversExactlyWhatLegacyRecovers) {
  auto pm_a = pmem::PmemDevice::create_in_memory(kPool);
  auto pm_b = pmem::PmemDevice::create_in_memory(kPool);
  std::uint64_t dirty_legacy = 0, dirty_batched = 0;
  {
    auto rt = PaxRuntime::attach(pm_a.get(), legacy_opts()).value();
    run_schedule(*rt);
    EXPECT_EQ(rt->stats().sync_batches, 0u);
    dirty_legacy = rt->stats().lines_dirty_found;
  }
  {
    auto rt = PaxRuntime::attach(pm_b.get(), batched_opts()).value();
    run_schedule(*rt);
    EXPECT_GT(rt->stats().sync_batches, 0u);
    dirty_batched = rt->stats().lines_dirty_found;
  }
  EXPECT_EQ(dirty_legacy, dirty_batched);

  pm_a->crash(pmem::CrashConfig::drop_all());
  pm_b->crash(pmem::CrashConfig::drop_all());
  auto rt_a = PaxRuntime::attach(pm_a.get(), legacy_opts()).value();
  auto rt_b = PaxRuntime::attach(pm_b.get(), batched_opts()).value();
  ASSERT_EQ(rt_a->committed_epoch(), rt_b->committed_epoch());
  ASSERT_EQ(rt_a->vpm_size(), rt_b->vpm_size());
  EXPECT_EQ(std::memcmp(rt_a->vpm_base(), rt_b->vpm_base(), rt_a->vpm_size()),
            0);
}

TEST(HostSyncEquivalenceTest, DeviceCallAccounting) {
  // 8 fully-dirtied pages: the legacy path pays 3 device calls per dirty
  // line (peek + intent + writeback); batching pays one peek per page and
  // one sync per batch.
  auto legacy = PaxRuntime::create_in_memory(kPool, legacy_opts()).value();
  const RuntimeOptions bo = batched_opts();
  auto batched = PaxRuntime::create_in_memory(kPool, bo).value();

  for (auto* rt : {legacy.get(), batched.get()}) {
    ASSERT_TRUE(rt->persist().ok());  // settle heap-format writes
  }
  const RuntimeStats lb = legacy->stats();
  const RuntimeStats bb = batched->stats();

  for (auto* rt : {legacy.get(), batched.get()}) {
    for (std::size_t p = 1; p <= 8; ++p) {
      std::memset(rt->vpm_base() + p * kPageSize, 0x5a, kPageSize);
    }
    ASSERT_TRUE(rt->persist().ok());
  }
  const RuntimeStats ls = legacy->stats();
  const RuntimeStats bs = batched->stats();

  const std::uint64_t dirty = ls.lines_dirty_found - lb.lines_dirty_found;
  EXPECT_EQ(dirty, 8 * kLinesPerPage);
  EXPECT_EQ(bs.lines_dirty_found - bb.lines_dirty_found, dirty);

  // Legacy: one peek per checked line + two more calls per dirty line.
  EXPECT_EQ(ls.device_calls - lb.device_calls,
            (ls.lines_diff_checked - lb.lines_diff_checked) + 2 * dirty);
  // Batched: one peek_lines per page + one sync_lines per full batch.
  EXPECT_EQ(bs.sync_batches - bb.sync_batches,
            dirty / bo.sync_batch_lines);
  EXPECT_EQ(bs.device_calls - bb.device_calls,
            (bs.pages_diffed - bb.pages_diffed) +
                (bs.sync_batches - bb.sync_batches));
  EXPECT_LT(bs.device_calls - bb.device_calls,
            (ls.device_calls - lb.device_calls) / 10);
}

TEST(HostSyncEquivalenceTest, SnapshotReadsAnyAlignment) {
  auto rt = PaxRuntime::create_in_memory(kPool, batched_opts()).value();
  for (std::size_t i = 0; i < 3 * kPageSize; ++i) {
    rt->vpm_base()[kPageSize + i] = static_cast<std::byte>((i * 7 + 1) & 0xff);
  }
  ASSERT_TRUE(rt->persist().ok());
  // Overwrite after the commit: snapshot reads must not see this.
  std::memset(rt->vpm_base() + kPageSize, 0xff, 3 * kPageSize);

  // Unaligned offsets/sizes spanning lines, pages, and the chunk buffer.
  const std::size_t cases[][2] = {{kPageSize, 3 * kPageSize},
                                  {kPageSize + 1, 100},
                                  {kPageSize + 63, 2},
                                  {2 * kPageSize - 5, kPageSize + 11},
                                  {kPageSize + 4095, 4097}};
  for (const auto& c : cases) {
    std::vector<std::byte> out(c[1]);
    rt->read_snapshot(c[0], out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::size_t rel = c[0] + i - kPageSize;
      ASSERT_EQ(out[i], static_cast<std::byte>((rel * 7 + 1) & 0xff))
          << "offset " << c[0] << " byte " << i;
    }
  }
}

TEST(HostSyncEquivalenceTest, FlusherShutdownIsPrompt) {
  RuntimeOptions o;
  o.start_flusher_thread = true;
  o.flusher_interval = std::chrono::microseconds(5'000'000);  // 5 s sleep
  auto rt = PaxRuntime::create_in_memory(kPool, o).value();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it park
  const auto t0 = std::chrono::steady_clock::now();
  rt.reset();  // must interrupt the interval wait, not ride it out
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST(VpmRegionBatchingTest, TakeRearmsInOneCallPerRunOrOneScan) {
  // Tracker-specific: the mprotect tracker re-arms with one mprotect per
  // run of adjacent pages; uffd-wp collects and re-arms everything in one
  // PAGEMAP_SCAN. (libpax_host_sync_test runs only under the process's
  // default tracker; libpax_region_test also runs under the fallback.)
  auto region = VpmRegion::create(64 * kPageSize).value();
  ASSERT_TRUE(region->protect_all().is_ok());
  // Dirty three runs: {3,4,5}, {10}, {20,21}.
  for (std::size_t p : {3, 4, 5, 10, 20, 21}) {
    region->base()[p * kPageSize] = std::byte{1};
  }
  ASSERT_EQ(region->dirty_pages().size(), 6u);

  const auto base_calls = region->protect_syscall_count();
  auto taken = region->take_written();
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken.value().size(), 6u);
  const std::uint64_t expected_calls =
      region->tracker() == VpmRegion::Tracker::kMprotect ? 3u : 1u;
  EXPECT_EQ(region->protect_syscall_count() - base_calls, expected_calls)
      << region->tracker_name();
  EXPECT_TRUE(region->dirty_pages().empty());

  // Re-armed pages are recorded again on the next write.
  region->base()[4 * kPageSize] = std::byte{2};
  EXPECT_EQ(region->dirty_pages(), std::vector<PageIndex>{PageIndex{4}});
}

TEST(VpmRegionBatchingTest, CleanRegionTakesNothing) {
  // Tracker-specific: a clean mprotect-tracked region skips the page scan
  // and makes no syscall; uffd-wp always makes its one scan.
  auto region = VpmRegion::create(16 * kPageSize).value();
  ASSERT_TRUE(region->protect_all().is_ok());
  const auto base_calls = region->protect_syscall_count();
  auto taken = region->take_written();
  ASSERT_TRUE(taken.ok());
  EXPECT_TRUE(taken.value().empty());
  const std::uint64_t expected_calls =
      region->tracker() == VpmRegion::Tracker::kMprotect ? 0u : 1u;
  EXPECT_EQ(region->protect_syscall_count() - base_calls, expected_calls)
      << region->tracker_name();

  region->base()[5 * kPageSize + 9] = std::byte{1};
  region->base()[5 * kPageSize + 10] = std::byte{2};  // same page: once
  EXPECT_EQ(region->dirty_pages(), std::vector<PageIndex>{PageIndex{5}});
}

}  // namespace
}  // namespace pax::libpax
