// The host sync path: a persist schedule that fills several sync_lines
// batches per epoch must recover exactly the bytes it wrote, with one
// device call per diffed page plus one per batch; plus the vPM region's
// coalesced re-protection and dirty-counter early-out, and the prompt
// flusher shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <vector>

#include "pax/libpax/runtime.hpp"
#include "pax/libpax/vpm_region.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 16 << 20;
constexpr std::size_t kSchedulePages = 24;

RuntimeOptions opts() {
  RuntimeOptions o;
  o.log_size = 256 * 1024;
  return o;
}

// Writes `len` bytes of `value` at `off` in both the region and its shadow.
void write(PaxRuntime& rt, std::vector<std::byte>& shadow, std::size_t off,
           int value, std::size_t len) {
  std::memset(rt.vpm_base() + off, value, len);
  std::memset(shadow.data() + off, value, len);
}

// A deterministic mutation/persist schedule. Each round rewrites 17 lines
// on each of kSchedulePages pages (408 lines: more than one sync_lines
// batch) and leaves the rest of each page alone. Returns the image of the
// last committed round.
std::vector<std::byte> run_schedule(PaxRuntime& rt) {
  std::vector<std::byte> working(rt.vpm_base(),
                                 rt.vpm_base() + rt.vpm_size());
  std::vector<std::byte> committed = working;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t p = 1; p <= kSchedulePages; ++p) {
      // Unaligned partial-page writes that move with the round.
      const std::size_t in_page = (round * 1000 + p * 64) % 2048 + 5;
      write(rt, working, p * kPageSize + in_page,
            0x10 + round * 16 + static_cast<int>(p), 1024);
    }
    if (round % 2 == 0) {
      EXPECT_TRUE(rt.persist().ok());
    } else {
      EXPECT_TRUE(rt.persist_async().ok());
      EXPECT_TRUE(rt.complete_persist().ok());
    }
    committed = working;
  }
  // Leave uncommitted garbage behind; it must vanish at the crash.
  write(rt, working, (kSchedulePages + 1) * kPageSize, 0xee, 2 * kPageSize);
  write(rt, working, 3 * kPageSize, 0xee, kPageSize);
  rt.sync_step();
  return committed;
}

TEST(HostSyncEquivalenceTest, RecoversExactlyTheBytesTheScheduleWrote) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  std::vector<std::byte> committed;
  {
    auto rt = PaxRuntime::attach(pm.get(), opts()).value();
    committed = run_schedule(*rt);
    // Every round fills at least two batches.
    EXPECT_GE(rt->stats().sync_batches, 8u);
    EXPECT_EQ(rt->stats().lines_dirty_found, rt->sync_stats().lines_synced);
  }

  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), opts()).value();
  ASSERT_EQ(rt->vpm_size(), committed.size());
  for (std::size_t i = 0; i < committed.size(); ++i) {
    ASSERT_EQ(rt->vpm_base()[i], committed[i])
        << "page " << i / kPageSize << " byte " << i % kPageSize;
  }
}

TEST(HostSyncEquivalenceTest, DeviceCallAccounting) {
  // 8 fully-dirtied pages: one peek_lines per page and one sync_lines per
  // full batch.
  auto rt = PaxRuntime::create_in_memory(kPool, opts()).value();
  ASSERT_TRUE(rt->persist().ok());  // settle heap-format writes
  const RuntimeStats before = rt->stats();

  for (std::size_t p = 1; p <= 8; ++p) {
    std::memset(rt->vpm_base() + p * kPageSize, 0x5a, kPageSize);
  }
  ASSERT_TRUE(rt->persist().ok());
  const RuntimeStats after = rt->stats();

  const std::uint64_t dirty =
      after.lines_dirty_found - before.lines_dirty_found;
  EXPECT_EQ(dirty, 8 * kLinesPerPage);
  EXPECT_EQ(after.pages_diffed - before.pages_diffed, 8u);
  EXPECT_EQ(after.sync_batches - before.sync_batches,
            dirty / RuntimeOptions::sync_batch_lines);
  EXPECT_EQ(after.device_calls - before.device_calls,
            (after.pages_diffed - before.pages_diffed) +
                (after.sync_batches - before.sync_batches));
}

TEST(HostSyncEquivalenceTest, SnapshotReadsAnyAlignment) {
  auto rt = PaxRuntime::create_in_memory(kPool, opts()).value();
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
