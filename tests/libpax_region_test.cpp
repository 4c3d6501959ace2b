// VpmRegion write tracking and the take/re-arm contract. The file runs twice
// under ctest: as is (the process's default tracker, uffd-wp where the
// kernel has it) and as libpax_region_test_mprotect through no_uffd_exec,
// which forces the mprotect fallback.
#include "pax/libpax/vpm_region.hpp"

#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "pax/libpax/runtime.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kRegionSize = 64 * kPageSize;

std::vector<PageIndex> take(VpmRegion& r) {
  auto taken = r.take_written();
  EXPECT_TRUE(taken.ok()) << taken.status().to_string();
  return taken.ok() ? taken.value() : std::vector<PageIndex>{};
}

TEST(VpmRegionTest, FreshRegionIsWritableAndClean) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok()) << region.status().to_string();
  auto& r = *region.value();
  std::memset(r.base(), 0x11, kPageSize);  // not armed yet: not recorded
  EXPECT_TRUE(r.dirty_pages().empty());
  EXPECT_TRUE(take(r).empty());
  EXPECT_EQ(r.fault_count(), 0u);
}

TEST(VpmRegionTest, WriteAfterProtectIsRecordedOncePerPage) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  r.base()[0] = std::byte{1};
  r.base()[100] = std::byte{2};            // same page: recorded once
  r.base()[kPageSize + 5] = std::byte{3};  // second page

  auto dirty = r.dirty_pages();
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_EQ(dirty[0], PageIndex{0});
  EXPECT_EQ(dirty[1], PageIndex{1});
  EXPECT_EQ(r.fault_count(), 0u);  // counted by the takes
  EXPECT_EQ(take(r), dirty);
  EXPECT_EQ(r.fault_count(), 2u);
}

TEST(VpmRegionTest, ReadsAreNotRecorded) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  volatile std::byte sink{};
  for (std::size_t i = 0; i < kRegionSize; i += kPageSize) sink = r.base()[i];
  (void)sink;
  EXPECT_TRUE(r.dirty_pages().empty());
  EXPECT_TRUE(take(r).empty());
  EXPECT_EQ(r.fault_count(), 0u);
}

TEST(VpmRegionTest, TakeRearmsTracking) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  r.base()[0] = std::byte{1};
  EXPECT_EQ(take(r), std::vector<PageIndex>{PageIndex{0}});
  EXPECT_TRUE(r.dirty_pages().empty());

  r.base()[1] = std::byte{2};
  EXPECT_EQ(r.dirty_pages(), std::vector<PageIndex>{PageIndex{0}});
  EXPECT_EQ(take(r), std::vector<PageIndex>{PageIndex{0}});
  EXPECT_EQ(r.fault_count(), 2u);
}

TEST(VpmRegionTest, PutBackReturnsPagesToTheWrittenSet) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  r.base()[0] = std::byte{1};
  r.base()[kPageSize] = std::byte{1};
  const auto taken = take(r);
  ASSERT_EQ(taken.size(), 2u);
  const std::vector<PageIndex> second{PageIndex{1}};
  ASSERT_TRUE(r.put_back(second).is_ok());
  EXPECT_EQ(r.dirty_pages(), second);
  EXPECT_EQ(r.fault_count(), 1u);  // net of the put-back page

  r.base()[kPageSize + 1] = std::byte{2};  // still writable, still written
  EXPECT_EQ(take(r), second);
  EXPECT_EQ(r.fault_count(), 2u);
}

TEST(VpmRegionTest, DirtyPagesSortedAndComplete) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  for (std::size_t p : {7u, 3u, 11u, 0u}) {
    r.base()[p * kPageSize] = std::byte{9};
  }
  auto dirty = r.dirty_pages();
  ASSERT_EQ(dirty.size(), 4u);
  EXPECT_EQ(dirty[0].value, 0u);
  EXPECT_EQ(dirty[1].value, 3u);
  EXPECT_EQ(dirty[2].value, 7u);
  EXPECT_EQ(dirty[3].value, 11u);
}

TEST(VpmRegionTest, ConcurrentWritersAllTracked) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  ASSERT_TRUE(r.protect_all().is_ok());

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, t] {
      for (std::size_t p = 0; p < 64; ++p) {
        // All threads hammer all pages: races on the same page must be safe.
        r.base()[p * kPageSize + t] = static_cast<std::byte>(t + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(r.dirty_pages().size(), 64u);
}

TEST(VpmRegionTest, TakesRacingWritersLoseNoStore) {
  // Writers store without pause while the main thread keeps taking the
  // written set and reading the taken pages, as a diff would. Every store
  // must show up in a take's page contents or in the next take: a page
  // left out of the final take must still hold what its last take read.
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  std::memset(r.base(), 0, kRegionSize);
  ASSERT_TRUE(r.protect_all().is_ok());

  constexpr std::size_t kWords = kPageSize / sizeof(std::uint64_t);
  constexpr std::size_t kPages = kRegionSize / kPageSize;
  constexpr int kWriters = 3;
  auto* words = reinterpret_cast<std::uint64_t*>(r.base());
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      std::uint64_t seq = 0;
      std::size_t page = static_cast<std::size_t>(t) * 7;
      while (!stop.load(std::memory_order_relaxed)) {
        page = (page * 13 + 5) % kPages;
        __atomic_store_n(&words[page * kWords + t], ++seq, __ATOMIC_RELAXED);
      }
    });
  }

  // What the last take that included each page read from it.
  std::vector<std::uint64_t> seen(kPages * kWords, 0);
  auto read_taken = [&](const std::vector<PageIndex>& taken) {
    for (PageIndex p : taken) {
      for (std::size_t w = 0; w < kWords; ++w) {
        seen[p.value * kWords + w] =
            __atomic_load_n(&words[p.value * kWords + w], __ATOMIC_RELAXED);
      }
    }
  };
  // Keep taking until 200 takes caught writes (or 5 s pass on a starved
  // host).
  std::size_t takes_with_pages = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (takes_with_pages < 200 &&
         std::chrono::steady_clock::now() < deadline) {
    const auto taken = take(r);
    takes_with_pages += taken.empty() ? 0 : 1;
    read_taken(taken);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : writers) th.join();
  EXPECT_GT(takes_with_pages, 0u);

  const auto final_take = take(r);
  std::vector<bool> in_final(kPages, false);
  for (PageIndex p : final_take) in_final[p.value] = true;
  for (std::size_t p = 0; p < kPages; ++p) {
    if (in_final[p]) continue;
    for (std::size_t w = 0; w < kWords; ++w) {
      ASSERT_EQ(words[p * kWords + w], seen[p * kWords + w])
          << "store to page " << p << " word " << w << " never taken";
    }
  }
}

// The mprotect tracker's arming lock, forced deterministically: a writer's
// fault handler is parked between flagging its page and unprotecting it
// while the main thread takes the written set. With the lock, the take
// waits for the handler and the store lands in a take; without it, the
// take re-arms the page, the handler then unprotects it with its flag
// clear, and the store is never taken.
std::atomic<int> g_park_stage{0};  // 0 armed, 1 parked, 2 take finished

void park_first_fault() {
  int armed = 0;
  if (!g_park_stage.compare_exchange_strong(armed, 1)) return;
  // Async-signal-safe wait: until the take finished, or 200 ms (with the
  // arming lock held the take cannot finish before this returns).
  for (int i = 0; i < 200 && g_park_stage.load() != 2; ++i) {
    const timespec ms{0, 1'000'000};
    ::nanosleep(&ms, nullptr);
  }
}

TEST(VpmRegionTest, TakeDuringParkedFaultLosesNoStore) {
  auto region = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(region.ok());
  auto& r = *region.value();
  if (r.tracker() != VpmRegion::Tracker::kMprotect) {
    GTEST_SKIP() << "mprotect tracker only (ctest runs it via no_uffd_exec)";
  }
  std::memset(r.base(), 0, kRegionSize);
  ASSERT_TRUE(r.protect_all().is_ok());

  constexpr std::size_t kPage = 5;
  auto* word = reinterpret_cast<std::uint64_t*>(r.base() + kPage * kPageSize);
  g_park_stage.store(0);
  VpmRegion::set_fault_hook_for_testing(&park_first_fault);
  std::thread writer([&] { __atomic_store_n(word, 42, __ATOMIC_RELAXED); });
  while (g_park_stage.load() != 1) std::this_thread::yield();

  // A diff of the take reads the taken pages.
  std::uint64_t seen = 0;
  for (PageIndex p : take(r)) {
    if (p.value == kPage) seen = __atomic_load_n(word, __ATOMIC_RELAXED);
  }
  g_park_stage.store(2);
  writer.join();
  VpmRegion::set_fault_hook_for_testing(nullptr);

  const auto final_take = take(r);
  const bool in_final =
      std::find(final_take.begin(), final_take.end(), PageIndex{kPage}) !=
      final_take.end();
  if (!in_final) {
    EXPECT_EQ(*word, seen) << "the store to page " << kPage
                           << " was never taken";
  }
}

TEST(VpmRegionTest, TwoRegionsCoexist) {
  auto a = VpmRegion::create(kRegionSize);
  auto b = VpmRegion::create(kRegionSize);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a.value()->protect_all().is_ok());
  ASSERT_TRUE(b.value()->protect_all().is_ok());

  a.value()->base()[0] = std::byte{1};
  b.value()->base()[kPageSize] = std::byte{2};
  EXPECT_EQ(a.value()->dirty_pages().size(), 1u);
  EXPECT_EQ(b.value()->dirty_pages().size(), 1u);
  EXPECT_EQ(b.value()->dirty_pages()[0], PageIndex{1});
}

TEST(VpmRegionTest, RejectsUnalignedSize) {
  auto region = VpmRegion::create(kPageSize + 1);
  EXPECT_FALSE(region.ok());
}

// --- The take/re-arm contract through PaxRuntime ----------------------------

TEST(TakeContractTest, FailedSyncPutsItsPagesBack) {
  // A two-page undo log holds a few dozen line records: an epoch writing
  // one line on each of 200 pages fails its sync with OUT_OF_SPACE.
  constexpr std::size_t kPages = 200;
  auto pm = pmem::PmemDevice::create_in_memory(8 << 20);
  RuntimeOptions o;
  o.log_size = 2 * kPageSize;
  Epoch committed = 0;
  {
    auto rt = PaxRuntime::attach(pm.get(), o).value();
    std::byte* data = rt->vpm_base() + 16 * kPageSize;
    ASSERT_TRUE(rt->persist().ok());
    committed = rt->committed_epoch();
    const auto faults_before = rt->region().fault_count();
    for (std::size_t p = 0; p < kPages; ++p) {
      data[p * kPageSize] = static_cast<std::byte>(p + 1);
    }

    auto failed = rt->persist();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kOutOfSpace)
        << failed.status().to_string();
    const auto dirty = rt->region().dirty_pages();
    ASSERT_EQ(dirty.size(), kPages);
    for (std::size_t p = 0; p < kPages; ++p) {
      EXPECT_EQ(dirty[p], PageIndex{16 + p});
      EXPECT_EQ(data[p * kPageSize], static_cast<std::byte>(p + 1));
    }
    EXPECT_EQ(rt->region().fault_count(), faults_before);

    // A background sync fails the same way and keeps the set too.
    rt->sync_step();
    EXPECT_EQ(rt->region().dirty_pages().size(), kPages);
  }
  // Nothing of the failed epoch was committed.
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), o).value();
  EXPECT_EQ(rt->committed_epoch(), committed);
  for (std::size_t p = 0; p < kPages; ++p) {
    EXPECT_EQ(rt->vpm_base()[(16 + p) * kPageSize], std::byte{0});
  }
}

TEST(TakeContractTest, PageWithNoMismatchingDigestIsComparedInFull) {
  RuntimeOptions o;
  o.log_size = 2 << 20;
  auto rt = PaxRuntime::create_in_memory(8 << 20, o).value();
  constexpr std::size_t kPage = 9;
  std::byte* page = rt->vpm_base() + kPage * kPageSize;
  std::memset(page, 0x5C, kPageSize);
  ASSERT_TRUE(rt->persist().ok());
  ASSERT_TRUE(rt->region().line_digests_valid(PageIndex{kPage}));

  // Rewriting a line with its current value records the page as written
  // while every digest still matches: the diff compares all 64 lines.
  page[3 * kCacheLineSize] = std::byte{0x5C};
  const SyncStats before = rt->sync_stats();
  ASSERT_TRUE(rt->persist().ok());
  const SyncStats after = rt->sync_stats();
  EXPECT_EQ(after.pages_scanned - before.pages_scanned, 1u);
  EXPECT_EQ(after.lines_diffed - before.lines_diffed, kLinesPerPage);
  EXPECT_EQ(after.lines_skipped - before.lines_skipped, 0u);
  EXPECT_EQ(after.lines_synced - before.lines_synced, 0u);
}

}  // namespace
}  // namespace pax::libpax
