// Tests of the line-granular incremental diff (per-line digests): the
// full-page compare that covers a single-line digest collision,
// digest-driven skipping, tracking state reset across crash/recovery, and
// a multi-epoch workload recovering exactly the bytes it wrote.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "pax/common/crc.hpp"
#include "pax/libpax/runtime.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 8 << 20;

RuntimeOptions test_opts() {
  RuntimeOptions o;
  o.log_size = 2 << 20;
  return o;
}

std::byte* page_base(PaxRuntime& rt, std::size_t page) {
  return rt.vpm_base() + page * kPageSize;
}

std::uint32_t crc_of_line(PaxRuntime& rt, std::size_t page,
                          std::size_t line) {
  return crc32c(page_base(rt, page) + line * kCacheLineSize, kCacheLineSize);
}

TEST(IncrementalDiffTest, DigestCollisionFallsBackToMemcmp) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  constexpr std::size_t kPage = 3;
  {
    auto rt = PaxRuntime::attach(pm.get(), test_opts()).value();
    std::memset(page_base(*rt, kPage), 0xA1, kCacheLineSize);
    ASSERT_TRUE(rt->persist().ok());  // seeds the page's digests
    ASSERT_TRUE(rt->region().line_digests_valid(PageIndex{kPage}));

    // New epoch: line 0 <- B. The page was re-armed by persist, so the
    // store records it as written.
    std::memset(page_base(*rt, kPage), 0xB2, kCacheLineSize);
    ASSERT_EQ(rt->region().dirty_pages(),
              std::vector<PageIndex>{PageIndex{kPage}});

    // Simulate a CRC collision: overwrite the stored digest with the CRC of
    // the *new* contents while the device still holds A. Digest-only
    // tracking would falsely skip the line; a written page with no
    // mismatching digest is compared in full, which pushes B anyway.
    rt->region().set_line_digest(PageIndex{kPage}, 0,
                                 crc_of_line(*rt, kPage, 0));

    const SyncStats before = rt->sync_stats();
    ASSERT_TRUE(rt->persist().ok());
    const SyncStats after = rt->sync_stats();
    EXPECT_GE(after.lines_synced - before.lines_synced, 1u);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), test_opts()).value();
  EXPECT_EQ(page_base(*rt, kPage)[0], std::byte{0xB2});
}

TEST(IncrementalDiffTest, DigestMatchSkipsLinesWithoutTouchingShadow) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), test_opts()).value();
  constexpr std::size_t kPage = 5;
  std::memset(page_base(*rt, kPage), 0x11, kPageSize);
  ASSERT_TRUE(rt->persist().ok());
  // Persist took (and re-armed) the page: nothing is left written.
  EXPECT_TRUE(rt->region().dirty_pages().empty());

  // Touch exactly one line. Only that line (digest mismatch) may reach the
  // memcmp; the other 63 must be skipped outright.
  page_base(*rt, kPage)[0] = std::byte{0x22};
  const SyncStats before = rt->sync_stats();
  ASSERT_TRUE(rt->persist().ok());
  const SyncStats after = rt->sync_stats();
  EXPECT_EQ(after.pages_scanned - before.pages_scanned, 1u);
  EXPECT_EQ(after.lines_diffed - before.lines_diffed, 1u);
  EXPECT_EQ(after.lines_skipped - before.lines_skipped, kLinesPerPage - 1);
  EXPECT_EQ(after.lines_synced - before.lines_synced, 1u);

  // The one pushed line survives power loss.
  rt.reset();
  pm->crash(pmem::CrashConfig::drop_all());
  rt = PaxRuntime::attach(pm.get(), test_opts()).value();
  EXPECT_EQ(page_base(*rt, kPage)[0], std::byte{0x22});
  EXPECT_EQ(page_base(*rt, kPage)[1], std::byte{0x11});
}

TEST(IncrementalDiffTest, TrackingStateResetsAcrossCrashRecovery) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  constexpr std::size_t kPage = 7;
  {
    auto rt = PaxRuntime::attach(pm.get(), test_opts()).value();
    std::memset(page_base(*rt, kPage), 0x33, kPageSize);
    ASSERT_TRUE(rt->persist().ok());
    ASSERT_TRUE(rt->region().line_digests_valid(PageIndex{kPage}));
    // Uncommitted garbage that must die with the crash.
    std::memset(page_base(*rt, kPage), 0xEE, kPageSize);
  }
  pm->crash(pmem::CrashConfig::torn(0.5, 99));

  auto rt = PaxRuntime::attach(pm.get(), test_opts()).value();
  // A fresh region: no page may carry digests or a written mark from the
  // previous life — the first diff of each page is a full rebuild.
  EXPECT_FALSE(rt->region().line_digests_valid(PageIndex{kPage}));
  EXPECT_TRUE(rt->region().dirty_pages().empty());
  for (std::size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(page_base(*rt, kPage)[i], std::byte{0x33}) << "byte " << i;
  }

  page_base(*rt, kPage)[0] = std::byte{0x44};
  const SyncStats before = rt->sync_stats();
  ASSERT_TRUE(rt->persist().ok());
  const SyncStats after = rt->sync_stats();
  EXPECT_GE(after.digest_rebuilds - before.digest_rebuilds, 1u);
  EXPECT_TRUE(rt->region().line_digests_valid(PageIndex{kPage}));

  // The rebuilt page's changed line was pushed and survives power loss.
  rt.reset();
  pm->crash(pmem::CrashConfig::drop_all());
  rt = PaxRuntime::attach(pm.get(), test_opts()).value();
  EXPECT_EQ(page_base(*rt, kPage)[0], std::byte{0x44});
  EXPECT_EQ(page_base(*rt, kPage)[1], std::byte{0x33});
}

TEST(IncrementalDiffTest, SparseEpochsDiffOnlyWrittenLinesAndRecoverThem) {
  // Four lines on each of six pages, rewritten every epoch. The first diff
  // of each page compares all of it and seeds its digests; every later one
  // compares exactly the four written lines. Recovery must return the bytes
  // the last epoch wrote.
  constexpr std::size_t kPages = 6;
  constexpr std::size_t kLines = 4;
  constexpr int kEpochs = 3;
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  std::vector<std::byte> shadow;
  {
    auto rt = PaxRuntime::attach(pm.get(), test_opts()).value();
    ASSERT_TRUE(rt->persist().ok());  // settle heap-format writes
    shadow.assign(rt->vpm_base(), rt->vpm_base() + rt->vpm_size());
    const SyncStats base = rt->sync_stats();
    SyncStats prev = base;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      for (std::size_t p = 1; p <= kPages; ++p) {
        for (std::size_t l = 0; l < kLines; ++l) {
          const std::size_t off = p * kPageSize + l * kCacheLineSize + 7;
          const auto value = static_cast<std::byte>(0x50 + epoch * 8 + p);
          rt->vpm_base()[off] = value;
          shadow[off] = value;
        }
      }
      ASSERT_TRUE(rt->persist().ok());
      const SyncStats now = rt->sync_stats();
      EXPECT_EQ(now.pages_scanned - prev.pages_scanned, kPages);
      EXPECT_EQ(now.lines_synced - prev.lines_synced, kPages * kLines);
      EXPECT_EQ(now.lines_diffed - prev.lines_diffed,
                kPages * (epoch == 0 ? kLinesPerPage : kLines))
          << "epoch " << epoch;
      EXPECT_EQ(now.digest_rebuilds - prev.digest_rebuilds,
                epoch == 0 ? kPages : 0u);
      prev = now;
    }
    // Every scanned line is either compared or skipped, exactly once.
    EXPECT_EQ((prev.lines_diffed - base.lines_diffed) +
                  (prev.lines_skipped - base.lines_skipped),
              (prev.pages_scanned - base.pages_scanned) * kLinesPerPage);
    EXPECT_EQ(rt->stats().lines_dirty_found, prev.lines_synced);
  }
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), test_opts()).value();
  ASSERT_EQ(rt->vpm_size(), shadow.size());
  for (std::size_t i = 0; i < shadow.size(); ++i) {
    ASSERT_EQ(rt->vpm_base()[i], shadow[i])
        << "page " << i / kPageSize << " byte " << i % kPageSize;
  }
}

}  // namespace
}  // namespace pax::libpax
