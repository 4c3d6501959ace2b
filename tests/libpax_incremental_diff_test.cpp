// Tests of the line-granular incremental diff (track_lines): the full-page
// compare that covers a single-line digest collision, digest-driven
// skipping, tracking state reset across crash/recovery, and stats
// equivalence with tracking off.
#include <gtest/gtest.h>

#include <cstring>

#include "pax/common/crc.hpp"
#include "pax/libpax/runtime.hpp"

namespace pax::libpax {
namespace {

constexpr std::size_t kPool = 8 << 20;

RuntimeOptions tracked_opts() {
  RuntimeOptions o;
  o.log_size = 2 << 20;
  o.sync_batch_lines = 64;
  o.track_lines = true;
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
    auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
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
  auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
  EXPECT_EQ(page_base(*rt, kPage)[0], std::byte{0xB2});
}

TEST(IncrementalDiffTest, DigestMatchSkipsLinesWithoutTouchingShadow) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
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
  rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
  EXPECT_EQ(page_base(*rt, kPage)[0], std::byte{0x22});
  EXPECT_EQ(page_base(*rt, kPage)[1], std::byte{0x11});
}

TEST(IncrementalDiffTest, TrackingStateResetsAcrossCrashRecovery) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);
  constexpr std::size_t kPage = 7;
  {
    auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
    std::memset(page_base(*rt, kPage), 0x33, kPageSize);
    ASSERT_TRUE(rt->persist().ok());
    ASSERT_TRUE(rt->region().line_digests_valid(PageIndex{kPage}));
    // Uncommitted garbage that must die with the crash.
    std::memset(page_base(*rt, kPage), 0xEE, kPageSize);
  }
  pm->crash(pmem::CrashConfig::torn(0.5, 99));

  auto rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
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
  rt = PaxRuntime::attach(pm.get(), tracked_opts()).value();
  EXPECT_EQ(page_base(*rt, kPage)[0], std::byte{0x44});
  EXPECT_EQ(page_base(*rt, kPage)[1], std::byte{0x33});
}

TEST(IncrementalDiffTest, TrackingOffReproducesLegacyStatsExactly) {
  // The same deterministic workload against tracking on and off; off must
  // behave (and count) exactly like the page-granular path, and both must
  // find the same dirty lines and recover the same state.
  auto run = [](bool track, RuntimeStats* rstats, SyncStats* sstats,
                std::vector<std::byte>* image) {
    auto pm = pmem::PmemDevice::create_in_memory(kPool);
    RuntimeOptions opts = tracked_opts();
    opts.track_lines = track;
    int last = 0;
    {
      auto rt = PaxRuntime::attach(pm.get(), opts).value();
      for (int epoch = 0; epoch < 3; ++epoch) {
        last = 0x50 + epoch;
        for (std::size_t p = 1; p <= 6; ++p) {
          for (std::size_t l = 0; l < 4; ++l) {
            page_base(*rt, p)[l * kCacheLineSize] =
                static_cast<std::byte>(last);
          }
        }
        ASSERT_TRUE(rt->persist().ok());
      }
      *rstats = rt->stats();
      *sstats = rt->sync_stats();
    }
    pm->crash(pmem::CrashConfig::drop_all());
    auto rt = PaxRuntime::attach(pm.get(), opts).value();
    image->assign(rt->vpm_base() + kPageSize, rt->vpm_base() + 7 * kPageSize);
  };

  RuntimeStats on_r{}, off_r{};
  SyncStats on_s{}, off_s{};
  std::vector<std::byte> on_image, off_image;
  run(true, &on_r, &on_s, &on_image);
  run(false, &off_r, &off_s, &off_image);

  // Tracking off: no skips, every scanned page is a full 64-line compare —
  // the PR 2 accounting, untouched.
  EXPECT_EQ(off_s.lines_skipped, 0u);
  EXPECT_EQ(off_s.digest_rebuilds, 0u);
  EXPECT_EQ(off_s.lines_diffed, off_s.pages_scanned * kLinesPerPage);
  EXPECT_EQ(off_r.lines_diff_checked,
            off_r.pages_diffed * kLinesPerPage);

  // Both modes push the same lines and recover the same bytes.
  EXPECT_EQ(on_r.lines_dirty_found, off_r.lines_dirty_found);
  EXPECT_EQ(on_r.persists, off_r.persists);
  EXPECT_EQ(on_s.lines_synced, off_s.lines_synced);
  EXPECT_LT(on_s.lines_diffed, off_s.lines_diffed);  // tracking earns skips
  EXPECT_EQ(on_image, off_image);
}

}  // namespace
}  // namespace pax::libpax
