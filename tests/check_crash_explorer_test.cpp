// Seeded-bug coverage for CrashExplorer: each deleted ordering edge must be
// localized to its exact first bad crash index, and the correct twin of the
// same workload must enumerate clean at every crash point (k = 1). The
// edges are those of the device's undo protocol: a line's write-back waits
// for its whole undo frame, and the epoch commit waits for a fence.
#include "pax/check/crashpoint.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "pax/pmem/pmem_device.hpp"
#include "pax/pmem/pool.hpp"
#include "pax/wal/wal.hpp"
#include "test_util.hpp"

namespace pax {
namespace {

using check::CrashExplorer;
using check::CrashExplorerOptions;
using check::CrashOracle;
using check::ExplorationResult;

constexpr std::size_t kDeviceBytes = 1 << 20;
constexpr std::size_t kLogBytes = 64 * 1024;
constexpr Epoch kEpochs = 3;
constexpr std::uint64_t kLinesPerEpoch = 2;

struct WalBugs {
  bool skip_undo_flush = false;    // Bug A: write-back before undo durable
  bool skip_commit_drain = false;  // Bug B: commit without fence
  // Bug C: a line's write-back gated on the end of its own entry instead of
  // the end of its frame — the log is made durable only up to the entry,
  // so a crash can tear the frame's tail and recovery drops the frame whole.
  bool gate_on_entry_end = false;
};

// The §3.3 undo-WAL protocol over a raw device, with its ordering edges
// explicit: each epoch logs its lines' pre-images as one undo frame, makes
// the frame durable, then writes the lines back. Each bug switch deletes
// one edge; `vulnerable_out` captures the first device event index at which
// the deleted edge matters (set once, on whichever execution reaches it
// first — the count is identical on every run, which the explorer
// verifies).
Status wal_workload(pmem::PmemDevice& dev, CrashOracle& oracle,
                    const WalBugs& bugs, std::uint64_t* vulnerable_out) {
  auto pool = pmem::PmemPool::create(&dev, kLogBytes);
  if (!pool.ok()) return pool.status();
  auto& p = pool.value();
  PAX_RETURN_IF_ERROR(oracle.note_commit(p.committed_epoch()));
  const std::size_t half = (p.log_size() / 2) & ~(kCacheLineSize - 1);
  wal::LogWriter log(&dev, p.log_offset(), half);
  const auto data_line = [&](std::uint64_t i) {
    return LineIndex{p.data_offset() / kCacheLineSize + i};
  };
  for (Epoch e = 1; e <= kEpochs; ++e) {
    std::vector<std::pair<LineIndex, LineData>> undo;
    for (std::uint64_t i = 0; i < kLinesPerEpoch; ++i) {
      undo.emplace_back(data_line(i), dev.load_line(data_line(i)));
    }
    std::vector<std::byte> payload;
    wal::encode_line_undo_frame(undo, &payload);
    const PoolOffset frame_at = p.log_offset() + log.appended();
    auto end = log.append(e, wal::RecordType::kLineUndoFrame, payload);
    if (!end.ok()) return end.status();
    for (std::uint64_t i = 0; i < kLinesPerEpoch; ++i) {
      const LineIndex line = data_line(i);
      const std::size_t entry_end = sizeof(wal::RecordHeader) +
                                    (i + 1) * wal::kLineUndoEntrySize;
      if (bugs.gate_on_entry_end) {
        dev.flush_range(frame_at, entry_end);  // only up to this entry
        dev.drain();
      } else if (!bugs.skip_undo_flush) {
        log.flush();  // the whole frame durable before data
      }
      dev.store_line(line, testing::patterned_line(e * 16 + i));
      dev.flush_line(line);
      // Bug C bites once a line of the frame past this entry still differs
      // from the media (a tail that happens to match — e.g. all-zero
      // pre-images over a fresh extent — leaves the CRC intact).
      bool frame_volatile = bugs.skip_undo_flush;
      for (LineIndex l{LineIndex::containing(frame_at + entry_end - 1).value +
                       1};
           bugs.gate_on_entry_end &&
           l <= LineIndex::containing(p.log_offset() + end.value() - 1);
           ++l.value) {
        frame_volatile |= !(dev.load_line(l) == dev.durable_line(l));
      }
      if (frame_volatile && vulnerable_out != nullptr &&
          *vulnerable_out == 0) {
        *vulnerable_out = dev.crash_events();  // data durable, frame is not
      }
    }
    log.flush();  // no-op edge when the frame is durable; catch-up when not
    // Touch a data line after the log flush so the commit genuinely depends
    // on the epoch-closing drain below.
    const LineIndex line = data_line(0);
    dev.store_line(line, testing::patterned_line(e * 16));
    dev.flush_line(line);
    if (bugs.skip_commit_drain) {
      if (vulnerable_out != nullptr && *vulnerable_out == 0) {
        *vulnerable_out = dev.crash_events() + 1;  // the epoch-cell store
      }
    } else {
      dev.drain();
    }
    p.commit_epoch(e);
    PAX_RETURN_IF_ERROR(oracle.note_commit(e));
  }
  return Status::ok();
}

CrashExplorer make_explorer(const WalBugs& bugs,
                            std::uint64_t* vulnerable_out,
                            CrashExplorerOptions options) {
  return CrashExplorer(
      kDeviceBytes,
      [bugs, vulnerable_out](pmem::PmemDevice& dev, CrashOracle& oracle) {
        return wal_workload(dev, oracle, bugs, vulnerable_out);
      },
      std::move(options));
}

TEST(CrashExplorer, CleanWorkloadEnumeratesCleanExhaustively) {
  auto explorer = make_explorer(WalBugs{}, nullptr, {});
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const ExplorationResult& r = result.value();
  EXPECT_TRUE(r.clean()) << r.to_string();
  EXPECT_EQ(r.first_bad(), check::kNoCrashPoint);
  EXPECT_EQ(r.epochs, static_cast<std::uint64_t>(kEpochs) + 1);
  EXPECT_GT(r.total_events, 0u);
  EXPECT_GT(r.crash_points, 0u);
  // Exhaustive k=1: every point after the baseline was tested, and each
  // tested point was recovered under all three default modes.
  EXPECT_EQ(r.executions, r.crash_points + 1);
  EXPECT_EQ(r.recoveries, 3 * r.crash_points);
}

TEST(CrashExplorer, WritebackBeforeUndoDurableLocalizedExactly) {
  WalBugs bugs;
  bugs.skip_undo_flush = true;
  std::uint64_t vulnerable = 0;
  CrashExplorerOptions options;
  options.modes = {{"drop_all", pmem::CrashConfig::drop_all()}};
  options.max_findings = 1;  // points ascend, so the first finding is min
  auto explorer = make_explorer(bugs, &vulnerable, options);
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const ExplorationResult& r = result.value();
  ASSERT_FALSE(r.clean());
  ASSERT_NE(vulnerable, 0u);
  // First bad point: the flush that made the data line durable while its
  // undo record was still in the pending overlay.
  EXPECT_EQ(r.first_bad(), vulnerable) << r.to_string();
  EXPECT_NE(r.findings.front().detail.find("diverges"), std::string::npos)
      << r.findings.front().detail;
}

TEST(CrashExplorer, WritebackGatedOnEntryInsteadOfFrameLocalizedExactly) {
  WalBugs bugs;
  bugs.gate_on_entry_end = true;
  std::uint64_t vulnerable = 0;
  CrashExplorerOptions options;
  options.modes = {{"drop_all", pmem::CrashConfig::drop_all()}};
  options.max_findings = 1;
  auto explorer = make_explorer(bugs, &vulnerable, options);
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const ExplorationResult& r = result.value();
  ASSERT_FALSE(r.clean());
  ASSERT_NE(vulnerable, 0u);
  // First bad point: the flush that made the first line's new data durable
  // while its entry was durable but the rest of its frame was not. Recovery
  // finds the frame torn, drops it whole, and cannot roll the line back.
  EXPECT_EQ(r.first_bad(), vulnerable) << r.to_string();
  EXPECT_NE(r.findings.front().detail.find("diverges"), std::string::npos)
      << r.findings.front().detail;
}

TEST(CrashExplorer, CommitWithoutFenceLocalizedExactly) {
  WalBugs bugs;
  bugs.skip_commit_drain = true;
  std::uint64_t vulnerable = 0;
  CrashExplorerOptions options;
  options.modes = {{"drop_all", pmem::CrashConfig::drop_all()}};
  options.max_findings = 1;
  auto explorer = make_explorer(bugs, &vulnerable, options);
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  const ExplorationResult& r = result.value();
  ASSERT_FALSE(r.clean());
  ASSERT_NE(vulnerable, 0u);
  // The device state is consistent (our simulated flush is immediately
  // durable), so only the PaxCheck audit of the truncated stream sees this
  // bug — at the first crash point whose prefix contains the unfenced
  // epoch commit, i.e. the epoch-cell store itself.
  EXPECT_EQ(r.first_bad(), vulnerable) << r.to_string();
  EXPECT_NE(r.findings.front().detail.find("commit"), std::string::npos)
      << r.findings.front().detail;
}

TEST(CrashExplorer, ApplicationInvariantFailuresBecomeFindings) {
  auto explorer = make_explorer(WalBugs{}, nullptr, {});
  explorer.set_invariant([](pmem::PmemPool&, Epoch) {
    return corruption("app invariant rejected");
  });
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_FALSE(result.value().clean());
  EXPECT_NE(
      result.value().findings.front().detail.find("app invariant rejected"),
      std::string::npos);
}

TEST(CrashExplorer, SampledPointsCoverTheTail) {
  CrashExplorerOptions options;
  options.max_crash_points = 7;
  options.modes = {{"drop_all", pmem::CrashConfig::drop_all()}};
  auto explorer = make_explorer(WalBugs{}, nullptr, options);
  auto result = explorer.explore();
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().clean()) << result.value().to_string();
  EXPECT_LE(result.value().crash_points, 7u);
  // Sampling keeps the last crash point (teardown-adjacent bugs).
  EXPECT_EQ(result.value().executions, result.value().crash_points + 1);
}

TEST(CrashExplorer, WorkloadWithoutSnapshotsIsRejected) {
  CrashExplorer explorer(
      kDeviceBytes,
      [](pmem::PmemDevice& dev, CrashOracle&) -> Status {
        auto pool = pmem::PmemPool::create(&dev, kLogBytes);
        return pool.ok() ? Status::ok() : pool.status();
      },
      {});
  auto result = explorer.explore();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().to_string().find("note_commit"),
            std::string::npos);
}

}  // namespace
}  // namespace pax
