// Seeded-bug coverage for the PaxCheck persist-order rules: each rule must
// fire exactly once on its injected violation and stay silent on the
// equivalent correct sequence (docs/ANALYSIS.md).
#include <gtest/gtest.h>

#include "pax/check/checker.hpp"
#include "pax/libpax/runtime.hpp"
#include "pax/pmem/pmem_device.hpp"
#include "pax/pmem/pool.hpp"
#include "test_util.hpp"

namespace pax {
namespace {

using check::Checker;
using check::Rule;

// Injected bug: a store whose flush was deleted, present at epoch commit.
TEST(PaxCheckPersistOrder, UnflushedLineAtCommitFires) {
  auto tp = testing::TestPool::create();
  Checker checker;
  tp.device->set_checker(&checker);

  const LineIndex dirty = tp.data_line(3);
  const LineIndex clean = tp.data_line(7);
  tp.device->store_line(dirty, testing::patterned_line(1));  // flush deleted
  tp.device->store_line(clean, testing::patterned_line(2));
  tp.device->flush_line(clean);
  tp.device->drain();
  tp.pool.commit_epoch(1);

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kUnflushedLineAtCommit), 1u);
  ASSERT_FALSE(report.violations.empty());
  const auto& v = report.violations.front();
  EXPECT_EQ(v.rule, Rule::kUnflushedLineAtCommit);
  EXPECT_EQ(v.line, dirty.value);
  EXPECT_FALSE(v.backtrace.empty());  // the store is in the backtrace
  tp.device->set_checker(nullptr);
}

TEST(PaxCheckPersistOrder, FlushedCommitIsClean) {
  auto tp = testing::TestPool::create();
  Checker checker;
  tp.device->set_checker(&checker);

  const LineIndex line = tp.data_line(3);
  tp.device->store_line(line, testing::patterned_line(1));
  tp.device->flush_line(line);
  tp.device->drain();
  tp.pool.commit_epoch(1);

  EXPECT_TRUE(checker.report().clean()) << checker.report().to_string();
  tp.device->set_checker(nullptr);
}

// Injected bug: the drain (SFENCE) before the commit was deleted — the
// flushes are unordered relative to the commit record.
TEST(PaxCheckPersistOrder, CommitWithoutFenceFires) {
  auto tp = testing::TestPool::create();
  Checker checker;
  tp.device->set_checker(&checker);

  const LineIndex line = tp.data_line(5);
  tp.device->store_line(line, testing::patterned_line(9));
  tp.device->flush_line(line);  // drain deleted
  tp.pool.commit_epoch(1);

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kCommitWithoutFence), 1u);
  EXPECT_EQ(report.count(Rule::kUnflushedLineAtCommit), 0u);
  tp.device->set_checker(nullptr);
}

// Redundant flushes (CLWB of an already-clean line) are a perf diagnostic,
// never a violation: the WAL flush path legitimately re-flushes the line
// holding the durable boundary.
TEST(PaxCheckPersistOrder, RedundantFlushIsDiagnosticOnly) {
  auto tp = testing::TestPool::create();
  Checker checker;
  tp.device->set_checker(&checker);

  const LineIndex line = tp.data_line(2);
  tp.device->store_line(line, testing::patterned_line(4));
  tp.device->flush_line(line);
  tp.device->flush_line(line);  // nothing pending: redundant
  tp.device->drain();

  auto report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GE(report.diagnostics.redundant_flushes, 1u);
  tp.device->set_checker(nullptr);
}

// Injected bug: a data line written back to PM while its undo record is
// still beyond the log's durable watermark (the §3.3 gating invariant,
// driven through the event API — the real device refuses to reach this
// state, which is exactly why the rule needs a synthetic trace).
TEST(PaxCheckPersistOrder, WritebackBeforeUndoDurableFires) {
  Checker checker;
  checker.on_log_append(/*logger=*/7, /*line=*/41, /*end=*/96);
  // Log flush deleted: the watermark never reached 96.
  checker.on_writeback(/*line=*/41, /*logger=*/7, /*end=*/96);
  checker.on_drain();

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kWritebackBeforeUndoDurable), 1u);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front().line, 41u);
}

TEST(PaxCheckPersistOrder, DurableWritebackIsClean) {
  Checker checker;
  checker.on_log_append(7, 41, 96);
  checker.on_log_flush(7, /*durable=*/96);
  checker.on_writeback(41, 7, 96);
  checker.on_drain();
  EXPECT_TRUE(checker.report().clean()) << checker.report().to_string();
}

// Injected bug: a tracked-line digest applied before the sync_lines batch
// carrying the line resolved — a crash of the batch would leave the digest
// claiming the device holds data it never received.
TEST(PaxCheckPersistOrder, DigestBeforeBatchOutcomeFires) {
  Checker checker;
  checker.on_sync_push(/*line=*/9);
  checker.on_digest_apply(9);  // applied early: the batch is in flight
  checker.on_sync_batch_ok();

  auto report = checker.report();
  EXPECT_EQ(report.count(Rule::kDigestBeforeBatchOutcome), 1u);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front().line, 9u);
}

TEST(PaxCheckPersistOrder, DigestAfterBatchOutcomeIsClean) {
  Checker checker;
  checker.on_sync_push(9);
  checker.on_sync_batch_ok();
  checker.on_digest_apply(9);
  EXPECT_TRUE(checker.report().clean()) << checker.report().to_string();
}

// A failed batch also clears its pushed lines: the digests were never
// applied, so the retry re-pushes them without a stale-push false positive.
TEST(PaxCheckPersistOrder, FailedBatchClearsPushedLines) {
  Checker checker;
  checker.on_sync_push(9);
  checker.on_sync_batch_fail();
  checker.on_sync_push(9);
  checker.on_sync_batch_ok();
  checker.on_digest_apply(9);
  EXPECT_TRUE(checker.report().clean()) << checker.report().to_string();
}

// The full libpax stack — pool format, recovery, line-tracked sync,
// sync persist, non-blocking persist, crash, re-attach — must be silent
// under an attached checker.
TEST(PaxCheckPersistOrder, FullRuntimeCycleIsClean) {
  auto pm = pmem::PmemDevice::create_in_memory(8 << 20);
  check::CheckerOptions opts;
  Checker checker(opts);
  pm->set_checker(&checker);

  libpax::RuntimeOptions ro;
  ro.log_size = 1 << 20;
  ro.track_lines = true;
  for (int round = 0; round < 2; ++round) {
    auto rt = libpax::PaxRuntime::attach(pm.get(), ro);
    ASSERT_TRUE(rt.ok()) << rt.status().to_string();
    auto& runtime = *rt.value();
    auto* base = runtime.vpm_base();
    for (std::size_t i = 0; i < 4 * kPageSize; i += 64) {
      base[i] = static_cast<std::byte>(i + round);
    }
    ASSERT_TRUE(runtime.persist().ok());
    for (std::size_t i = 0; i < kPageSize; i += 128) {
      base[i] = static_cast<std::byte>(i ^ 0x5a);
    }
    ASSERT_TRUE(runtime.persist_async().ok());
    ASSERT_TRUE(runtime.complete_persist().ok());
    runtime.sync_step();
  }
  pm->crash(pmem::CrashConfig::torn(0.5, 0x5eed));

  auto report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_GT(report.diagnostics.events, 0u);
  pm->set_checker(nullptr);
}

}  // namespace
}  // namespace pax
