// Batch-framed undo log: one kLineUndoFrame record (one header, one CRC)
// per batch of lines. The frame codec must round-trip; UndoLogger::log_lines
// must report, for every line, its frame's end (the write-back gate) and
// its own entry's offset, split oversized batches, and fail all-or-nothing
// on exhaustion; recovery must skip stale-epoch frames and drop a torn
// frame whole.
#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

#include "pax/device/recovery.hpp"
#include "pax/device/undo_logger.hpp"
#include "pax/pmem/pmem_device.hpp"
#include "pax/pmem/pool.hpp"
#include "pax/wal/wal.hpp"
#include "test_util.hpp"

namespace pax::wal {
namespace {

using device::UndoEntryRef;
using device::UndoLogger;
using Item = std::pair<LineIndex, LineData>;

constexpr PoolOffset kExtent = 4096;
constexpr std::size_t kExtentSize = 16 * 1024;

std::vector<Item> items_of(std::uint64_t first_line, std::size_t n,
                           std::uint64_t salt) {
  std::vector<Item> items;
  for (std::size_t i = 0; i < n; ++i) {
    items.emplace_back(LineIndex{first_line + i * 3},
                       testing::patterned_line(salt * 100 + i));
  }
  return items;
}

TEST(LineUndoFrame, CodecRoundTrips) {
  const auto items = items_of(1000, 7, 1);
  std::vector<std::byte> payload;
  encode_line_undo_frame(items, &payload);
  EXPECT_EQ(payload.size(), 7 * kLineUndoEntrySize);
  auto decoded = decode_line_undo_frame(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded.value().size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(decoded.value()[i].line_index, items[i].first.value);
    EXPECT_EQ(decoded.value()[i].old_data, items[i].second);
  }
  // Not a whole number of entries (or empty): rejected, not misread.
  payload.pop_back();
  EXPECT_FALSE(decode_line_undo_frame(payload).ok());
  EXPECT_FALSE(decode_line_undo_frame({}).ok());
}

struct UndoFrameFixture : ::testing::Test {
  std::unique_ptr<pmem::PmemDevice> dev =
      pmem::PmemDevice::create_in_memory(1 << 20);
  UndoLogger logger{dev.get(), kExtent, kExtentSize};
};

TEST_F(UndoFrameFixture, OneFramePerBatchEveryLineGatedOnTheFrameEnd) {
  const auto first = items_of(10, 5, 1);
  const auto second = items_of(50, 3, 2);
  std::vector<UndoEntryRef> refs_a(first.size()), refs_b(second.size());
  ASSERT_TRUE(logger.log_lines(4, first, refs_a).is_ok());
  ASSERT_TRUE(logger.log_lines(4, second, refs_b).is_ok());

  const std::uint64_t frame_a = record_frame_size(5 * kLineUndoEntrySize);
  const std::uint64_t frame_b = record_frame_size(3 * kLineUndoEntrySize);
  EXPECT_EQ(logger.staged(), frame_a + frame_b);
  EXPECT_EQ(logger.stats().frames, 2u);
  EXPECT_EQ(logger.stats().records, 8u);
  EXPECT_EQ(logger.stats().bytes_staged, frame_a + frame_b);

  // Every entry of a frame shares the frame's end; each entry's offset
  // holds its own line index and pre-image.
  const auto check = [&](const std::vector<Item>& items,
                         const std::vector<UndoEntryRef>& refs,
                         std::uint64_t frame_end) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(refs[i].frame_end, frame_end);
      std::array<std::byte, kLineUndoEntrySize> bytes;
      dev->load(kExtent + refs[i].entry_at, bytes);
      const LineUndoEntry entry = decode_line_undo_entry(bytes);
      EXPECT_EQ(entry.line_index, items[i].first.value);
      EXPECT_EQ(entry.old_data, items[i].second);
    }
  };
  check(first, refs_a, frame_a);
  check(second, refs_b, frame_a + frame_b);

  EXPECT_FALSE(logger.is_durable(refs_a[0].frame_end));
  logger.flush();
  EXPECT_TRUE(logger.is_durable(refs_b.back().frame_end));

  auto records = LogReader::read_all(dev.get(), kExtent, kExtentSize);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, RecordType::kLineUndoFrame);
  EXPECT_EQ(records[0].epoch, 4u);
  EXPECT_EQ(records[0].end_offset, frame_a);
  EXPECT_EQ(decode_line_undo_frame(records[1].payload).value().size(), 3u);
}

TEST_F(UndoFrameFixture, SingleLineIsAOneEntryFrame) {
  auto ref = logger.log_line(2, LineIndex{77}, testing::patterned_line(9));
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref.value().frame_end, record_frame_size(kLineUndoEntrySize));
  EXPECT_EQ(ref.value().entry_at, sizeof(RecordHeader));
  EXPECT_EQ(logger.stats().frames, 1u);
}

TEST(UndoFrame, OversizedBatchSplitsIntoFrames) {
  auto dev = pmem::PmemDevice::create_in_memory(2 << 20);
  UndoLogger logger{dev.get(), kExtent, 1 << 20};
  const std::size_t n = UndoLogger::kMaxFrameEntries + 3;
  const auto items = items_of(0, n, 5);
  std::vector<UndoEntryRef> refs(n);
  ASSERT_TRUE(logger.log_lines(1, items, refs).is_ok());
  EXPECT_EQ(logger.stats().frames, 2u);
  EXPECT_EQ(refs.front().frame_end,
            record_frame_size(UndoLogger::kMaxFrameEntries *
                              kLineUndoEntrySize));
  EXPECT_EQ(refs.back().frame_end, logger.staged());
  logger.flush();
  auto records = LogReader::read_all(dev.get(), kExtent, 1 << 20);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(decode_line_undo_frame(records[1].payload).value().size(), 3u);
}

TEST_F(UndoFrameFixture, ExhaustionIsAllOrNothing) {
  // A batch that cannot fit stages nothing: no bytes, no frame, no refs.
  const std::size_t per_frame = 16;
  const std::size_t frame = record_frame_size(per_frame * kLineUndoEntrySize);
  const std::size_t fits = kExtentSize / frame;
  for (std::size_t f = 0; f < fits; ++f) {
    const auto items = items_of(f * 100, per_frame, f);
    std::vector<UndoEntryRef> refs(items.size());
    ASSERT_TRUE(logger.log_lines(2, items, refs).is_ok());
  }
  const std::uint64_t staged = logger.staged();
  const auto items = items_of(9000, per_frame, 99);
  std::vector<UndoEntryRef> refs(items.size());
  Status st = logger.log_lines(2, items, refs);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfSpace);
  EXPECT_EQ(logger.staged(), staged);
  EXPECT_EQ(logger.stats().frames, fits);
  logger.flush();
  EXPECT_EQ(LogReader::read_all(dev.get(), kExtent, kExtentSize).size(),
            fits);
}

// Recovery over a real pool: the device's bank 0 is the first half of the
// log extent.
struct FrameRecoveryFixture : ::testing::Test {
  testing::TestPool tp = testing::TestPool::create();
  std::size_t bank_size() const {
    return (tp.pool.log_size() / 2) & ~(kCacheLineSize - 1);
  }
};

TEST_F(FrameRecoveryFixture, StaleEpochFramesAreSkipped) {
  // Epoch 1 is committed: its frame is a stale leftover and must not be
  // applied, while the uncommitted epoch-2 frame is rolled back.
  UndoLogger logger{tp.device.get(), tp.pool.log_offset(), bank_size()};
  const std::vector<Item> stale = {
      {tp.data_line(0), testing::patterned_line(1)},
      {tp.data_line(1), testing::patterned_line(2)}};
  const std::vector<Item> live = {
      {tp.data_line(2), testing::patterned_line(3)}};
  std::vector<UndoEntryRef> refs(2);
  ASSERT_TRUE(logger.log_lines(1, stale, refs).is_ok());
  ASSERT_TRUE(logger.log_lines(2, live, std::span(refs.data(), 1)).is_ok());
  logger.flush();
  tp.pool.commit_epoch(1);
  for (std::uint64_t i = 0; i < 3; ++i) {
    tp.device->store_line(tp.data_line(i), testing::patterned_line(50 + i));
    tp.device->flush_line(tp.data_line(i));
  }
  tp.device->drain();

  auto report = device::recover_pool(tp.pool);
  ASSERT_TRUE(report.ok()) << report.status().to_string();
  EXPECT_EQ(report.value().frames_scanned, 2u);
  EXPECT_EQ(report.value().records_scanned, 3u);
  EXPECT_EQ(report.value().stale_records, 2u);
  EXPECT_EQ(report.value().records_applied, 1u);
  EXPECT_EQ(tp.device->durable_line(tp.data_line(0)),
            testing::patterned_line(50));
  EXPECT_EQ(tp.device->durable_line(tp.data_line(1)),
            testing::patterned_line(51));
  EXPECT_EQ(tp.device->durable_line(tp.data_line(2)),
            testing::patterned_line(3));
}

TEST_F(FrameRecoveryFixture, FrameTornAtAnyEightByteBoundaryDropsWhole) {
  // One durable frame, then a 4-line frame of which only the first `cut`
  // bytes reached the media. At every 8 B cut short of the whole frame the
  // CRC fails and recovery applies none of the torn frame's lines.
  const std::vector<Item> durable = {
      {tp.data_line(0), testing::patterned_line(7)}};
  std::vector<Item> torn;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    torn.emplace_back(tp.data_line(i), testing::patterned_line(10 + i));
  }
  std::vector<std::byte> payload;
  encode_line_undo_frame(torn, &payload);
  const std::size_t torn_frame = record_frame_size(payload.size());

  for (std::size_t cut = 0; cut <= torn_frame; cut += 8) {
    SCOPED_TRACE(testing::numbered("cut ", cut));
    testing::TestPool pool = testing::TestPool::create();
    const PoolOffset bank = pool.pool.log_offset();
    UndoLogger logger{pool.device.get(), bank, bank_size()};
    std::vector<UndoEntryRef> refs(4);
    ASSERT_TRUE(
        logger.log_lines(1, durable, std::span(refs.data(), 1)).is_ok());
    logger.flush();
    const std::uint64_t start = logger.staged();

    // The whole frame as it would be staged, on a scratch log.
    auto scratch = pmem::PmemDevice::create_in_memory(pool.device->size());
    UndoLogger staged{scratch.get(), bank, bank_size()};
    ASSERT_TRUE(
        staged.log_lines(1, durable, std::span(refs.data(), 1)).is_ok());
    ASSERT_TRUE(staged.log_lines(1, torn, refs).is_ok());
    std::vector<std::byte> bytes(cut);
    scratch->load(bank + start, bytes);
    pool.device->store(bank + start, bytes);
    if (cut > 0) pool.device->flush_range(bank + start, cut);
    pool.device->drain();

    // Every line holds new data (as if written back — the bug this rule
    // forbids); only rolled-back lines show their pre-image.
    for (std::uint64_t i = 0; i <= 4; ++i) {
      pool.device->store_line(pool.data_line(i), testing::patterned_line(90));
      pool.device->flush_line(pool.data_line(i));
    }
    pool.device->drain();
    pool.device->crash(pmem::CrashConfig::drop_all());

    auto report = device::recover_pool(pool.pool);
    ASSERT_TRUE(report.ok()) << report.status().to_string();
    const bool whole = cut == torn_frame;
    EXPECT_EQ(report.value().frames_scanned, whole ? 2u : 1u);
    EXPECT_EQ(report.value().records_applied, whole ? 5u : 1u);
    EXPECT_EQ(pool.device->durable_line(pool.data_line(0)),
              testing::patterned_line(7));
    for (std::uint64_t i = 1; i <= 4; ++i) {
      EXPECT_EQ(pool.device->durable_line(pool.data_line(i)),
                whole ? testing::patterned_line(10 + i)
                      : testing::patterned_line(90));
    }
  }
}

}  // namespace
}  // namespace pax::wal
