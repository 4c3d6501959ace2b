#include "pax/wal/wal.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "pax/pmem/pmem_device.hpp"
#include "test_util.hpp"

namespace pax::wal {
namespace {

constexpr PoolOffset kExtent = 4096;
constexpr std::size_t kExtentSize = 64 * 1024;

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

struct WalFixture : ::testing::Test {
  std::unique_ptr<pmem::PmemDevice> dev =
      pmem::PmemDevice::create_in_memory(1 << 20);
  LogWriter writer{dev.get(), kExtent, kExtentSize};
};

TEST_F(WalFixture, AppendReadRoundTrip) {
  auto payload = bytes_of("hello undo log");
  auto end = writer.append(3, RecordType::kAllocMeta, payload);
  ASSERT_TRUE(end.ok());
  writer.flush();

  auto records = LogReader::read_all(dev.get(), kExtent, kExtentSize);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].epoch, 3u);
  EXPECT_EQ(records[0].type, RecordType::kAllocMeta);
  EXPECT_EQ(records[0].payload, payload);
  EXPECT_EQ(records[0].end_offset, end.value());
}

TEST_F(WalFixture, MultipleRecordsPreserveOrder) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(writer
                    .append(1, RecordType::kAllocMeta,
                            bytes_of("rec" + std::to_string(i)))
                    .ok());
  }
  writer.flush();
  auto records = LogReader::read_all(dev.get(), kExtent, kExtentSize);
  ASSERT_EQ(records.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(records[i].payload, bytes_of("rec" + std::to_string(i)));
  }
}

TEST_F(WalFixture, DurabilityWatermarkAdvancesOnFlushOnly) {
  EXPECT_EQ(writer.durable(), 0u);
  auto end = writer.append(1, RecordType::kAllocMeta, bytes_of("x"));
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(writer.durable(), 0u);
  EXPECT_EQ(writer.appended(), end.value());
  writer.flush();
  EXPECT_EQ(writer.durable(), end.value());
}

TEST_F(WalFixture, UnflushedRecordVanishesOnCrash) {
  ASSERT_TRUE(
      writer.append(1, RecordType::kAllocMeta, bytes_of("durable")).ok());
  writer.flush();
  ASSERT_TRUE(
      writer.append(1, RecordType::kAllocMeta, bytes_of("volatile")).ok());
  dev->crash(pmem::CrashConfig::drop_all());

  auto records = LogReader::read_all(dev.get(), kExtent, kExtentSize);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, bytes_of("durable"));
}

TEST_F(WalFixture, TornRecordStopsScanWithoutCorruptingPriorRecords) {
  ASSERT_TRUE(writer.append(2, RecordType::kAllocMeta, bytes_of("good")).ok());
  writer.flush();
  // Stage a big multi-line record, then crash with ~half the lines surviving:
  // almost surely a torn frame.
  std::vector<std::byte> big(300, std::byte{0x61});
  ASSERT_TRUE(writer.append(2, RecordType::kAllocMeta, big).ok());
  dev->crash(pmem::CrashConfig::random(0.5, /*seed=*/5));

  auto records = LogReader::read_all(dev.get(), kExtent, kExtentSize);
  ASSERT_GE(records.size(), 1u);
  EXPECT_EQ(records[0].payload, bytes_of("good"));
  // If the torn record survived the lottery whole, it must be intact.
  if (records.size() == 2) {
    EXPECT_EQ(records[1].payload, big);
  }
}

TEST_F(WalFixture, StaleRecordsAfterResetAreReadableButEpochTagged) {
  // Epoch 1 writes two records; commit makes them stale; writer resets and
  // epoch 2 overwrites only the first slot. Scan must yield the new record
  // first, then the surviving stale one — distinguished by epoch tag.
  ASSERT_TRUE(writer.append(1, RecordType::kAllocMeta,
                            bytes_of("aaaaaaaaaaaaaaaaaaaaaaaa")).ok());
  ASSERT_TRUE(writer.append(1, RecordType::kAllocMeta,
                            bytes_of("bbbbbbbbbbbbbbbbbbbbbbbb")).ok());
  writer.flush();
  writer.reset();
  ASSERT_TRUE(writer.append(2, RecordType::kAllocMeta,
                            bytes_of("cccccccccccccccccccccccc")).ok());
  writer.flush();

  auto records = LogReader::read_all(dev.get(), kExtent, kExtentSize);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].epoch, 2u);
  EXPECT_EQ(records[0].payload, bytes_of("cccccccccccccccccccccccc"));
  EXPECT_EQ(records[1].epoch, 1u);  // stale survivor
}

TEST_F(WalFixture, OutOfSpaceReported) {
  LogWriter small(dev.get(), kExtent, 128);
  std::vector<std::byte> payload(64);
  ASSERT_TRUE(small.append(1, RecordType::kAllocMeta, payload).ok());
  auto second = small.append(1, RecordType::kAllocMeta, payload);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kOutOfSpace);
}

TEST_F(WalFixture, EmptyPayloadRecordIsValid) {
  ASSERT_TRUE(writer.append(1, RecordType::kTxCommit, {}).ok());
  writer.flush();
  auto records = LogReader::read_all(dev.get(), kExtent, kExtentSize);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, RecordType::kTxCommit);
  EXPECT_TRUE(records[0].payload.empty());
}

TEST_F(WalFixture, FrameSizesAreAligned) {
  for (std::size_t p : {0u, 1u, 7u, 8u, 63u, 64u, 72u, 4096u}) {
    EXPECT_EQ(record_frame_size(p) % 8, 0u);
    EXPECT_GE(record_frame_size(p), sizeof(RecordHeader) + p);
  }
}

TEST_F(WalFixture, CorruptedPayloadByteDetected) {
  auto end = writer.append(4, RecordType::kAllocMeta, bytes_of("sensitive"));
  ASSERT_TRUE(end.ok());
  writer.flush();
  // Durably flip one payload byte behind the CRC's back.
  const PoolOffset payload_at = kExtent + sizeof(RecordHeader);
  std::byte b{};
  dev->load(payload_at, {&b, 1});
  b ^= std::byte{0x01};
  dev->store(payload_at, {&b, 1});
  dev->flush_line(LineIndex::containing(payload_at));
  dev->drain();

  auto records = LogReader::read_all(dev.get(), kExtent, kExtentSize);
  EXPECT_TRUE(records.empty());  // CRC mismatch → scan stops at record 0
}

}  // namespace
}  // namespace pax::wal
