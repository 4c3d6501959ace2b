// Corruption fuzzing of the WAL reader: after arbitrary byte flips in the
// log extent, the scan must (a) never crash, (b) only ever return records
// that were genuinely appended, and (c) return a *prefix* of the appended
// sequence (a corrupted frame ends the scan; nothing after it can be
// trusted because append order is the only order). Torn line-undo frames
// come back whole or not at all.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "pax/common/rng.hpp"
#include "pax/device/undo_logger.hpp"
#include "pax/pmem/pmem_device.hpp"
#include "pax/wal/wal.hpp"

namespace pax::wal {
namespace {

constexpr PoolOffset kExtent = 4096;
constexpr std::size_t kExtentSize = 256 * 1024;

std::vector<std::byte> payload_for(std::uint64_t i) {
  // Deterministic, length-varying payloads.
  std::vector<std::byte> p(8 + (i % 200));
  for (std::size_t b = 0; b < p.size(); ++b) {
    p[b] = static_cast<std::byte>((i * 37 + b * 11) & 0xff);
  }
  return p;
}

class WalFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WalFuzz, CorruptedLogYieldsOnlyGenuinePrefix) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);

  auto dev = pmem::PmemDevice::create_in_memory(1 << 20);
  LogWriter writer(dev.get(), kExtent, kExtentSize);

  const std::uint64_t n_records = 50 + rng.next_below(200);
  std::vector<std::vector<std::byte>> originals;
  for (std::uint64_t i = 0; i < n_records; ++i) {
    auto p = payload_for(i);
    ASSERT_TRUE(writer.append(1 + i % 7, RecordType::kAllocMeta, p).ok());
    originals.push_back(std::move(p));
  }
  writer.flush();

  // Flip 1..16 random bytes anywhere in the used part of the extent.
  const std::uint64_t flips = 1 + rng.next_below(16);
  for (std::uint64_t f = 0; f < flips; ++f) {
    const PoolOffset at = kExtent + rng.next_below(writer.appended());
    std::byte b{};
    dev->load(at, {&b, 1});
    b ^= static_cast<std::byte>(1 + rng.next_below(255));
    dev->store(at, {&b, 1});
    dev->flush_line(LineIndex::containing(at));
  }
  dev->drain();

  // Scan: must terminate, and everything returned must be a clean prefix.
  auto records = LogReader::read_all(dev.get(), kExtent, kExtentSize);
  ASSERT_LE(records.size(), originals.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].type, RecordType::kAllocMeta);
    ASSERT_EQ(records[i].epoch, 1 + i % 7) << "record " << i;
    ASSERT_EQ(records[i].payload, originals[i]) << "record " << i;
  }
}

TEST_P(WalFuzz, TornTailNeverYieldsPhantomRecords) {
  const std::uint64_t seed = GetParam();
  auto dev = pmem::PmemDevice::create_in_memory(1 << 20);
  LogWriter writer(dev.get(), kExtent, kExtentSize);

  Xoshiro256 rng(seed * 13 + 5);
  const std::uint64_t durable_n = 10 + rng.next_below(40);
  for (std::uint64_t i = 0; i < durable_n; ++i) {
    ASSERT_TRUE(writer.append(1, RecordType::kAllocMeta, payload_for(i)).ok());
  }
  writer.flush();
  // Stage more records, then crash with torn survival.
  const std::uint64_t volatile_n = 1 + rng.next_below(30);
  for (std::uint64_t i = 0; i < volatile_n; ++i) {
    ASSERT_TRUE(writer
                    .append(1, RecordType::kAllocMeta,
                            payload_for(durable_n + i))
                    .ok());
  }
  dev->crash(pmem::CrashConfig::torn(0.5, seed));

  auto records = LogReader::read_all(dev.get(), kExtent, kExtentSize);
  ASSERT_GE(records.size(), durable_n);  // durable prefix always intact
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].payload, payload_for(i)) << "record " << i;
  }
}

TEST_P(WalFuzz, TornUndoFramesDropWholeNeverPartially) {
  // Multi-line undo frames staged after a durable prefix, then a torn
  // crash: every frame read back is one that was appended, with all of its
  // entries intact — a frame never yields a subset of its lines.
  const std::uint64_t seed = GetParam();
  auto dev = pmem::PmemDevice::create_in_memory(1 << 20);
  device::UndoLogger logger(dev.get(), kExtent, kExtentSize);
  Xoshiro256 rng(seed * 7 + 1);

  std::vector<std::vector<std::pair<LineIndex, LineData>>> frames;
  const auto stage = [&](std::size_t n) {
    std::vector<std::pair<LineIndex, LineData>> items;
    const std::size_t lines = 1 + rng.next_below(20);
    for (std::size_t i = 0; i < lines; ++i) {
      LineData d;
      for (auto& b : d.bytes) b = static_cast<std::byte>(rng.next_below(256));
      items.emplace_back(LineIndex{n * 64 + i}, d);
    }
    std::vector<device::UndoEntryRef> refs(items.size());
    ASSERT_TRUE(logger.log_lines(3, items, refs).is_ok());
    frames.push_back(std::move(items));
  };
  const std::size_t durable_n = 3 + rng.next_below(8);
  for (std::size_t f = 0; f < durable_n; ++f) stage(f);
  logger.flush();
  const std::size_t volatile_n = 1 + rng.next_below(8);
  for (std::size_t f = 0; f < volatile_n; ++f) stage(durable_n + f);
  dev->crash(pmem::CrashConfig::torn(0.5, seed));

  auto records = LogReader::read_all(dev.get(), kExtent, kExtentSize);
  ASSERT_GE(records.size(), durable_n);
  ASSERT_LE(records.size(), frames.size());
  for (std::size_t f = 0; f < records.size(); ++f) {
    ASSERT_EQ(records[f].type, RecordType::kLineUndoFrame);
    auto entries = decode_line_undo_frame(records[f].payload);
    ASSERT_TRUE(entries.ok());
    ASSERT_EQ(entries.value().size(), frames[f].size()) << "frame " << f;
    for (std::size_t i = 0; i < frames[f].size(); ++i) {
      EXPECT_EQ(entries.value()[i].line_index, frames[f][i].first.value);
      EXPECT_EQ(entries.value()[i].old_data, frames[f][i].second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

}  // namespace
}  // namespace pax::wal
