#include "pax/wal/wal.hpp"

#include <cstdint>
#include <cstring>

#include "pax/common/check.hpp"
#include "pax/common/crc.hpp"

namespace pax::wal {
namespace {

// CRC over the epoch/type header fields and the payload; excludes the crc
// and payload_size fields themselves (size is validated by bounds + CRC of
// the covered region).
std::uint32_t record_crc(const RecordHeader& h,
                         std::span<const std::byte> payload) {
  std::uint32_t crc = crc32c(&h.epoch, sizeof(h.epoch));
  crc = crc32c(&h.type, sizeof(h.type), crc);
  crc = crc32c(payload.data(), payload.size(), crc);
  return mask_crc(crc);
}

}  // namespace

LogWriter::LogWriter(pmem::PmemDevice* device, PoolOffset extent_offset,
                     std::size_t extent_size)
    : device_(device),
      extent_offset_(extent_offset),
      extent_size_(extent_size) {
  PAX_CHECK(device != nullptr);
  PAX_CHECK(extent_offset % kCacheLineSize == 0);
}

Result<std::uint64_t> LogWriter::append(Epoch epoch, RecordType type,
                                        std::span<const std::byte> payload) {
  const std::size_t frame = record_frame_size(payload.size());
  if (appended_ + frame > extent_size_) {
    return out_of_space("undo log extent full");
  }

  RecordHeader h{};
  h.payload_size = static_cast<std::uint32_t>(payload.size());
  h.epoch = epoch;
  h.type = static_cast<std::uint16_t>(type);
  h.masked_crc = record_crc(h, payload);

  const PoolOffset at = extent_offset_ + appended_;
  device_->store(at, std::as_bytes(std::span(&h, 1)));
  device_->store(at + sizeof(RecordHeader), payload);
  // Zero the alignment padding so a future reader of a torn tail sees a
  // deterministic (invalid) frame rather than stale bytes.
  const std::size_t pad = frame - sizeof(RecordHeader) - payload.size();
  if (pad > 0) {
    const std::byte zeros[8] = {};
    device_->store(at + sizeof(RecordHeader) + payload.size(),
                   std::span(zeros, pad));
  }

  appended_ += frame;
  return appended_;
}

void LogWriter::flush() {
  if (durable_ >= appended_) {
    // Nothing staged; still a fence for callers relying on ordering.
    device_->drain();
    return;
  }
  device_->flush_range(extent_offset_ + durable_, appended_ - durable_);
  device_->drain();
  durable_ = appended_;
}

void LogWriter::reset() {
  appended_ = 0;
  durable_ = 0;
}

void encode_line_undo_frame(
    std::span<const std::pair<LineIndex, LineData>> items,
    std::vector<std::byte>* out) {
  out->resize(items.size() * kLineUndoEntrySize);
  std::byte* at = out->data();
  for (const auto& [line, image] : items) {
    PAX_CHECK_MSG(line.value <= UINT32_MAX, "line index exceeds u32");
    const auto index = static_cast<std::uint32_t>(line.value);
    std::memcpy(at, &index, kLineUndoIndexSize);
    std::memcpy(at + kLineUndoIndexSize, image.bytes.data(), kCacheLineSize);
    at += kLineUndoEntrySize;
  }
}

LineUndoEntry decode_line_undo_entry(
    std::span<const std::byte, kLineUndoEntrySize> entry) {
  std::uint32_t index = 0;
  std::memcpy(&index, entry.data(), kLineUndoIndexSize);
  LineUndoEntry e;
  e.line_index = index;
  std::memcpy(e.old_data.bytes.data(), entry.data() + kLineUndoIndexSize,
              kCacheLineSize);
  return e;
}

Result<std::vector<LineUndoEntry>> decode_line_undo_frame(
    std::span<const std::byte> payload) {
  if (payload.empty() || payload.size() % kLineUndoEntrySize != 0) {
    return corruption("line-undo frame is not a whole number of entries");
  }
  std::vector<LineUndoEntry> entries;
  entries.reserve(payload.size() / kLineUndoEntrySize);
  for (std::size_t at = 0; at < payload.size(); at += kLineUndoEntrySize) {
    entries.push_back(decode_line_undo_entry(
        payload.subspan(at).first<kLineUndoEntrySize>()));
  }
  return entries;
}

LogReader::LogReader(const pmem::PmemDevice* device, PoolOffset extent_offset,
                     std::size_t extent_size)
    : device_(device),
      extent_offset_(extent_offset),
      extent_size_(extent_size) {
  PAX_CHECK(device != nullptr);
}

std::optional<LogRecord> LogReader::next() {
  if (cursor_ + sizeof(RecordHeader) > extent_size_) return std::nullopt;

  RecordHeader h{};
  device_->load(extent_offset_ + cursor_,
                std::as_writable_bytes(std::span(&h, 1)));

  if (h.type == static_cast<std::uint16_t>(RecordType::kInvalid)) {
    return std::nullopt;
  }
  const std::size_t frame = record_frame_size(h.payload_size);
  if (cursor_ + frame > extent_size_) return std::nullopt;

  LogRecord rec;
  rec.payload.resize(h.payload_size);
  device_->load(extent_offset_ + cursor_ + sizeof(RecordHeader),
                std::span(rec.payload));

  if (h.masked_crc != record_crc(h, rec.payload)) return std::nullopt;

  rec.epoch = h.epoch;
  rec.type = static_cast<RecordType>(h.type);
  cursor_ += frame;
  rec.end_offset = cursor_;
  return rec;
}

std::vector<LogRecord> LogReader::read_all(const pmem::PmemDevice* device,
                                           PoolOffset extent_offset,
                                           std::size_t extent_size) {
  LogReader reader(device, extent_offset, extent_size);
  std::vector<LogRecord> records;
  while (auto rec = reader.next()) {
    records.push_back(std::move(*rec));
  }
  return records;
}

}  // namespace pax::wal
