// Append-only write-ahead log over a PM extent, with explicit durability
// tracking.
//
// append() stages a record (it lands in the PM device's pending overlay, i.e.
// CPU caches); flush() makes everything appended so far durable and advances
// the durable offset. The gap between appended() and durable() is what the
// PAX device exploits for asynchronous logging: records accumulate cheaply
// and are flushed off the application's critical path, and write-back of a
// data line is gated on its undo frame's end offset being ≤ durable().
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "pax/common/status.hpp"
#include "pax/common/types.hpp"
#include "pax/pmem/pmem_device.hpp"
#include "pax/wal/log_format.hpp"

namespace pax::wal {

class LogWriter {
 public:
  /// Writes records into [extent_offset, extent_offset + extent_size) of
  /// `device`. The extent is not cleared; epoch tags make stale data safe.
  LogWriter(pmem::PmemDevice* device, PoolOffset extent_offset,
            std::size_t extent_size);

  /// Stages one record. Returns the record's *end offset* relative to the
  /// extent start — the durability watermark a consumer must wait for —
  /// or kOutOfSpace if the extent cannot hold it.
  Result<std::uint64_t> append(Epoch epoch, RecordType type,
                               std::span<const std::byte> payload);

  /// Makes all appended records durable (flush lines + drain).
  void flush();

  /// Bytes appended so far (relative to extent start).
  std::uint64_t appended() const { return appended_; }

  /// Bytes known durable (≤ appended()).
  std::uint64_t durable() const { return durable_; }

  /// Restarts the log from the extent start. Callers must first commit an
  /// epoch cell that makes every live record stale (see log_format.hpp).
  void reset();

  std::size_t extent_size() const { return extent_size_; }

 private:
  pmem::PmemDevice* device_;
  PoolOffset extent_offset_;
  std::size_t extent_size_;
  std::uint64_t appended_ = 0;
  std::uint64_t durable_ = 0;
};

/// Encodes `items` as a kLineUndoFrame payload into `out` (resized to
/// items.size() × kLineUndoEntrySize). Every line index must fit in u32.
void encode_line_undo_frame(
    std::span<const std::pair<LineIndex, LineData>> items,
    std::vector<std::byte>* out);

/// Decodes the kLineUndoEntrySize bytes of one entry.
LineUndoEntry decode_line_undo_entry(
    std::span<const std::byte, kLineUndoEntrySize> entry);

/// Decodes a kLineUndoFrame payload. kCorruption unless it holds a whole,
/// non-zero number of entries.
Result<std::vector<LineUndoEntry>> decode_line_undo_frame(
    std::span<const std::byte> payload);

/// One decoded record.
struct LogRecord {
  Epoch epoch = 0;
  RecordType type = RecordType::kInvalid;
  std::vector<std::byte> payload;
  std::uint64_t end_offset = 0;  // relative to extent start
};

class LogReader {
 public:
  LogReader(const pmem::PmemDevice* device, PoolOffset extent_offset,
            std::size_t extent_size);

  /// Returns the next well-formed record, or nullopt at the first torn /
  /// invalid / out-of-bounds frame (which is where the durable log ends).
  std::optional<LogRecord> next();

  /// Reads every well-formed record from the extent start.
  static std::vector<LogRecord> read_all(const pmem::PmemDevice* device,
                                         PoolOffset extent_offset,
                                         std::size_t extent_size);

 private:
  const pmem::PmemDevice* device_;
  PoolOffset extent_offset_;
  std::size_t extent_size_;
  std::uint64_t cursor_ = 0;
};

}  // namespace pax::wal
