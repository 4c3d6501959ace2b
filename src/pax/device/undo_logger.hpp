// The device's asynchronous undo logger (Figure 1, "Undo Logger").
//
// Whenever the host signals intent to modify a cache line (the first time in
// an epoch), the logger captures the line's epoch-boundary pre-image into an
// epoch-tagged undo frame (wal/log_format.hpp): one frame per batch of
// lines, one header and one CRC for the whole batch. Frames are *staged*
// immediately but become durable lazily: the write-back coordinator flushes
// the log in batches off the application's critical path (§3.2), and
// data-line write-back is gated on the end offset of the line's *frame*
// falling below the durable watermark (§3.3) — a torn frame is dropped whole
// by recovery, so no line of a frame may reach PM before all of it is
// durable.
//
// Threading (striped device): all mutating entry points (log_line,
// log_lines, flush, reset_after_commit) must be serialized by the caller —
// the PaxDevice holds its log mutex around them. The watermarks (staged(),
// durable(), is_durable()) are published through atomics so the striped
// data path can gate write-backs without touching the log mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pax/common/status.hpp"
#include "pax/common/types.hpp"
#include "pax/wal/wal.hpp"

namespace pax::device {

struct UndoLoggerStats {
  std::uint64_t records = 0;       // line-undo entries (one per logged line)
  std::uint64_t frames = 0;        // kLineUndoFrame records holding them
  std::uint64_t bytes_staged = 0;  // frame bytes, headers and padding included
  std::uint64_t flushes = 0;
  /// Always 0: the undo log has a single, mutex-serialized append path and
  /// no append ring. Kept because the benchmark and PaxKV's STATS document
  /// still report it.
  std::uint64_t ring_full_stalls = 0;
};

/// Where one logged line's undo entry lives: `frame_end` is the end offset
/// of its frame (the watermark the line's write-back must wait for) and
/// `entry_at` the offset of the entry itself (where the pre-image is read
/// back). Both are relative to the logger's extent start.
struct UndoEntryRef {
  std::uint64_t frame_end = 0;
  std::uint64_t entry_at = 0;
};

class UndoLogger {
 public:
  /// Most entries one frame holds; log_lines splits longer batches.
  static constexpr std::size_t kMaxFrameEntries = 4096;

  UndoLogger(pmem::PmemDevice* device, PoolOffset extent_offset,
             std::size_t extent_size)
      : writer_(device, extent_offset, extent_size),
        pm_(device),
        id_(extent_offset) {}

  /// Stable identifier for PaxCheck events (the extent offset — unique per
  /// bank within a pool).
  std::uint64_t id() const { return id_; }

  /// Stages one frame holding the pre-image of every (line, pre-image) pair
  /// in `items` (several frames past kMaxFrameEntries) and sets refs_out[i]
  /// to item i's entry (refs_out.size() == items.size()). All-or-nothing:
  /// kOutOfSpace stages nothing. Caller must hold the device's log mutex.
  Status log_lines(Epoch epoch,
                   std::span<const std::pair<LineIndex, LineData>> items,
                   std::span<UndoEntryRef> refs_out);

  /// log_lines for a single line: a one-entry frame.
  Result<UndoEntryRef> log_line(Epoch epoch, LineIndex line,
                                const LineData& old_data);

  /// Makes all staged frames durable. Caller must hold the log mutex.
  void flush();

  /// Lock-free watermark reads (safe concurrently with appends/flush).
  std::uint64_t staged() const {
    return staged_.load(std::memory_order_acquire);
  }
  std::uint64_t durable() const {
    return durable_.load(std::memory_order_acquire);
  }

  /// True if `frame_end` (an UndoEntryRef::frame_end) is durable.
  bool is_durable(std::uint64_t frame_end) const {
    return frame_end <= durable();
  }

  /// Restarts the log after an epoch commit made all frames stale. Caller
  /// must hold the log mutex AND have quiesced the data path (no write-back
  /// may be gating on a frame of this bank).
  void reset_after_commit();

  /// Caller must hold the log mutex.
  const UndoLoggerStats& stats() const { return stats_; }
  std::size_t extent_size() const { return writer_.extent_size(); }

 private:
  wal::LogWriter writer_;
  pmem::PmemDevice* pm_;
  std::uint64_t id_;
  std::atomic<std::uint64_t> staged_{0};
  std::atomic<std::uint64_t> durable_{0};
  UndoLoggerStats stats_;
  std::vector<std::byte> payload_;  // frame payload scratch, reused
};

}  // namespace pax::device
