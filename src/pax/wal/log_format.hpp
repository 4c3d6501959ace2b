// On-media record framing for all write-ahead logs in the repository (the
// PAX device undo log, the PMDK-baseline transaction log, the page-WAL
// baseline log).
//
// Every record is framed with a masked CRC32C so recovery can tell a torn
// (partially persisted) record from a complete one and stop scanning there.
// Records carry the snapshot epoch that produced them; recovery applies only
// records tagged with epochs newer than the pool's committed epoch cell,
// which is what makes log-extent reuse across epochs safe (stale records
// from older epochs fail the epoch test, not the CRC test).
//
// The PAX device logs line pre-images in *frames*: one kLineUndoFrame record
// per batch of lines (one sync_lines stripe group), i.e. one 24 B header and
// one CRC over the whole frame, followed by packed 68 B entries of a u32 pool
// line index and the line's 64 B pre-image: 24 + 68n B for n lines, rounded
// up to 8. The CRC makes a frame all-or-nothing: a torn frame fails it and
// recovery drops the whole frame, so the device must gate every line's
// write-back on the *frame's* end offset, never on the end of the line's own
// entry.
#pragma once

#include <cstdint>

#include "pax/common/types.hpp"

namespace pax::wal {

enum class RecordType : std::uint16_t {
  kInvalid = 0,
  // 1 is retired (an older one-record-per-line format); do not reuse it.
  kPageUndo = 2,   // payload: u64 page index + 4096 B old page image
  kTxBegin = 3,    // PMDK baseline: transaction open marker
  kTxCommit = 4,   // PMDK baseline: transaction commit marker
  kRangeUndo = 5,  // PMDK baseline: u64 offset + u32 len + old bytes
  kAllocMeta = 6,  // allocator metadata change
  kLineUndoFrame = 7,  // payload: packed line-undo entries (see below)
};

/// Fixed header preceding every record payload.
struct RecordHeader {
  std::uint32_t masked_crc;   // masked CRC32C over [epoch..payload end)
  std::uint32_t payload_size;
  std::uint64_t epoch;
  std::uint16_t type;         // RecordType
  std::uint16_t reserved0 = 0;
  std::uint32_t reserved1 = 0;
};
static_assert(sizeof(RecordHeader) == 24);

/// One entry of a kLineUndoFrame payload: a u32 pool line index, then the
/// line's 64 B pre-image, packed (no padding between entries). A u32 index
/// covers pools up to 256 GiB.
constexpr std::size_t kLineUndoIndexSize = sizeof(std::uint32_t);
constexpr std::size_t kLineUndoEntrySize = kLineUndoIndexSize + kCacheLineSize;
static_assert(kLineUndoEntrySize == 68);

/// A decoded line-undo entry.
struct LineUndoEntry {
  std::uint64_t line_index = 0;
  LineData old_data;
};

/// Payload header of a kRangeUndo record (old bytes follow).
struct RangeUndoHeader {
  std::uint64_t pool_offset;
  std::uint32_t length;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(RangeUndoHeader) == 16);

/// Payload header of a kPageUndo record (4096 B old image follows).
struct PageUndoHeader {
  std::uint64_t page_index;
};

/// Records are padded to 8-byte boundaries so headers stay aligned.
constexpr std::size_t record_frame_size(std::size_t payload_size) {
  const std::size_t raw = sizeof(RecordHeader) + payload_size;
  return (raw + 7) & ~std::size_t{7};
}

}  // namespace pax::wal
