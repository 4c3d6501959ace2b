// Crash recovery (§3.4).
//
// After a crash the pool's epoch cell names the newest durable snapshot.
// Any undo frame in the log extent tagged with a *later* epoch describes
// modifications of the crashed, uncommitted epoch whose data lines may have
// reached PM (the device writes back freely during an epoch — §3.3); its
// entries are replayed, restoring each line's epoch-boundary pre-image.
// Frames of the committed epoch or older are stale leftovers from
// log-extent reuse and are skipped. A torn frame (CRC mismatch) ends the
// scan and is dropped whole: everything after it in append order is
// younger, and none of its lines can have been written back (write-back is
// gated on the durability of the line's whole frame), so stopping is safe.
// Recovery is idempotent — a crash during recovery just reruns it.
#pragma once

#include <cstdint>

#include "pax/common/status.hpp"
#include "pax/common/types.hpp"
#include "pax/pmem/pool.hpp"

namespace pax::device {

struct RecoveryReport {
  Epoch recovered_epoch = 0;       // snapshot the pool was restored to
  std::uint64_t frames_scanned = 0;   // well-formed undo frames
  std::uint64_t records_scanned = 0;  // line-undo entries in those frames
  std::uint64_t records_applied = 0;  // entries rolled back
  std::uint64_t stale_records = 0;    // entries of committed epochs
  std::uint64_t lines_restored = 0;
};

/// Rolls the pool's data extent back to its most recent committed snapshot.
/// Call before constructing a PaxDevice over a reopened pool.
Result<RecoveryReport> recover_pool(pmem::PmemPool& pool);

}  // namespace pax::device
