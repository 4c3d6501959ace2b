#include "pax/device/recovery.hpp"

#include <algorithm>
#include <vector>

#include "pax/common/check.hpp"
#include "pax/common/log.hpp"
#include "pax/wal/wal.hpp"

namespace pax::device {

Result<RecoveryReport> recover_pool(pmem::PmemPool& pool) {
  pmem::PmemDevice* pm = pool.device();
  RecoveryReport report;
  report.recovered_epoch = pool.committed_epoch();

  // The log extent is split into two banks (PaxDevice: §6 epoch overlap).
  // With overlap, a crash can leave uncommitted records of TWO epochs (the
  // sealed epoch e in one bank, the active e+1 in the other). Undo must be
  // applied newest-epoch-first, reverse append order within an epoch, so a
  // line modified in both epochs ends at its epoch-(e-1) pre-image.
  struct PendingUndo {
    Epoch epoch;
    std::uint64_t seq;  // append order within its bank
    wal::LineUndoEntry entry;
  };
  std::vector<PendingUndo> to_undo;

  const std::size_t half = (pool.log_size() / 2) & ~(kCacheLineSize - 1);
  const std::pair<PoolOffset, std::size_t> banks[2] = {
      {pool.log_offset(), half},
      {pool.log_offset() + half, pool.log_size() - half},
  };

  for (const auto& [bank_off, bank_size] : banks) {
    // The reader stops at the first frame whose CRC fails: a torn frame is
    // dropped whole, and none of its lines was written back (write-back is
    // gated on the frame's end).
    wal::LogReader reader(pm, bank_off, bank_size);
    std::uint64_t seq = 0;
    while (auto rec = reader.next()) {
      ++report.frames_scanned;
      const bool stale = rec->epoch <= report.recovered_epoch;
      if (rec->type != wal::RecordType::kLineUndoFrame) {
        if (stale) continue;  // e.g. left by an older log format
        return corruption("unexpected record type in device undo log");
      }
      auto entries = wal::decode_line_undo_frame(rec->payload);
      if (!entries.ok()) return entries.status();
      report.records_scanned += entries.value().size();
      if (stale) {
        report.stale_records += entries.value().size();
        continue;
      }
      for (const wal::LineUndoEntry& entry : entries.value()) {
        const PoolOffset off = entry.line_index * kCacheLineSize;
        if (off < pool.data_offset() ||
            off + kCacheLineSize > pool.data_offset() + pool.data_size()) {
          return corruption(
              "undo entry references a line outside data extent");
        }
        to_undo.push_back({rec->epoch, seq++, entry});
      }
    }
  }

  // Newest epoch first; within an epoch, reverse append order.
  std::sort(to_undo.begin(), to_undo.end(),
            [](const PendingUndo& a, const PendingUndo& b) {
              if (a.epoch != b.epoch) return a.epoch > b.epoch;
              return a.seq > b.seq;
            });

  for (const auto& undo : to_undo) {
    const LineIndex line{undo.entry.line_index};
    pm->store_line(line, undo.entry.old_data);
    pm->flush_line(line);
    ++report.records_applied;
    ++report.lines_restored;
  }
  pm->drain();

  PAX_LOG_INFO(
      "recovery: epoch %llu restored (%llu frames, %llu records scanned, "
      "%llu applied)",
      static_cast<unsigned long long>(report.recovered_epoch),
      static_cast<unsigned long long>(report.frames_scanned),
      static_cast<unsigned long long>(report.records_scanned),
      static_cast<unsigned long long>(report.records_applied));
  return report;
}

}  // namespace pax::device
