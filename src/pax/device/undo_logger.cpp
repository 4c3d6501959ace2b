#include "pax/device/undo_logger.hpp"

#include <algorithm>

#include "pax/check/checker.hpp"
#include "pax/common/check.hpp"
#include "pax/pmem/pmem_device.hpp"

namespace pax::device {

Status UndoLogger::log_lines(
    Epoch epoch, std::span<const std::pair<LineIndex, LineData>> items,
    std::span<UndoEntryRef> refs_out) {
  PAX_CHECK(refs_out.size() == items.size());
  if (items.empty()) return Status::ok();

  // All-or-nothing: the whole batch must fit before any frame is staged.
  std::size_t total = 0;
  for (std::size_t i = 0; i < items.size(); i += kMaxFrameEntries) {
    const std::size_t n = std::min(kMaxFrameEntries, items.size() - i);
    total += wal::record_frame_size(n * wal::kLineUndoEntrySize);
  }
  if (writer_.appended() + total > writer_.extent_size()) {
    return out_of_space("undo log extent full");
  }

  UndoEntryRef* ref = refs_out.data();
  for (std::size_t i = 0; i < items.size(); i += kMaxFrameEntries) {
    const auto chunk =
        items.subspan(i, std::min(kMaxFrameEntries, items.size() - i));
    wal::encode_line_undo_frame(chunk, &payload_);
    const std::uint64_t start = writer_.appended();
    auto end = writer_.append(epoch, wal::RecordType::kLineUndoFrame, payload_);
    PAX_CHECK_MSG(end.ok(), "undo frame outgrew its space check");
    // Every entry of the frame is gated on the frame's end: the frame's CRC
    // makes it durable (or torn) as a whole.
    std::uint64_t entry_at = start + sizeof(wal::RecordHeader);
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      *ref++ = {end.value(), entry_at};
      entry_at += wal::kLineUndoEntrySize;
    }
    ++stats_.frames;
    stats_.records += chunk.size();
    stats_.bytes_staged += end.value() - start;
  }
  staged_.store(writer_.appended(), std::memory_order_release);
  if (auto* chk = pm_->checker()) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      chk->on_log_append(id_, items[i].first.value,
                         refs_out[i].frame_end);
    }
  }
  return Status::ok();
}

Result<UndoEntryRef> UndoLogger::log_line(Epoch epoch, LineIndex line,
                                          const LineData& old_data) {
  const std::pair<LineIndex, LineData> item{line, old_data};
  UndoEntryRef ref;
  PAX_RETURN_IF_ERROR(
      log_lines(epoch, std::span(&item, 1), std::span(&ref, 1)));
  return ref;
}

void UndoLogger::flush() {
  ++stats_.flushes;
  writer_.flush();
  // The checker sees the new watermark *before* it is published to the
  // write-back gate: any data-path thread whose gate check (acquire-load of
  // durable_) observes this flush emits its write-back with a larger seq.
  if (auto* chk = pm_->checker()) {
    chk->on_log_flush(id_, writer_.durable());
  }
  durable_.store(writer_.durable(), std::memory_order_release);
}

void UndoLogger::reset_after_commit() {
  writer_.reset();
  if (auto* chk = pm_->checker()) chk->on_log_reset(id_);
  staged_.store(0, std::memory_order_release);
  durable_.store(0, std::memory_order_release);
}

}  // namespace pax::device
