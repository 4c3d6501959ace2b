#include "pax/device/pax_device.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <thread>

#include "pax/common/check.hpp"
#include "pax/common/log.hpp"

namespace pax::device {
namespace {

unsigned floor_pow2(unsigned v) {
  unsigned p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

std::atomic<std::uint32_t> g_device_id{0};

}  // namespace

PaxDevice::PaxDevice(pmem::PmemPool* pool, const DeviceConfig& config)
    : pool_(pool),
      pm_(pool->device()),
      config_(config),
      device_id_(g_device_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(pool->committed_epoch() + 1) {
  PAX_CHECK(pool != nullptr);

  // Effective stripe count: a power of two, capped so every stripe keeps at
  // least one full HBM set (otherwise small-buffer configs would silently
  // grow their aggregate capacity).
  PAX_CHECK_MSG(config.stripes >= 1, "stripes must be >= 1");
  const unsigned hbm_sets = static_cast<unsigned>(std::max<std::size_t>(
      1, config.hbm.capacity_lines / config.hbm.ways));
  const unsigned n = floor_pow2(std::min(config.stripes, hbm_sets));
  stripe_mask_ = n - 1;

  HbmConfig per_stripe = config.hbm;
  per_stripe.capacity_lines =
      std::max<std::size_t>(config.hbm.ways, config.hbm.capacity_lines / n);
  stripes_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    stripes_.push_back(std::make_unique<Stripe>(per_stripe));
    stripes_.back()->index = i;
  }

  // Split the log extent into two banks (§6 epoch overlap). Synchronous-only
  // workloads never leave bank 0.
  const std::size_t half =
      (pool->log_size() / 2) & ~(kCacheLineSize - 1);
  PAX_CHECK_MSG(half >= kCacheLineSize, "log extent too small to bank");
  loggers_[0] =
      std::make_unique<UndoLogger>(pm_, pool->log_offset(), half);
  loggers_[1] = std::make_unique<UndoLogger>(
      pm_, pool->log_offset() + half, pool->log_size() - half);

  // Undo tokens (pack_token) hold a frame end in 40 bits and an entry's
  // distance from it in 23; frames hold u32 line indices.
  PAX_CHECK_MSG(pool->log_size() - half <= kEndMask, "log bank too large");
  static_assert(wal::record_frame_size(UndoLogger::kMaxFrameEntries *
                                       wal::kLineUndoEntrySize) <
                (1ull << (63 - kBackShift)));
  PAX_CHECK_MSG((pool->data_offset() + pool->data_size()) / kCacheLineSize <=
                    UINT32_MAX + 1ull,
                "data extent too large for u32 undo line indices");
}

Status PaxDevice::log_first_touch(
    Stripe& s, std::span<const std::pair<LineIndex, LineData>> items,
    std::span<UndoEntryRef> refs) {
  {
    auto log_lock = lock_log();
    log_append_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    PAX_RETURN_IF_ERROR(
        loggers_[active_bank_]->log_lines(epoch_, items, refs));
  }
  for (std::size_t k = 0; k < items.size(); ++k) {
    s.epoch_logged.emplace(items[k].first, pack_token(active_bank_, refs[k]));
  }
  s.stats.first_touch_logs += items.size();
  return Status::ok();
}

void PaxDevice::check_line_in_data_extent(LineIndex line) const {
  const PoolOffset off = line.byte_offset();
  PAX_CHECK_MSG(off >= pool_->data_offset() &&
                    off + kCacheLineSize <= pool_->data_offset() +
                                                pool_->data_size(),
                "line outside the pool data extent");
}

LineData PaxDevice::device_view(Stripe& s, LineIndex line) {
  if (auto cached = s.hbm.lookup(line)) return *cached;
  return pm_->load_line(line);
}

void PaxDevice::evict_victim(Stripe& s,
                             const std::optional<EvictedLine>& victim) {
  if (!victim || !victim->dirty) return;
  if (!record_is_durable(victim->log_record_end)) {
    ++s.stats.forced_log_flushes;
    flush_all_logs();
  }
  write_line_to_pm(s, victim->line, victim->data, victim->log_record_end);
}

LineData PaxDevice::read_line(LineIndex line) {
  check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();
  Stripe& s = stripe_for(line);
  auto lock = lock_stripe(s);
  ++s.stats.read_reqs;

  if (auto cached = s.hbm.lookup(line)) {
    ++s.stats.read_hbm_hits;
    return *cached;
  }
  ++s.stats.read_pm;
  LineData data = pm_->load_line(line);

  // Fill the HBM cache with the clean copy; handle any dirty victim.
  auto victim = s.hbm.insert(line, data, /*dirty=*/false, 0,
                             loggers_[active_bank_]->durable());
  evict_victim(s, victim);
  return data;
}

LineData PaxDevice::peek_line(LineIndex line) {
  check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();
  Stripe& s = stripe_for(line);
  auto lock = lock_stripe(s);
  return device_view(s, line);
}

void PaxDevice::peek_lines(std::span<const LineIndex> lines,
                           std::span<LineData> out) {
  PAX_CHECK(lines.size() == out.size());
  if (lines.empty()) return;
  for (LineIndex line : lines) check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();

  // One pass per stripe, taking each stripe mutex once. Input batches are
  // small (a page's worth of lines), so the stripes × lines scan is cheap
  // and avoids allocating per-stripe index buckets.
  std::vector<bool> served(stripes_.size(), false);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t stripe = lines[i].value & stripe_mask_;
    if (served[stripe]) continue;
    served[stripe] = true;
    Stripe& s = *stripes_[stripe];
    auto lock = lock_stripe(s);
    for (std::size_t j = i; j < lines.size(); ++j) {
      if ((lines[j].value & stripe_mask_) == stripe) {
        out[j] = device_view(s, lines[j]);
      }
    }
  }
}

Status PaxDevice::sync_lines(std::span<const LineUpdate> updates) {
  if (updates.empty()) return Status::ok();
  for (const LineUpdate& u : updates) check_line_in_data_extent(u.line);
  auto epoch_lock = epoch_shared();
  batch_syncs_.fetch_add(1, std::memory_order_relaxed);
  batch_synced_lines_.fetch_add(updates.size(), std::memory_order_relaxed);

  // Scratch reused across stripe groups.
  std::vector<std::size_t> group;                          // update indices
  std::vector<std::pair<LineIndex, LineData>> first_touch;  // pre-images
  std::vector<UndoEntryRef> refs;

  // Serves one stripe group; caller holds s.mu.
  const auto sync_group = [&](Stripe& s, std::size_t stripe,
                              std::size_t first) -> Status {
    group.clear();
    for (std::size_t j = first; j < updates.size(); ++j) {
      if ((updates[j].line.value & stripe_mask_) == stripe) group.push_back(j);
    }
    s.stats.write_intents += group.size();
    s.stats.host_writebacks += group.size();

    // Collect the group's first-touch lines and their epoch-boundary
    // pre-images (the device view before the new data is applied).
    first_touch.clear();
    for (std::size_t j : group) {
      const LineIndex line = updates[j].line;
      if (!s.epoch_logged.contains(line)) {
        first_touch.emplace_back(line, device_view(s, line));
      }
    }

    // One frame (one log-mutex hold) covers the whole group's pre-images.
    if (!first_touch.empty()) {
      refs.resize(first_touch.size());
      PAX_RETURN_IF_ERROR(log_first_touch(s, first_touch, refs));
    }

    // Buffer every update's new data, gated on its frame's end.
    for (std::size_t j : group) {
      const LineUpdate& u = updates[j];
      auto victim = s.hbm.insert(u.line, u.data, /*dirty=*/true,
                                 gate_of(s.epoch_logged.at(u.line)),
                                 loggers_[active_bank_]->durable());
      evict_victim(s, victim);
    }
    return Status::ok();
  };

  // Pass 1: try-lock-first. A stripe whose mutex is free is served now; a
  // contended stripe's group is pushed onto this worker's overflow ring
  // and retried after every free stripe has been served, so a worker never
  // parks behind a peer while it still has uncontended work.
  std::vector<std::size_t> overflow;  // SPSC: pass 1 produces, pass 2 drains
  std::vector<bool> served(stripes_.size(), false);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const std::size_t stripe = updates[i].line.value & stripe_mask_;
    if (served[stripe]) continue;
    served[stripe] = true;

    Stripe& s = *stripes_[stripe];
    std::unique_lock<std::mutex> lk(s.mu, std::try_to_lock);
    if (!lk.owns_lock()) {
      s.lock_contended.fetch_add(1, std::memory_order_relaxed);
      sync_deferred_groups_.fetch_add(1, std::memory_order_relaxed);
      overflow.push_back(i);  // the group's first update index
      continue;
    }
    s.lock_acquisitions.fetch_add(1, std::memory_order_relaxed);
    check::LockToken token(pm_->checker(), check::LockClass::kStripe,
                           stripe_lock_id(s), /*shared=*/false);
    PAX_RETURN_IF_ERROR(sync_group(s, stripe, i));
  }

  // Pass 2: drain the overflow ring with blocking acquires (the contention
  // was already counted at defer time).
  for (std::size_t head = 0; head < overflow.size(); ++head) {
    const std::size_t i = overflow[head];
    const std::size_t stripe = updates[i].line.value & stripe_mask_;
    Stripe& s = *stripes_[stripe];
    std::unique_lock<std::mutex> lk(s.mu);
    s.lock_acquisitions.fetch_add(1, std::memory_order_relaxed);
    check::LockToken token(pm_->checker(), check::LockClass::kStripe,
                           stripe_lock_id(s), /*shared=*/false);
    PAX_RETURN_IF_ERROR(sync_group(s, stripe, i));
  }
  return Status::ok();
}

Status PaxDevice::write_intent(LineIndex line) {
  check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();
  Stripe& s = stripe_for(line);
  auto lock = lock_stripe(s);
  ++s.stats.write_intents;

  if (s.epoch_logged.contains(line)) return Status::ok();  // already captured

  // First touch this epoch: the device's current view of the line *is* the
  // epoch-boundary value — everything from prior epochs was either written
  // back and committed, or (with an epoch sealed for async commit) captured
  // into the device at seal time.
  const std::pair<LineIndex, LineData> item{line, device_view(s, line)};
  UndoEntryRef ref;
  return log_first_touch(s, std::span(&item, 1), std::span(&ref, 1));
}

LineData PaxDevice::undo_preimage(LineIndex line,
                                  std::uint64_t token) const {
  // The entry sits `back` bytes before its frame's end.
  const unsigned bank = (token & kBankBit) ? 1 : 0;
  const std::uint64_t end = token & kEndMask;
  const std::uint64_t back = (token & ~kBankBit) >> kBackShift;
  PAX_CHECK(back >= wal::kLineUndoEntrySize && end >= back);
  const PoolOffset extent_base =
      bank == 0 ? pool_->log_offset()
                : pool_->log_offset() +
                      ((pool_->log_size() / 2) & ~(kCacheLineSize - 1));
  std::array<std::byte, wal::kLineUndoEntrySize> bytes;
  pm_->load(extent_base + end - back, bytes);
  const wal::LineUndoEntry entry = wal::decode_line_undo_entry(bytes);
  PAX_CHECK_MSG(entry.line_index == line.value,
                "undo entry offset bookkeeping corrupted");
  return entry.old_data;
}

LineData PaxDevice::committed_view(Stripe& s, LineIndex line) {
  if (has_sealed_) {
    if (auto it = s.sealed_logged.find(line); it != s.sealed_logged.end()) {
      return undo_preimage(line, it->second);
    }
  }
  if (auto it = s.epoch_logged.find(line); it != s.epoch_logged.end()) {
    return undo_preimage(line, it->second);
  }
  return device_view(s, line);  // unmodified since the last commit
}

LineData PaxDevice::read_committed_line(LineIndex line) {
  check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();
  Stripe& s = stripe_for(line);
  auto lock = lock_stripe(s);
  return committed_view(s, line);
}

void PaxDevice::read_committed_lines(LineIndex first,
                                     std::span<LineData> out) {
  if (out.empty()) return;
  check_line_in_data_extent(first);
  check_line_in_data_extent(LineIndex{first.value + out.size() - 1});
  auto epoch_lock = epoch_shared();

  // A contiguous line range visits the stripes round-robin: serve all of a
  // stripe's lines under one mutex hold.
  const std::size_t n = stripes_.size();
  for (std::size_t stripe = 0; stripe < n; ++stripe) {
    // First out index whose line lands on this stripe.
    const std::size_t start =
        (stripe + n - (first.value & stripe_mask_)) & stripe_mask_;
    if (start >= out.size()) continue;
    Stripe& s = *stripes_[stripe];
    auto lock = lock_stripe(s);
    for (std::size_t i = start; i < out.size(); i += n) {
      out[i] = committed_view(s, LineIndex{first.value + i});
    }
  }
}

Status PaxDevice::mem_write(LineIndex line, const LineData& data) {
  check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();
  Stripe& s = stripe_for(line);
  auto lock = lock_stripe(s);
  ++s.stats.mem_writes;

  auto it = s.epoch_logged.find(line);
  if (it == s.epoch_logged.end()) {
    // First MemWr for this line this epoch: the device view still holds the
    // epoch-boundary value (the incoming data is not yet applied).
    const std::pair<LineIndex, LineData> item{line, device_view(s, line)};
    UndoEntryRef ref;
    PAX_RETURN_IF_ERROR(
        log_first_touch(s, std::span(&item, 1), std::span(&ref, 1)));
    it = s.epoch_logged.find(line);
  }

  auto victim = s.hbm.insert(line, data, /*dirty=*/true, gate_of(it->second),
                             loggers_[active_bank_]->durable());
  evict_victim(s, victim);
  return Status::ok();
}

void PaxDevice::writeback_line(LineIndex line, const LineData& data) {
  check_line_in_data_extent(line);
  auto epoch_lock = epoch_shared();
  Stripe& s = stripe_for(line);
  auto lock = lock_stripe(s);
  ++s.stats.host_writebacks;

  auto it = s.epoch_logged.find(line);
  // Under epoch overlap the host may also evict a line it modified only in
  // the sealed epoch (seal downgraded it to shared; a shared eviction
  // carries no data, but a dirty eviction can still race the seal). Accept
  // a sealed-epoch entry as ownership proof too.
  std::uint64_t token;
  if (it != s.epoch_logged.end()) {
    token = it->second;
  } else {
    auto sealed_it = s.sealed_logged.find(line);
    PAX_CHECK_MSG(sealed_it != s.sealed_logged.end(),
                  "host wrote back a line it never took write ownership of");
    token = sealed_it->second;
  }

  auto victim = s.hbm.insert(line, data, /*dirty=*/true, gate_of(token),
                             loggers_[active_bank_]->durable());
  evict_victim(s, victim);
}

void PaxDevice::write_line_to_pm(Stripe& s, LineIndex line,
                                 const LineData& data,
                                 std::uint64_t token) {
  // Core crash-consistency invariant: no new data reaches PM media before
  // the whole undo frame that can roll it back is durable.
  PAX_CHECK_MSG(record_is_durable(token),
                "write-back attempted before undo frame was durable");
  // This path reached the media only because record_is_durable observed the
  // logger's watermark on this thread — record that gate for the offline
  // happens-before analysis.
  note_writeback(line, token, /*gate_observed=*/true);
  pm_->store_line(line, data);
  pm_->flush_line(line);
  ++s.stats.pm_writeback_lines;
  s.hbm.mark_clean(line);
}

void PaxDevice::note_writeback(LineIndex line, std::uint64_t token,
                               bool gate_observed) const {
  if (auto* chk = pm_->checker()) {
    const unsigned bank = (token & kBankBit) ? 1 : 0;
    chk->on_writeback(line.value, loggers_[bank]->id(), token & kEndMask,
                      gate_observed);
  }
}

void PaxDevice::flush_all_logs() {
  auto log_lock = lock_log();
  for (auto& logger : loggers_) {
    if (logger->staged() > logger->durable()) logger->flush();
  }
  pm_->drain();
}

void PaxDevice::tick(bool force_flush) {
  auto epoch_lock = epoch_shared();

  std::uint64_t staged_volatile = 0;
  for (const auto& logger : loggers_) {
    staged_volatile += logger->staged() - logger->durable();
  }
  if ((force_flush && staged_volatile > 0) ||
      staged_volatile >= config_.log_flush_batch_bytes) {
    flush_all_logs();
  }

  if (!config_.proactive_writeback) return;

  // Proactively write back buffered dirty lines whose records are durable
  // (§3.3: frees buffer space and shrinks the work left for persist()).
  // Stripes are visited round-robin from a rotating start so concurrent
  // tick()s fan across the device instead of convoying on stripe 0.
  const std::size_t n = stripes_.size();
  const std::size_t start =
      static_cast<std::size_t>(tick_cursor_.fetch_add(1)) % n;
  std::vector<std::tuple<LineIndex, LineData, std::uint64_t>> ready;
  for (std::size_t i = 0; i < n; ++i) {
    Stripe& s = *stripes_[(start + i) % n];
    auto lock = lock_stripe(s, /*count=*/false);
    ready.clear();
    s.hbm.for_each_dirty(
        [&](LineIndex line, const LineData& data, std::uint64_t packed) {
          if (record_is_durable(packed)) {
            ready.emplace_back(line, data, packed);
          }
        });
    for (const auto& [line, data, packed] : ready) {
      write_line_to_pm(s, line, data, packed);
      ++s.stats.proactive_writebacks;
    }
  }
}

void PaxDevice::fan_out(std::size_t total_lines,
                        const std::function<void(Stripe&)>& fn) {
  const std::size_t n = stripes_.size();
  const unsigned workers = std::min<unsigned>(
      std::max(1u, config_.persist_workers), static_cast<unsigned>(n));
  if (workers <= 1 || total_lines < config_.persist_fanout_min_lines) {
    for (auto& s : stripes_) fn(*s);
    return;
  }

  // The committing thread participates, so the pool parks workers - 1
  // threads. Lazy creation happens under the exclusive epoch lock.
  if (!persist_pool_) {
    persist_pool_ = std::make_unique<common::ThreadPool>(workers - 1);
  }
  // Fork-join bracketing for the offline happens-before analysis: the pool
  // itself is real synchronization (dispatch precedes every slice, every
  // slice precedes the return from parallel_for), and these events make
  // that ordering visible in the trace. Token is process-unique so
  // overlapping sections on different devices never alias.
  check::Checker* chk = pm_->checker();
  std::uint64_t token = 0;
  if (chk != nullptr) {
    token = (static_cast<std::uint64_t>(device_id_) + 1) << 32 |
            (task_token_.fetch_add(1, std::memory_order_relaxed) + 1);
    chk->on_task_dispatch(token);
  }
  persist_pool_->parallel_for(n, [&](std::size_t i) {
    if (chk != nullptr) chk->on_task_begin(token);
    fn(*stripes_[i]);
    if (chk != nullptr) chk->on_task_end(token);
  });
  if (chk != nullptr) chk->on_task_join(token);
}

std::optional<LineData> PaxDevice::pull_one(const PullFn& pull,
                                            LineIndex line) {
  persist_pulls_.fetch_add(1, std::memory_order_relaxed);
  if (!pull) return std::nullopt;
  if (auto* chk = pm_->checker()) chk->on_pull_invoke(line.value);
  std::lock_guard lock(pull_mu_);
  return pull(line);
}

Result<Epoch> PaxDevice::persist(const PullFn& pull) {
  auto epoch_lock = epoch_exclusive();
  persists_.fetch_add(1, std::memory_order_relaxed);

  // Complete any outstanding async epoch first: epochs commit in order.
  if (has_sealed_) {
    auto committed = commit_sealed_locked();
    if (!committed.ok()) return committed;
  }

  // Phase 1a. Every undo record of this epoch becomes durable.
  flush_all_logs();

  // Phase 1b (fan-out). For every line modified this epoch, obtain its
  // authoritative current value — from the host if it still caches it
  // (RdShared: also revokes exclusivity so next-epoch stores re-announce
  // themselves), else from the device buffer, else PM already has it — and
  // write it to PM. Each stripe's slice is independent; workers own one
  // stripe at a time (the exclusive epoch lock quiesces the data path, so
  // no stripe mutex is needed).
  std::size_t total_lines = 0;
  for (const auto& s : stripes_) total_lines += s->epoch_logged.size();

  const bool want_hook = static_cast<bool>(commit_hook_);
  std::mutex hook_mu;
  std::vector<std::pair<LineIndex, LineData>> committed_lines;
  if (want_hook) committed_lines.reserve(total_lines);

  fan_out(total_lines, [&](Stripe& s) {
    std::vector<std::pair<LineIndex, LineData>> local;
    if (want_hook) local.reserve(s.epoch_logged.size());
    for (const auto& [line, packed] : s.epoch_logged) {
      std::optional<LineData> host_copy = pull_one(pull, line);
      LineData value;
      if (host_copy) {
        value = *host_copy;
        // The pulled copy supersedes any (possibly stale) buffered copy.
        s.hbm.update_if_present(line, value);
      } else if (auto buffered = s.hbm.lookup(line)) {
        value = *buffered;
      } else {
        // Neither host nor buffer holds it: the proactive path already
        // wrote it back; re-reading PM keeps the store below idempotent.
        value = pm_->load_line(line);
      }
      note_writeback(line, packed);
      pm_->store_line(line, value);
      pm_->flush_line(line);
      ++s.stats.pm_writeback_lines;
      s.hbm.mark_clean(line);
      if (want_hook) local.emplace_back(line, value);
    }
    if (want_hook && !local.empty()) {
      std::lock_guard hl(hook_mu);
      committed_lines.insert(committed_lines.end(), local.begin(),
                             local.end());
    }
  });

  // Phase 2 (serialized tail). Fence: all data write-back durable before
  // the commit record; then atomically transition the pool to the new
  // snapshot (§3.3).
  pm_->drain();
  const Epoch committed = epoch_;
  pool_->commit_epoch(committed);
  if (commit_hook_) commit_hook_(committed, committed_lines);

  // New epoch: the active log bank is reusable (every record inside is now
  // stale under the committed epoch cell).
  {
    auto log_lock = lock_log();
    loggers_[active_bank_]->reset_after_commit();
  }
  for (auto& s : stripes_) {
    s->epoch_logged.clear();
    s->hbm.mark_all_clean();
  }
  epoch_ = committed + 1;

  PAX_LOG_DEBUG("persist: committed epoch %llu",
                static_cast<unsigned long long>(committed));
  return committed;
}

Result<Epoch> PaxDevice::seal_epoch(const PullFn& pull) {
  auto epoch_lock = epoch_exclusive();
  if (has_sealed_) {
    return failed_precondition(
        "an epoch is already sealed; commit it before sealing another");
  }
  epoch_seals_.fetch_add(1, std::memory_order_relaxed);

  // Phase 1 (fan-out). Capture the host's current values for every modified
  // line, revoking exclusivity (next-epoch stores must re-announce). The
  // values land in each stripe's HBM buffer as dirty lines gated on their
  // (sealed-bank) records.
  std::size_t total_lines = 0;
  for (const auto& s : stripes_) total_lines += s->epoch_logged.size();

  fan_out(total_lines, [&](Stripe& s) {
    for (const auto& [line, packed] : s.epoch_logged) {
      if (std::optional<LineData> host_copy = pull_one(pull, line)) {
        auto victim =
            s.hbm.insert(line, *host_copy, /*dirty=*/true, gate_of(packed),
                         loggers_[active_bank_]->durable());
        evict_victim(s, victim);
      }
    }
  });

  // Phase 2 (serialized tail). Freeze the epoch and switch new work to the
  // other bank.
  for (auto& s : stripes_) {
    s->sealed_logged = std::move(s->epoch_logged);
    s->epoch_logged.clear();
  }
  sealed_epoch_ = epoch_;
  has_sealed_ = true;
  active_bank_ ^= 1;
  PAX_CHECK_MSG(loggers_[active_bank_]->staged() == 0,
                "switching to a log bank that still holds live records");
  epoch_ = sealed_epoch_ + 1;
  if (auto* chk = pm_->checker()) chk->on_epoch_seal(sealed_epoch_);
  return sealed_epoch_;
}

Result<Epoch> PaxDevice::commit_sealed() {
  auto epoch_lock = epoch_exclusive();
  return commit_sealed_locked();
}

Result<Epoch> PaxDevice::commit_sealed_locked() {
  if (!has_sealed_) return pool_->committed_epoch();
  async_commits_.fetch_add(1, std::memory_order_relaxed);

  // Phase 1a. All records durable — both banks: a sealed line may have been
  // re-modified in the active epoch, and the value written below could be
  // that newer one; its active-bank undo record must be durable before the
  // value reaches PM (the gating invariant under overlap).
  flush_all_logs();

  // Phase 1b (fan-out). Write back every sealed line from the device's view
  // (the seal pulled the host copies; any concurrent newer value is safe
  // per the flushed active-bank record — recovery rolls it back to this
  // epoch's value).
  std::size_t total_lines = 0;
  for (const auto& s : stripes_) total_lines += s->sealed_logged.size();

  const bool want_hook = static_cast<bool>(commit_hook_);
  std::mutex hook_mu;
  std::vector<std::pair<LineIndex, LineData>> committed_lines;
  if (want_hook) committed_lines.reserve(total_lines);

  fan_out(total_lines, [&](Stripe& s) {
    std::vector<std::pair<LineIndex, LineData>> local;
    if (want_hook) local.reserve(s.sealed_logged.size());
    for (const auto& [line, packed] : s.sealed_logged) {
      note_writeback(line, packed);
      const LineData value = device_view(s, line);
      pm_->store_line(line, value);
      pm_->flush_line(line);
      ++s.stats.pm_writeback_lines;
      // Only mark clean if the active epoch hasn't re-dirtied it.
      if (!s.epoch_logged.contains(line)) s.hbm.mark_clean(line);
      if (want_hook) local.emplace_back(line, value);
    }
    if (want_hook && !local.empty()) {
      std::lock_guard hl(hook_mu);
      committed_lines.insert(committed_lines.end(), local.begin(),
                             local.end());
    }
  });

  // Phase 2 (serialized tail). Fence, then the atomic epoch-cell commit.
  pm_->drain();
  pool_->commit_epoch(sealed_epoch_);
  if (commit_hook_) commit_hook_(sealed_epoch_, committed_lines);

  // The sealed bank's records are stale now; reclaim it.
  const unsigned sealed_bank = active_bank_ ^ 1;
  {
    auto log_lock = lock_log();
    loggers_[sealed_bank]->reset_after_commit();
  }
  for (auto& s : stripes_) s->sealed_logged.clear();
  const Epoch committed = sealed_epoch_;
  has_sealed_ = false;

  PAX_LOG_DEBUG("commit_sealed: committed epoch %llu",
                static_cast<unsigned long long>(committed));
  return committed;
}

bool PaxDevice::has_sealed_epoch() const {
  auto epoch_lock = epoch_shared();
  return has_sealed_;
}

void PaxDevice::set_commit_hook(CommitHook hook) {
  auto epoch_lock = epoch_exclusive();
  commit_hook_ = std::move(hook);
}

Epoch PaxDevice::current_epoch() const {
  auto epoch_lock = epoch_shared();
  return epoch_;
}

std::size_t PaxDevice::epoch_logged_lines() const {
  auto epoch_lock = epoch_shared();
  std::size_t total = 0;
  for (const auto& s : stripes_) {
    auto lock = lock_stripe(*s, /*count=*/false);
    total += s->epoch_logged.size();
  }
  return total;
}

std::uint64_t PaxDevice::log_bytes_in_use() const {
  return loggers_[0]->staged() + loggers_[1]->staged();
}

UndoLoggerStats PaxDevice::log_stats() const {
  auto log_lock = lock_log();
  UndoLoggerStats total = loggers_[0]->stats();
  const UndoLoggerStats& other = loggers_[1]->stats();
  total.records += other.records;
  total.frames += other.frames;
  total.bytes_staged += other.bytes_staged;
  total.flushes += other.flushes;
  return total;
}

DeviceStats PaxDevice::stats() const {
  auto epoch_lock = epoch_shared();
  DeviceStats total;
  for (const auto& s : stripes_) {
    auto lock = lock_stripe(*s, /*count=*/false);
    const DeviceStats& st = s->stats;
    total.read_reqs += st.read_reqs;
    total.read_hbm_hits += st.read_hbm_hits;
    total.read_pm += st.read_pm;
    total.write_intents += st.write_intents;
    total.first_touch_logs += st.first_touch_logs;
    total.host_writebacks += st.host_writebacks;
    total.mem_writes += st.mem_writes;
    total.pm_writeback_lines += st.pm_writeback_lines;
    total.proactive_writebacks += st.proactive_writebacks;
    total.forced_log_flushes += st.forced_log_flushes;
  }
  total.persists = persists_.load(std::memory_order_relaxed);
  total.persist_pulls = persist_pulls_.load(std::memory_order_relaxed);
  total.epoch_seals = epoch_seals_.load(std::memory_order_relaxed);
  total.async_commits = async_commits_.load(std::memory_order_relaxed);
  total.batch_syncs = batch_syncs_.load(std::memory_order_relaxed);
  total.batch_synced_lines =
      batch_synced_lines_.load(std::memory_order_relaxed);
  total.log_append_acquisitions =
      log_append_acquisitions_.load(std::memory_order_relaxed);
  total.sync_deferred_groups =
      sync_deferred_groups_.load(std::memory_order_relaxed);
  return total;
}

std::vector<StripeStats> PaxDevice::stripe_stats() const {
  auto epoch_lock = epoch_shared();
  std::vector<StripeStats> out;
  out.reserve(stripes_.size());
  for (unsigned i = 0; i < stripes_.size(); ++i) {
    const Stripe& s = *stripes_[i];
    StripeStats st;
    st.stripe = i;
    st.lock_acquisitions =
        s.lock_acquisitions.load(std::memory_order_relaxed);
    st.lock_contended = s.lock_contended.load(std::memory_order_relaxed);
    {
      auto lock = lock_stripe(s, /*count=*/false);
      st.write_intents = s.stats.write_intents;
      st.host_writebacks = s.stats.host_writebacks;
      st.pm_writeback_lines = s.stats.pm_writeback_lines;
      st.epoch_logged_lines = s.epoch_logged.size();
    }
    out.push_back(st);
  }
  return out;
}

void PaxDevice::stripe_lock_totals(std::uint64_t* acquisitions,
                                   std::uint64_t* contended) const {
  std::uint64_t acq = 0, con = 0;
  for (const auto& s : stripes_) {
    acq += s->lock_acquisitions.load(std::memory_order_relaxed);
    con += s->lock_contended.load(std::memory_order_relaxed);
  }
  if (acquisitions != nullptr) *acquisitions = acq;
  if (contended != nullptr) *contended = con;
}

HbmStats PaxDevice::hbm_stats() const {
  auto epoch_lock = epoch_shared();
  HbmStats total;
  for (const auto& s : stripes_) {
    auto lock = lock_stripe(*s, /*count=*/false);
    total += s->hbm.stats();
  }
  return total;
}

}  // namespace pax::device
