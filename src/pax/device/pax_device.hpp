// The PAX device model: the paper's core contribution (§3, Figure 1).
//
// The device is the coherence home of the vPM region. Frontends (the
// CXL.cache host-cache simulator in pax/coherence, or the paging frontend in
// pax/libpax — the paper's §5.1 hybrid) translate host activity into three
// data-path entry points:
//
//   read_line()       RdShared  — serve a host load miss (HBM cache, then PM)
//   write_intent()    RdOwn     — host will modify the line; the device
//                                 captures the epoch-boundary pre-image into
//                                 the asynchronous undo log (§3.2)
//   writeback_line()  DirtyEvict — host evicted a modified line; the device
//                                 buffers it, writing it back to PM as soon
//                                 as (and only once) its undo record is
//                                 durable (§3.3)
//
// Batch-oriented frontends (the libpax paging frontend's host sync path)
// use the fused equivalents instead: peek_lines() reads device views with
// one stripe-mutex hold per stripe per call, and sync_lines() performs
// write_intent + writeback_line for a whole batch — grouped by stripe, the
// group's pre-images appended as ONE undo frame (one header, one CRC) under
// a single log-mutex acquisition.
//
// tick() runs the write-back coordinator: batch log flushes plus proactive
// write-back of buffered dirty lines, which is what keeps the per-epoch
// working set unbounded by buffer capacity.
//
// persist() executes the paper's epoch-commit protocol: flush the undo log,
// pull the current value of every line modified this epoch from the host
// (the CXL RdShared downgrade — the pull callback must also strip the host
// of exclusive ownership so next-epoch stores are observed again), write
// everything back to PM, fence, then atomically commit the epoch cell.
//
// Non-blocking persist (§6 "we believe it may be possible to make persist()
// fully non-blocking, so that epochs overlap"): the undo-log extent is split
// into two *banks*. seal_epoch() pulls the host's current values for the
// epoch's lines (revoking ownership), freezes the epoch's undo set, and
// switches new mutations onto the other bank — the application continues
// immediately. commit_sealed() later completes the durable work (log flush,
// write-back, epoch-cell commit) off the critical path. Correctness under
// overlap rests on the same gating invariant as everything else: a line's
// newer (active-epoch) value may reach PM during the sealed commit, but only
// after the active epoch's undo frame for it is durable, so recovery always
// lands exactly on a committed snapshot. Recovery scans both banks and
// applies uncommitted records newest-epoch-first.
//
// ── Threading model (the striped data path) ────────────────────────────────
//
// Device state is partitioned into `DeviceConfig::stripes` stripes by
// LineIndex (stripe = line & (stripes - 1)). Each stripe owns its slice of
// the HBM buffer, its epoch-modified and sealed-modified sets, and its
// data-path statistics, all behind its own mutex — read_line / write_intent /
// writeback_line / mem_write on lines of different stripes proceed fully in
// parallel. Three device-wide pieces remain shared:
//
//   * epoch_mu_ (a shared_mutex): the data path holds it shared; persist /
//     seal_epoch / commit_sealed hold it exclusive. Epoch number, active log
//     bank, and the sealed flag only change under the exclusive side, so the
//     data path reads them without further synchronization.
//   * log_mu_: the two undo-log banks are inherently ordered append-only
//     structures; frames from all stripes are appended under this short
//     log-only mutex — the one undo-append path. Durability gating never
//     takes it — the loggers publish their staged/durable watermarks
//     through atomics.
//   * the PM device itself, which is internally line-sharded.
//
// LOCK ORDER (never acquire in the reverse direction):
//   epoch_mu_ (shared or exclusive)  →  stripe mutex  →  log_mu_
// At most one stripe mutex is held at a time.
//
// persist()/seal_epoch()/commit_sealed() run a two-phase protocol: phase one
// fans the per-stripe work (host pulls, PM write-back of the stripe's logged
// lines) across a pool of `persist_workers` threads, one stripe per worker
// at a time; phase two — log flush, fence, epoch-cell commit — is a single
// serialized tail. The pull callback is invoked under an internal mutex
// (pull_mu_), one call at a time, so frontends need not be thread-safe to be
// pulled from the fan-out.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "pax/check/checker.hpp"
#include "pax/common/status.hpp"
#include "pax/common/thread_pool.hpp"
#include "pax/common/types.hpp"
#include "pax/device/hbm_cache.hpp"
#include "pax/device/undo_logger.hpp"
#include "pax/pmem/pool.hpp"

namespace pax::device {

/// One host-modified line handed to the batched sync path: the host's
/// current value of `line`, to be undo-logged (first touch this epoch) and
/// buffered for write-back — write_intent + writeback_line fused.
struct LineUpdate {
  LineIndex line;
  LineData data;
};

struct DeviceConfig {
  HbmConfig hbm;
  /// Write buffered dirty lines back to PM during tick() once their undo
  /// records are durable (§3.3). Off = write-back only at persist().
  bool proactive_writeback = true;
  /// tick() flushes the log when this many staged-but-volatile bytes
  /// accumulate (group flushing keeps "async" cheap).
  std::size_t log_flush_batch_bytes = 4096;
  /// Number of data-path stripes (power of two; rounded down otherwise).
  /// The effective count is additionally capped so every stripe keeps at
  /// least one full HBM set (capacity_lines / ways); stripes = 1 reproduces
  /// the old single-lock device.
  unsigned stripes = 16;
  /// Worker threads for the fan-out phase of persist()/seal_epoch()/
  /// commit_sealed(). 1 = run the fan-out inline (no extra threads).
  unsigned persist_workers = 4;
  /// Fan out only when the epoch modified at least this many lines; tiny
  /// epochs aren't worth the thread hand-off.
  std::size_t persist_fanout_min_lines = 64;

  static DeviceConfig defaults() { return DeviceConfig{}; }
};

/// Per-stripe snapshot for operator tooling (paxctl synctest) and
/// benchmarks. Lock counters are sampled lock-free from atomics; the rest
/// is read under the stripe mutex.
struct StripeStats {
  unsigned stripe = 0;
  std::uint64_t write_intents = 0;
  std::uint64_t host_writebacks = 0;
  std::uint64_t pm_writeback_lines = 0;
  /// Distinct lines undo-logged on this stripe in the current epoch.
  std::uint64_t epoch_logged_lines = 0;
  /// Stripe-mutex acquisitions by the data path, and how many of those
  /// found the mutex already held (try_lock failed first). contended /
  /// acquisitions is the stripe contention ratio.
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_contended = 0;
};

struct DeviceStats {
  std::uint64_t read_reqs = 0;
  std::uint64_t read_hbm_hits = 0;
  std::uint64_t read_pm = 0;
  std::uint64_t write_intents = 0;        // RdOwn messages observed
  std::uint64_t first_touch_logs = 0;     // lines undo-logged
  std::uint64_t host_writebacks = 0;      // DirtyEvict messages observed
  std::uint64_t mem_writes = 0;           // CXL.mem MemWr messages observed
  std::uint64_t pm_writeback_lines = 0;   // lines written to PM media path
  std::uint64_t proactive_writebacks = 0; // ... of which before persist()
  std::uint64_t forced_log_flushes = 0;   // stalls: eviction beat the flusher
  std::uint64_t persists = 0;
  std::uint64_t persist_pulls = 0;        // RdShared pulls issued at persist
  std::uint64_t epoch_seals = 0;          // §6 non-blocking persist: seals
  std::uint64_t async_commits = 0;        // ... and their completions
  std::uint64_t batch_syncs = 0;          // sync_lines() invocations
  std::uint64_t batch_synced_lines = 0;   // lines carried by those batches
  std::uint64_t log_append_acquisitions = 0;  // log-mutex holds for appends
  std::uint64_t sync_deferred_groups = 0; // sync_lines try-lock misses that
                                          // went to the overflow ring
};

class PaxDevice {
 public:
  /// The device homes the pool's data extent and logs into its log extent.
  /// The epoch resumes from the pool's committed epoch cell (callers run
  /// recovery first; see device/recovery.hpp).
  PaxDevice(pmem::PmemPool* pool, const DeviceConfig& config);

  // --- Data path (called by frontends; thread-safe) ----------------------

  /// Serves a host load miss. `line` is an absolute pool line index inside
  /// the data extent.
  LineData read_line(LineIndex line);

  /// Notes host intent to modify `line`; performs first-touch-per-epoch
  /// undo logging. Fails with kOutOfSpace when the log extent is full (the
  /// application must persist() more often or size the extent larger).
  Status write_intent(LineIndex line);

  /// Accepts a modified line evicted from host caches. The host must have
  /// announced the modification via write_intent() first.
  void writeback_line(LineIndex line, const LineData& data);

  /// Device-internal view of a line (buffer over PM) without stats or cache
  /// fill. The paging frontend uses this to diff dirty pages at cache-line
  /// granularity (§5.1 hybrid).
  LineData peek_line(LineIndex line);

  /// Batched peek: fills out[i] with the device view of lines[i]. Groups
  /// the lines by stripe and acquires each stripe mutex once per call
  /// instead of once per line — the cheap half of the batched host sync
  /// path (the paging frontend peeks a whole page per call when diffing).
  void peek_lines(std::span<const LineIndex> lines,
                  std::span<LineData> out);

  /// Batched host sync: write_intent + writeback_line fused, amortized
  /// across a batch. Updates are grouped by stripe; groups are served
  /// try-lock-first (a contended stripe is deferred to a per-call overflow
  /// ring and retried after every free stripe has been served, so workers
  /// don't park behind a peer mid-batch). Each group takes its stripe
  /// mutex once, undo-logs all of its first-touch lines as one frame under
  /// a single log-mutex acquisition (UndoLogger::log_lines), then buffers
  /// every update's data for write-back, gated on that frame's end.
  /// Equivalent, line for line, to calling write_intent(line) followed by
  /// writeback_line(line, data) for each update, including all stats except
  /// the per-call counters and the log's frame count. kOutOfSpace fails a
  /// whole stripe group atomically (no partial group is logged or
  /// buffered); groups already applied stay applied, exactly like the
  /// per-line path failing midway. Updates in one batch should name
  /// distinct lines — a duplicate costs a redundant (harmless) undo entry.
  Status sync_lines(std::span<const LineUpdate> updates);

  /// Reads `line` as of the most recently *committed* snapshot, even while
  /// the current (and a sealed) epoch are mutating it — a consistent
  /// time-travel read, free because the undo log already holds every
  /// modified line's committed pre-image:
  ///   * line logged in the sealed epoch → that entry's pre-image is the
  ///     last committed value;
  ///   * else logged in the active epoch → its pre-image was captured at
  ///     the last boundary (seal or commit), which equals the committed
  ///     value when the line wasn't also sealed;
  ///   * else unmodified since the last commit → the device view is it.
  /// Readers get snapshot isolation without quiescing writers (§6's "new
  /// lens" on coherence-visible state).
  LineData read_committed_line(LineIndex line);

  /// Ranged batch of read_committed_line: fills out[i] with the committed
  /// view of line `first + i`, acquiring each stripe mutex once for the
  /// whole range instead of once per line (read_snapshot's fast path).
  void read_committed_lines(LineIndex first, std::span<LineData> out);

  /// CXL.mem write path (§6: ".mem can support basic functionality, but it
  /// does not have as much visibility into coherence as .cache"). A memory
  /// expander sees no ownership requests and cannot snoop: the device
  /// learns of a modification only when the dirty line arrives (MemWr).
  /// The pre-image is captured then — the incoming data has not yet been
  /// applied, so the device view still holds the epoch-boundary value.
  /// persist() in .mem mode needs the *host* to have flushed every dirty
  /// line first (a CLWB sweep), because the device cannot pull.
  Status mem_write(LineIndex line, const LineData& data);

  // --- Write-back coordinator -------------------------------------------

  /// One unit of background work: flush the log if the staged batch is big
  /// enough (or `force_flush`), then proactively write back durable-logged
  /// dirty lines, visiting the stripes round-robin (concurrent tick()s
  /// start at different stripes and interleave with the data path
  /// stripe-by-stripe).
  void tick(bool force_flush = false);

  // --- Epoch commit ------------------------------------------------------

  /// Fetches the host's current copy of a line and revokes host exclusive
  /// ownership (CXL RdShared). Returns nullopt if the host no longer caches
  /// the line. Invoked one call at a time (under the device's pull mutex)
  /// even when the commit fan-out runs on several workers, so it need not
  /// be thread-safe — but it must NOT block on locks held by threads that
  /// are executing device data-path calls, or persist deadlocks.
  using PullFn = std::function<std::optional<LineData>(LineIndex)>;

  /// Commits the current epoch as a crash-consistent snapshot and starts
  /// the next one. Returns the committed epoch number. If an epoch is
  /// sealed but not yet committed, it is committed first.
  Result<Epoch> persist(const PullFn& pull);

  // --- Non-blocking persist (§6 extension) --------------------------------

  /// Freezes the current epoch for asynchronous commit: pulls the host's
  /// current copies of its modified lines (revoking exclusivity), moves new
  /// mutations onto the other log bank, and returns the sealed epoch
  /// number. The caller regains control without waiting for any
  /// persistence work. At most one epoch may be sealed at a time: callers
  /// must commit_sealed() (or persist()) before sealing again.
  Result<Epoch> seal_epoch(const PullFn& pull);

  /// Completes the sealed epoch's durable work: flushes the logs, writes
  /// the sealed lines back to PM, fences, and commits the epoch cell.
  /// No-op returning the last committed epoch if nothing is sealed.
  Result<Epoch> commit_sealed();

  bool has_sealed_epoch() const;

  // --- Commit hook (replication, §6) --------------------------------------

  /// Called after every epoch commit (sync or sealed) with the committed
  /// epoch number and the final values of every line that epoch modified.
  /// Used by the replication extension (device/replication.hpp) to ship
  /// epochs to a backup. Invoked with the epoch lock held exclusively (the
  /// whole data path is quiesced): keep it short or enqueue.
  using CommitHook = std::function<void(
      Epoch, const std::vector<std::pair<LineIndex, LineData>>&)>;
  void set_commit_hook(CommitHook hook);

  /// Epoch currently accumulating modifications ( = last committed + 1).
  Epoch current_epoch() const;

  /// Number of distinct lines undo-logged in the current epoch.
  std::size_t epoch_logged_lines() const;

  /// Bytes currently occupied in the undo-log extent (resets at each epoch
  /// commit) — the live footprint a crash would have to roll back.
  std::uint64_t log_bytes_in_use() const;

  /// Effective stripe count (after power-of-two rounding and the HBM
  /// geometry cap).
  unsigned stripe_count() const {
    return static_cast<unsigned>(stripes_.size());
  }

  /// Which stripe a line lands on. Frontends that pre-bucket batched work
  /// per stripe (so concurrent workers' sync_lines batches land on disjoint
  /// stripe mutexes) use this to build their buckets.
  unsigned stripe_index(LineIndex line) const {
    return static_cast<unsigned>(line.value & stripe_mask_);
  }

  DeviceStats stats() const;
  HbmStats hbm_stats() const;
  UndoLoggerStats log_stats() const;

  /// Per-stripe counter snapshot, one entry per stripe in index order.
  std::vector<StripeStats> stripe_stats() const;

  /// Device-wide stripe-mutex acquisition/contention totals, sampled
  /// lock-free — cheap enough to poll around every epoch.
  void stripe_lock_totals(std::uint64_t* acquisitions,
                          std::uint64_t* contended) const;

 private:
  // One data-path partition. Padded to its own cache lines so stripe
  // mutexes don't false-share.
  struct alignas(64) Stripe {
    explicit Stripe(const HbmConfig& hbm_config) : hbm(hbm_config) {}
    mutable std::mutex mu;
    unsigned index = 0;  // position in stripes_; PaxCheck lock identity
    HbmCache hbm;
    // line -> undo token (pack_token), for every line logged this epoch.
    std::unordered_map<LineIndex, std::uint64_t> epoch_logged;
    // Sealed-but-uncommitted epoch (§6): this stripe's slice of its set.
    std::unordered_map<LineIndex, std::uint64_t> sealed_logged;
    DeviceStats stats;  // data-path counters only; aggregated by stats()
    // Lock-contention telemetry, updated before the mutex is held (atomics)
    // so stripe_lock_totals() can sample without taking any lock.
    mutable std::atomic<std::uint64_t> lock_acquisitions{0};
    mutable std::atomic<std::uint64_t> lock_contended{0};
  };

  // RAII pair of a real lock and its PaxCheck lock-discipline events: the
  // token emits its acquire right after the lock is taken and its release
  // (member destruction order) right before the lock is dropped.
  template <typename LockT>
  struct Guarded {
    LockT lock;
    check::LockToken token;
  };

  // Distinguishes this device's locks from another device's in the checker
  // (e.g. a replication backup driven from the primary's commit hook).
  std::uint32_t stripe_lock_id(const Stripe& s) const {
    return (device_id_ << 16) | s.index;
  }

  // Locks s.mu, counting the acquisition and whether it contended. All
  // data-path entry points route through this so the reported contention
  // ratio reflects real fights over the stripe. The
  // coordinator/stats passes pass count = false: they held raw guards
  // before and must not perturb that ratio.
  Guarded<std::unique_lock<std::mutex>> lock_stripe(const Stripe& s,
                                                    bool count = true) const {
    std::unique_lock<std::mutex> lock(s.mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      if (count) s.lock_contended.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
    if (count) s.lock_acquisitions.fetch_add(1, std::memory_order_relaxed);
    return {std::move(lock),
            check::LockToken(pm_->checker(), check::LockClass::kStripe,
                             stripe_lock_id(s), /*shared=*/false)};
  }

  Guarded<std::shared_lock<std::shared_mutex>> epoch_shared() const {
    std::shared_lock<std::shared_mutex> lock(epoch_mu_);
    return {std::move(lock),
            check::LockToken(pm_->checker(), check::LockClass::kEpochGate,
                             device_id_, /*shared=*/true)};
  }

  Guarded<std::unique_lock<std::shared_mutex>> epoch_exclusive() const {
    std::unique_lock<std::shared_mutex> lock(epoch_mu_);
    return {std::move(lock),
            check::LockToken(pm_->checker(), check::LockClass::kEpochGate,
                             device_id_, /*shared=*/false)};
  }

  Guarded<std::unique_lock<std::mutex>> lock_log() const {
    std::unique_lock<std::mutex> lock(log_mu_);
    return {std::move(lock),
            check::LockToken(pm_->checker(), check::LockClass::kLogMu,
                             device_id_, /*shared=*/false)};
  }

  // A logged line's undo token packs three fields into one u64: the log
  // bank (top bit), the distance from the line's entry to its frame's end
  // (bits 40..62) and the frame's end offset (bits 0..39). The write-back
  // gate is bank + frame end (gate_of) — every line of a frame waits for
  // the whole frame. The distance only locates the pre-image for snapshot
  // reads (undo_preimage). HbmCache carries gates opaquely.
  static constexpr std::uint64_t kBankBit = 1ull << 63;
  static constexpr unsigned kBackShift = 40;
  static constexpr std::uint64_t kEndMask = (1ull << kBackShift) - 1;
  static std::uint64_t pack_token(unsigned bank, const UndoEntryRef& ref) {
    return (bank ? kBankBit : 0) |
           ((ref.frame_end - ref.entry_at) << kBackShift) | ref.frame_end;
  }
  static std::uint64_t gate_of(std::uint64_t token) {
    return token & (kBankBit | kEndMask);
  }
  bool record_is_durable(std::uint64_t token) const {
    const unsigned bank = (token & kBankBit) ? 1 : 0;
    return (token & kEndMask) <= loggers_[bank]->durable();
  }

  // Undo-logs `items` as one frame in the active bank under the log mutex
  // and records each line's token in `s` (caller holds s.mu). `refs` is
  // scratch of items.size() entries.
  Status log_first_touch(Stripe& s,
                         std::span<const std::pair<LineIndex, LineData>> items,
                         std::span<UndoEntryRef> refs);

  Stripe& stripe_for(LineIndex line) {
    return *stripes_[line.value & stripe_mask_];
  }
  const Stripe& stripe_for(LineIndex line) const {
    return *stripes_[line.value & stripe_mask_];
  }

  // Writes a data line to PM media and marks it clean in `s`'s buffer. The
  // caller holds s.mu and must have ensured the line's undo frame (if any
  // this epoch) is durable; checked here.
  void write_line_to_pm(Stripe& s, LineIndex line, const LineData& data,
                        std::uint64_t token);

  // Emits the PaxCheck write-back event for `line` gated on the undo frame
  // `token` names (no-op without an attached checker).
  // `gate_observed`: the caller checked record_is_durable on this thread.
  void note_writeback(LineIndex line, std::uint64_t token,
                      bool gate_observed = false) const;

  // Handles the victim of an HbmCache::insert under s.mu: forces a log
  // flush if the victim's frame isn't durable yet, then writes it back.
  void evict_victim(Stripe& s, const std::optional<EvictedLine>& victim);

  // Flushes both log banks (all staged frames become durable). Takes
  // log_mu_; safe under any single stripe mutex.
  void flush_all_logs();

  // Runs `fn(stripe)` for every stripe on up to persist_workers threads of
  // the persistent commit pool (inline when the work is small). Caller
  // holds epoch_mu_ exclusively; fn must not touch epoch_mu_.
  void fan_out(std::size_t total_lines,
               const std::function<void(Stripe&)>& fn);

  // Invokes the pull callback under pull_mu_ (fan-out workers race here).
  std::optional<LineData> pull_one(const PullFn& pull, LineIndex line);

  // Commits the sealed epoch. Caller holds epoch_mu_ exclusively.
  Result<Epoch> commit_sealed_locked();

  // Current device-side view of a line (buffer over PM), no stats. Caller
  // holds s.mu (or owns the stripe via the exclusive epoch lock).
  LineData device_view(Stripe& s, LineIndex line);

  // Reads the pre-image held by the undo entry `token` locates (validating
  // it belongs to `line`).
  LineData undo_preimage(LineIndex line, std::uint64_t token) const;

  // Last-committed-snapshot view of a line (read_committed_line without the
  // locking). Caller holds epoch_mu_ (shared suffices) and s.mu.
  LineData committed_view(Stripe& s, LineIndex line);

  void check_line_in_data_extent(LineIndex line) const;

  pmem::PmemPool* pool_;
  pmem::PmemDevice* pm_;
  DeviceConfig config_;
  std::uint32_t device_id_ = 0;  // process-unique; PaxCheck lock identity

  // Striped data-path state. The vector is immutable after construction.
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::uint64_t stripe_mask_ = 0;

  // Epoch gate: data path shared, epoch transitions exclusive. The fields
  // below it only change under the exclusive side.
  mutable std::shared_mutex epoch_mu_;
  Epoch epoch_;            // epoch being accumulated (not yet committed)
  unsigned active_bank_ = 0;
  Epoch sealed_epoch_ = 0;
  bool has_sealed_ = false;
  CommitHook commit_hook_;

  // Two log banks over the two halves of the pool's log extent (§6
  // overlap); synchronous-only use stays on bank 0. Appends/flushes/resets
  // are serialized by log_mu_; watermark reads are lock-free.
  mutable std::mutex log_mu_;
  std::unique_ptr<UndoLogger> loggers_[2];

  // Serializes PullFn invocations from the commit fan-out.
  std::mutex pull_mu_;

  // Round-robin start cursor for tick()'s proactive write-back.
  std::atomic<std::uint64_t> tick_cursor_{0};

  // Fork-token counter for fan_out's kTaskDispatch/..Join bracketing.
  std::atomic<std::uint64_t> task_token_{0};

  // Persistent worker pool for the commit fan-out (persist_workers - 1
  // parked threads; the committing thread participates). Created lazily on
  // the first fan-out large enough to want workers — always under the
  // exclusive epoch lock, so no further synchronization is needed.
  std::unique_ptr<common::ThreadPool> persist_pool_;

  // Device-wide counters that live outside any stripe.
  std::atomic<std::uint64_t> persists_{0};
  std::atomic<std::uint64_t> persist_pulls_{0};
  std::atomic<std::uint64_t> epoch_seals_{0};
  std::atomic<std::uint64_t> async_commits_{0};
  std::atomic<std::uint64_t> batch_syncs_{0};
  std::atomic<std::uint64_t> batch_synced_lines_{0};
  std::atomic<std::uint64_t> log_append_acquisitions_{0};
  std::atomic<std::uint64_t> sync_deferred_groups_{0};
};

}  // namespace pax::device
