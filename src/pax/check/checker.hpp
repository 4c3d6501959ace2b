// PaxCheck: online persist-order and lock-discipline checking.
//
// A Checker is an opt-in observer attached to a PmemDevice
// (PmemDevice::set_checker). Every instrumented layer — the PM device, the
// undo loggers, the PAX device, and the libpax sync path — emits typed
// events (event.hpp) into a per-thread lock-free SPSC ring; at ordering
// points (drain, log flush, epoch commit, batch outcome, crash) the engine
// drains all rings, totally orders the events by their global sequence
// number, and replays them against two models:
//
//   Persist order —
//     * every line stored to PM is flushed before its epoch commits
//       (kUnflushedLineAtCommit);
//     * an epoch commit is preceded by a drain covering every flush since
//       the previous drain (kCommitWithoutFence);
//     * no write-back of a data line precedes the durability of the undo
//       record that can roll it back (kWritebackBeforeUndoDurable) — the
//       paper's §3.3 gating invariant, checked from the event trace instead
//       of trusted from the implementation;
//     * no tracked line digest advances while the sync_lines batch carrying
//       the line is still in flight (kDigestBeforeBatchOutcome) — a stale
//       digest would make the incremental diff skip a divergent line;
//     * flushes of already-clean lines are counted as a perf diagnostic
//       (redundant_flushes), not a violation: the WAL flush path may
//       legitimately re-flush the line holding the durable boundary.
//
//   Lock discipline — acquisition events from the device's epoch gate,
//     stripe mutexes, log mutex, and the libpax sync mutex are checked
//     against the documented order sync < epoch < stripe < log, at most one
//     stripe at a time, no re-entry, and no host pull while holding a
//     stripe or the log mutex (the deadlock TSan cannot see: it only
//     materializes under rare interleavings, but the order violation is
//     visible on every run).
//
// Ordering soundness: events carry a sequence number from one atomic
// counter. Whenever the real execution orders two conflicting actions (the
// same shard/stripe/log mutex, an atomic watermark publication, the epoch
// gate), the emitting instructions are ordered by the same synchronization,
// so their sequence numbers respect the real order and sorting by seq
// reconstructs a linearization that is faithful per line, per logger, and
// per thread. Events are emitted while the relevant lock is still held.
//
// The checker must outlive all emission: detach it (set_checker(nullptr))
// or destroy the instrumented components before destroying the checker.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pax/check/event.hpp"

namespace pax::check {

enum class Rule : std::uint8_t {
  kUnflushedLineAtCommit,
  kCommitWithoutFence,
  kWritebackBeforeUndoDurable,
  kDigestBeforeBatchOutcome,
  kLockOrderInversion,
  kLockSelfDeadlock,
  kDoubleStripeLock,
  kPullWhileLocked,
  // Epoch pipeline (pipelined persist_async; dormant when no kPipelineSeal
  // events are emitted):
  //   * while runtime-sealed snapshots are outstanding, every kSyncPush must
  //     target a page captured by the OLDEST outstanding snapshot — a push
  //     outside that set means live epoch-(N+1) mutation leaked into the
  //     device sync of sealed epoch N (kSealedEpochMutation);
  //   * device kEpochSeal / kEpochCommit must match the snapshot FIFO head —
  //     commits crossing the drain queue out of order break the §3.3
  //     in-order epoch contract (kPipelineCommitOrder).
  kSealedEpochMutation,
  kPipelineCommitOrder,
};

const char* rule_name(Rule r);

struct CheckerOptions {
  bool persist_order = true;
  bool lock_discipline = true;
  /// Events buffered per thread before the producer hands off early
  /// (rounded up to a power of two).
  std::size_t ring_capacity = 1024;
  /// Findings beyond this are counted but not stored.
  std::size_t max_violations = 64;
  /// Max preceding same-line events shown in a violation backtrace.
  std::size_t history_per_line = 6;
  /// Size of the global recent-event window backtraces are mined from
  /// (rounded up to a power of two). Backtraces older than this window are
  /// lost; per-event cost is one sequential 40-byte write either way.
  std::size_t recent_events = 65536;
  /// Keep a copy of every event the engine processes, retrievable with
  /// recorded_events() — the raw material for .paxevt traces
  /// (trace_file.hpp) and crash-point stream truncation. Unbounded memory
  /// (40 B/event); enable only for harness-sized workloads.
  bool record_events = false;
};

struct Violation {
  Rule rule = Rule::kUnflushedLineAtCommit;
  std::uint64_t line = kNoLine;  // kNoLine when not line-scoped
  std::uint16_t tid = 0;
  std::string detail;
  std::vector<Event> backtrace;  // recent events for the line, oldest first

  std::string to_string() const;
};

struct CheckDiagnostics {
  std::uint64_t redundant_flushes = 0;  // CLWB found nothing pending
  std::uint64_t events = 0;             // events processed by the engine
  std::uint64_t settles = 0;            // engine replay passes
  std::uint64_t suppressed = 0;         // violations beyond max_violations
};

struct Report {
  std::vector<Violation> violations;
  CheckDiagnostics diagnostics;

  bool clean() const { return violations.empty(); }
  /// Number of stored violations of `r`.
  std::size_t count(Rule r) const;
  std::string to_string() const;
};

class Checker;

/// RAII pairing of a real lock with its discipline events: construct right
/// after taking the lock, let it die as the lock is released. Null checker
/// (or a moved-from token) emits nothing.
class LockToken {
 public:
  LockToken() = default;
  LockToken(Checker* checker, LockClass cls, std::uint32_t id, bool shared);
  LockToken(LockToken&& other) noexcept;
  LockToken& operator=(LockToken&& other) noexcept;
  LockToken(const LockToken&) = delete;
  LockToken& operator=(const LockToken&) = delete;
  ~LockToken();

 private:
  Checker* checker_ = nullptr;
  LockClass cls_ = LockClass::kSyncMu;
  std::uint32_t id_ = 0;
};

class Checker {
 public:
  explicit Checker(const CheckerOptions& options = {});
  ~Checker();
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  // --- Emission (any thread; cheap, allocation-free on the fast path) ----
  void on_store(std::uint64_t line);
  void on_flush(std::uint64_t line, bool empty);
  void on_drain();
  void on_crash();
  void on_log_append(std::uint64_t logger, std::uint64_t line,
                     std::uint64_t end);
  void on_log_flush(std::uint64_t logger, std::uint64_t durable);
  void on_log_reset(std::uint64_t logger);
  /// `gate_observed`: the caller checked the logger's durable watermark
  /// (acquire load >= `end`) on this thread before the write-back; recorded
  /// as kFlagGateObserved for the offline happens-before analysis.
  void on_writeback(std::uint64_t line, std::uint64_t logger,
                    std::uint64_t end, bool gate_observed = false);
  /// Fork-join bracketing of a parallel section (one token per section):
  /// dispatch before handing work out, begin/end inside each slice, join
  /// after all slices completed. Offline-analysis material only.
  void on_task_dispatch(std::uint64_t token);
  void on_task_begin(std::uint64_t token);
  void on_task_end(std::uint64_t token);
  void on_task_join(std::uint64_t token);
  void on_epoch_seal(std::uint64_t epoch);
  void on_epoch_commit(std::uint64_t epoch);
  void on_pull_invoke(std::uint64_t line);
  void on_sync_push(std::uint64_t line);
  void on_sync_batch_ok();
  void on_sync_batch_fail();
  void on_digest_apply(std::uint64_t line);
  /// Pipelined persist_async sealed a dirty-set snapshot: one kPipelineSeal
  /// followed by one kPipelinePage per captured page (`page_lines` holds
  /// each page's first pool line).
  void on_pipeline_seal(std::uint64_t epoch,
                        std::span<const std::uint64_t> page_lines);
  void on_lock_acquire(LockClass cls, std::uint32_t id, bool shared);
  void on_lock_release(LockClass cls, std::uint32_t id);

  /// Drains every ring, replays pending events, and snapshots the findings.
  /// Call from a quiesced point; emissions racing this call surface in the
  /// next one.
  Report report();

  /// Feeds pre-recorded events (a decoded .paxevt trace, or a truncated
  /// recorded stream) through the rule engines verbatim — seq and tid are
  /// preserved, and the internal sequence counter is advanced past the
  /// replayed ticket range so live events emitted afterwards (crash,
  /// recovery) order after the trace. Returns the cumulative report.
  Report replay(std::span<const Event> events);

  /// Copy of every event processed so far, in engine order. Populated only
  /// when CheckerOptions::record_events is set; settles first.
  std::vector<Event> recorded_events();

  const CheckerOptions& options() const { return options_; }

 private:
  struct Ring;
  struct LineState;

  void emit(Event e);
  Ring* ring_for_this_thread();
  void drain_ring_locked(Ring* ring);
  void settle_locked();
  void replay_event(const Event& e);
  Report snapshot_report_locked() const;
  void process(const Event& e);
  void process_lock_acquire(const Event& e);
  LineState& line_state(std::uint64_t line);
  LineState* find_line(std::uint64_t line);
  void erase_line(LineState* slot);
  void rehash_lines();
  void add_violation(Rule rule, const Event& e, std::uint64_t dedup_key,
                     std::string detail);

  const CheckerOptions options_;
  const std::uint64_t gen_;  // distinguishes checker instances in TLS
  // Own cache line: every emit RMWs this; keep it off the read-mostly
  // fields above (gen_ is read on the emit fast path).
  alignas(64) std::atomic<std::uint64_t> seq_{0};

  // Thread ring registry; rings are owned here and never removed (a
  // finished thread's ring just stays drained).
  std::mutex rings_mu_;
  std::unordered_map<std::thread::id, Ring*> ring_by_thread_;
  std::vector<std::unique_ptr<Ring>> rings_;

  // Engine state; engine_mu_ serializes draining + replay. Per-line state
  // lives in an open-addressed table of 16-byte slots (one cache-friendly
  // probe per line event, no allocation once warm); a line leaves the table
  // once it is neither pending nor pushed, so the table holds only in-flight
  // lines and stays cache-resident however many lines a run touches. A
  // pending counter means clean epoch commits never scan it; in-flight
  // batch membership is a per-thread line list; backtraces are mined from a
  // global recent-event ring (sequential writes) only when a violation
  // actually fires.
  std::mutex engine_mu_;
  std::vector<LineState> line_slots_;  // power-of-2 open addressing
  std::size_t line_count_ = 0;
  std::uint64_t pending_count_ = 0;  // lines stored but not flushed
  std::vector<std::vector<std::uint64_t>> pushed_by_tid_;
  std::vector<Event> recent_;  // power-of-2 ring of replayed events
  std::uint64_t recent_pos_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> log_durable_;
  // Epoch-pipeline FIFO: runtime-sealed snapshots awaiting their device
  // commit, oldest first. Page keys are pool-line-index >> 6 (pages are
  // line-aligned). Cleared on kCrash like the rest of the in-flight state.
  struct PipelineEpoch {
    std::uint64_t epoch = 0;
    std::set<std::uint64_t> pages;
  };
  std::vector<PipelineEpoch> pipeline_fifo_;
  std::unordered_map<std::uint16_t, std::vector<Event>> lock_stacks_;
  std::uint64_t flushes_since_drain_ = 0;
  std::set<std::pair<std::uint8_t, std::uint64_t>> reported_;
  std::vector<Violation> violations_;
  CheckDiagnostics diag_;
  std::vector<Event> recorded_;  // engine-order copy (record_events only)
};

}  // namespace pax::check
