#include "pax/check/checker.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace pax::check {
namespace {

std::atomic<std::uint64_t> g_checker_gen{0};

// One binding per thread: the ring this thread last emitted into, valid
// while (owner, gen) match. A thread alternating between live checkers just
// re-binds through the registry.
struct TlsSlot {
  const void* owner = nullptr;
  std::uint64_t gen = 0;
  void* ring = nullptr;
};
thread_local TlsSlot t_slot;

std::size_t round_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

std::string describe_lock(LockClass cls, std::uint64_t id) {
  return std::string(lock_class_name(cls)) + " #" + std::to_string(id);
}

const char* event_type_name(EventType t) {
  switch (t) {
    case EventType::kStore: return "STORE";
    case EventType::kFlush: return "FLUSH";
    case EventType::kDrain: return "DRAIN";
    case EventType::kCrash: return "CRASH";
    case EventType::kLogAppend: return "LOG_APPEND";
    case EventType::kLogFlush: return "LOG_FLUSH";
    case EventType::kLogReset: return "LOG_RESET";
    case EventType::kWriteback: return "WRITEBACK";
    case EventType::kEpochSeal: return "EPOCH_SEAL";
    case EventType::kEpochCommit: return "EPOCH_COMMIT";
    case EventType::kPullInvoke: return "PULL";
    case EventType::kSyncPush: return "SYNC_PUSH";
    case EventType::kSyncBatchOk: return "SYNC_BATCH_OK";
    case EventType::kSyncBatchFail: return "SYNC_BATCH_FAIL";
    case EventType::kDigestApply: return "DIGEST_APPLY";
    case EventType::kLockAcquire: return "LOCK_ACQ";
    case EventType::kLockRelease: return "LOCK_REL";
    case EventType::kPipelineSeal: return "PIPE_SEAL";
    case EventType::kPipelinePage: return "PIPE_PAGE";
    case EventType::kTaskDispatch: return "TASK_DISPATCH";
    case EventType::kTaskBegin: return "TASK_BEGIN";
    case EventType::kTaskEnd: return "TASK_END";
    case EventType::kTaskJoin: return "TASK_JOIN";
  }
  return "?";
}

const char* lock_class_name(LockClass c) {
  switch (c) {
    case LockClass::kSyncMu: return "sync-mu";
    case LockClass::kEpochGate: return "epoch-gate";
    case LockClass::kStripe: return "stripe";
    case LockClass::kLogMu: return "log-mu";
  }
  return "?";
}

const char* rule_name(Rule r) {
  switch (r) {
    case Rule::kUnflushedLineAtCommit: return "unflushed-line-at-commit";
    case Rule::kCommitWithoutFence: return "commit-without-fence";
    case Rule::kWritebackBeforeUndoDurable:
      return "writeback-before-undo-durable";
    case Rule::kDigestBeforeBatchOutcome:
      return "digest-before-batch-outcome";
    case Rule::kLockOrderInversion: return "lock-order-inversion";
    case Rule::kLockSelfDeadlock: return "lock-self-deadlock";
    case Rule::kDoubleStripeLock: return "double-stripe-lock";
    case Rule::kPullWhileLocked: return "pull-while-locked";
    case Rule::kSealedEpochMutation: return "sealed-epoch-mutation";
    case Rule::kPipelineCommitOrder: return "pipeline-commit-order";
  }
  return "?";
}

namespace {

std::string event_to_string(const Event& e) {
  char buf[160];
  if (e.line != kNoLine) {
    std::snprintf(buf, sizeof(buf),
                  "#%" PRIu64 " t%u %-13s line=%" PRIu64 " a=%" PRIu64
                  " b=%" PRIu64,
                  e.seq, e.tid, event_type_name(e.type), e.line, e.a, e.b);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "#%" PRIu64 " t%u %-13s a=%" PRIu64 " b=%" PRIu64, e.seq,
                  e.tid, event_type_name(e.type), e.a, e.b);
  }
  return buf;
}

}  // namespace

std::string Violation::to_string() const {
  std::string out = std::string("[") + rule_name(rule) + "] " + detail;
  for (const Event& e : backtrace) {
    out += "\n    " + event_to_string(e);
  }
  return out;
}

std::size_t Report::count(Rule r) const {
  std::size_t n = 0;
  for (const Violation& v : violations) {
    if (v.rule == r) ++n;
  }
  return n;
}

std::string Report::to_string() const {
  std::string out;
  if (violations.empty()) {
    out = "paxcheck: clean";
  } else {
    out = "paxcheck: " + std::to_string(violations.size()) + " violation(s)";
    for (const Violation& v : violations) {
      out += "\n  " + v.to_string();
    }
  }
  out += "\n  diagnostics: " + std::to_string(diagnostics.events) +
         " event(s), " + std::to_string(diagnostics.redundant_flushes) +
         " redundant flush(es), " + std::to_string(diagnostics.settles) +
         " settle(s)";
  if (diagnostics.suppressed > 0) {
    out += ", " + std::to_string(diagnostics.suppressed) + " suppressed";
  }
  return out;
}

// --- Ring ----------------------------------------------------------------

// SPSC: the owning thread produces; the engine (under engine_mu_) consumes.
// Publication is the release store of tail; reuse of a slot is fenced by
// the consumer's release store of head.
struct Checker::Ring {
  explicit Ring(std::size_t cap) : buf(cap), mask(cap - 1) {}
  std::vector<Event> buf;
  const std::uint64_t mask;
  alignas(64) std::atomic<std::uint64_t> head{0};
  alignas(64) std::atomic<std::uint64_t> tail{0};
  // Producer-private snapshot of head: refreshed only when the ring looks
  // full, so the common-case emit never touches the consumer's cache line.
  std::uint64_t cached_head = 0;
  std::uint16_t tid = 0;
  // Drained but not yet replayed (engine_mu_). One producer's FIFO, so it
  // is already in seq order.
  std::vector<Event> backlog;
};

// One open-addressed slot: the key doubles as the empty sentinel; 16 bytes
// keeps the whole table cache-resident for realistic line counts, so the
// per-event state transition is one warm probe and no allocation.
struct Checker::LineState {
  std::uint64_t key = kNoLine;  // kNoLine = empty slot
  bool pending = false;         // stored to PM, not yet flushed
  bool pushed = false;          // in an in-flight sync_lines batch
  std::uint16_t pushed_tid = 0;
};

namespace {
std::size_t line_slot_hash(std::uint64_t line) {
  return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ull) >> 24);
}
}  // namespace

Checker::Checker(const CheckerOptions& options)
    : options_(options), gen_(g_checker_gen.fetch_add(1) + 1) {
  recent_.resize(
      round_pow2(std::max<std::size_t>(options_.recent_events, 1024)));
}

Checker::~Checker() = default;

Checker::Ring* Checker::ring_for_this_thread() {
  if (t_slot.owner == this && t_slot.gen == gen_) {
    return static_cast<Ring*>(t_slot.ring);
  }
  std::lock_guard lock(rings_mu_);
  auto [it, inserted] =
      ring_by_thread_.try_emplace(std::this_thread::get_id(), nullptr);
  if (inserted) {
    auto ring = std::make_unique<Ring>(
        round_pow2(std::max<std::size_t>(options_.ring_capacity, 8)));
    ring->tid = static_cast<std::uint16_t>(rings_.size());
    it->second = ring.get();
    rings_.push_back(std::move(ring));
  }
  t_slot = {this, gen_, it->second};
  return it->second;
}

void Checker::emit(Event e) {
  Ring* ring = ring_for_this_thread();
  e.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  e.tid = ring->tid;

  const std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
  if (tail - ring->cached_head > ring->mask) {
    ring->cached_head = ring->head.load(std::memory_order_acquire);
    if (tail - ring->cached_head > ring->mask) {
      // Full: hand the events to the engine early (drained, not replayed —
      // replay happens only at ordering points, where merging the rings'
      // backlogs by seq restores the global order).
      std::lock_guard lock(engine_mu_);
      drain_ring_locked(ring);
      ring->cached_head = ring->head.load(std::memory_order_relaxed);
    }
  }
  ring->buf[tail & ring->mask] = e;
  ring->tail.store(tail + 1, std::memory_order_release);

  switch (e.type) {
    case EventType::kDrain:
    case EventType::kCrash:
    case EventType::kLogFlush:
    case EventType::kEpochSeal:
    case EventType::kEpochCommit:
    case EventType::kSyncBatchOk:
    case EventType::kSyncBatchFail: {
      // Ordering points: everything that must precede this event is
      // published (the emitters held the same synchronization), so replay.
      std::lock_guard lock(engine_mu_);
      settle_locked();
      break;
    }
    default:
      break;
  }
}

void Checker::drain_ring_locked(Ring* ring) {
  const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = ring->tail.load(std::memory_order_acquire);
  if (head == tail) return;
  // At most two contiguous segments (the ring may wrap once).
  const std::uint64_t lo = head & ring->mask;
  const std::uint64_t hi = tail & ring->mask;
  const Event* buf = ring->buf.data();
  std::vector<Event>& backlog = ring->backlog;
  if (lo < hi || hi == 0) {
    const std::uint64_t end = hi == 0 ? ring->buf.size() : hi;
    backlog.insert(backlog.end(), buf + lo, buf + end);
  } else {
    backlog.insert(backlog.end(), buf + lo, buf + ring->buf.size());
    backlog.insert(backlog.end(), buf, buf + hi);
  }
  ring->head.store(tail, std::memory_order_release);
}

void Checker::settle_locked() {
  std::vector<Ring*> busy;
  {
    std::lock_guard lock(rings_mu_);
    for (auto& ring : rings_) {
      drain_ring_locked(ring.get());
      if (!ring->backlog.empty()) busy.push_back(ring.get());
    }
  }
  // Each backlog is seq-ordered, so a k-way merge over the few producer
  // threads restores the global order without sorting.
  std::vector<std::size_t> next(busy.size(), 0);
  for (;;) {
    Ring* pick = nullptr;
    std::size_t pick_i = 0;
    for (std::size_t i = 0; i < busy.size(); ++i) {
      if (next[i] == busy[i]->backlog.size()) continue;
      if (pick == nullptr ||
          busy[i]->backlog[next[i]].seq < pick->backlog[next[pick_i]].seq) {
        pick = busy[i];
        pick_i = i;
      }
    }
    if (pick == nullptr) break;
    replay_event(pick->backlog[next[pick_i]++]);
  }
  for (Ring* ring : busy) ring->backlog.clear();
  ++diag_.settles;
}

void Checker::replay_event(const Event& e) {
  recent_[recent_pos_++ & (recent_.size() - 1)] = e;
  if (options_.record_events) recorded_.push_back(e);
  process(e);
  ++diag_.events;
}

Checker::LineState& Checker::line_state(std::uint64_t line) {
  if (line_slots_.empty()) line_slots_.resize(1024);
  if ((line_count_ + 1) * 2 > line_slots_.size()) rehash_lines();
  const std::size_t mask = line_slots_.size() - 1;
  std::size_t idx = line_slot_hash(line) & mask;
  while (line_slots_[idx].key != line) {
    if (line_slots_[idx].key == kNoLine) {
      line_slots_[idx].key = line;
      ++line_count_;
      break;
    }
    idx = (idx + 1) & mask;
  }
  return line_slots_[idx];
}

Checker::LineState* Checker::find_line(std::uint64_t line) {
  if (line_slots_.empty()) return nullptr;
  const std::size_t mask = line_slots_.size() - 1;
  std::size_t idx = line_slot_hash(line) & mask;
  while (line_slots_[idx].key != kNoLine) {
    if (line_slots_[idx].key == line) return &line_slots_[idx];
    idx = (idx + 1) & mask;
  }
  return nullptr;
}

void Checker::erase_line(LineState* slot) {
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless its home slot lies cyclically after the hole, so every
  // remaining key stays reachable without tombstones.
  const std::size_t mask = line_slots_.size() - 1;
  std::size_t hole = static_cast<std::size_t>(slot - line_slots_.data());
  for (std::size_t idx = (hole + 1) & mask; line_slots_[idx].key != kNoLine;
       idx = (idx + 1) & mask) {
    const std::size_t home = line_slot_hash(line_slots_[idx].key) & mask;
    if (((idx - home) & mask) >= ((idx - hole) & mask)) {
      line_slots_[hole] = line_slots_[idx];
      hole = idx;
    }
  }
  line_slots_[hole] = LineState{};
  --line_count_;
}

void Checker::rehash_lines() {
  std::vector<LineState> old = std::move(line_slots_);
  line_slots_.assign(old.size() * 2, LineState{});
  const std::size_t mask = line_slots_.size() - 1;
  for (const LineState& ls : old) {
    if (ls.key == kNoLine) continue;
    std::size_t idx = line_slot_hash(ls.key) & mask;
    while (line_slots_[idx].key != kNoLine) idx = (idx + 1) & mask;
    line_slots_[idx] = ls;
  }
}

void Checker::add_violation(Rule rule, const Event& e,
                            std::uint64_t dedup_key, std::string detail) {
  if (!reported_.emplace(static_cast<std::uint8_t>(rule), dedup_key)
           .second) {
    return;
  }
  if (violations_.size() >= options_.max_violations) {
    ++diag_.suppressed;
    return;
  }
  Violation v;
  v.rule = rule;
  v.line = e.line;
  v.tid = e.tid;
  v.detail = std::move(detail);
  // Mine the recent-event window for the line's preceding events — paid
  // only when a violation actually fires.
  if (e.line != kNoLine && options_.history_per_line > 0) {
    const std::uint64_t mask = recent_.size() - 1;
    const std::uint64_t span =
        std::min<std::uint64_t>(recent_pos_, recent_.size());
    std::vector<Event> newest_first;
    for (std::uint64_t i = 0;
         i < span && newest_first.size() < options_.history_per_line; ++i) {
      const Event& r = recent_[(recent_pos_ - 1 - i) & mask];
      if (r.line == e.line && r.seq != e.seq) newest_first.push_back(r);
    }
    v.backtrace.assign(newest_first.rbegin(), newest_first.rend());
  }
  v.backtrace.push_back(e);
  violations_.push_back(std::move(v));
}

void Checker::process_lock_acquire(const Event& e) {
  auto& stack = lock_stacks_[e.tid];
  const auto cls = static_cast<LockClass>(e.a);
  const std::uint64_t key = (static_cast<std::uint64_t>(e.tid) << 32) ^
                            (e.a << 16) ^ (e.b & 0xffff);
  for (const Event& held : stack) {
    const auto held_cls = static_cast<LockClass>(held.a);
    if (held_cls == cls && held.b == e.b) {
      add_violation(Rule::kLockSelfDeadlock, e, key,
                    describe_lock(cls, e.b) + " re-acquired while " +
                        describe_lock(held_cls, held.b) +
                        " (seq " + std::to_string(held.seq) +
                        ") is still held by the same thread");
    } else if (held_cls == cls && cls == LockClass::kStripe) {
      add_violation(Rule::kDoubleStripeLock, e, key,
                    describe_lock(cls, e.b) + " acquired while " +
                        describe_lock(held_cls, held.b) +
                        " is held (at most one stripe at a time)");
    } else if (static_cast<int>(held_cls) > static_cast<int>(cls)) {
      add_violation(Rule::kLockOrderInversion, e, key,
                    describe_lock(cls, e.b) + " acquired while holding " +
                        describe_lock(held_cls, held.b) +
                        " (required order: sync-mu < epoch-gate < stripe "
                        "< log-mu)");
    }
  }
  stack.push_back(e);
}

void Checker::process(const Event& e) {
  switch (e.type) {
    case EventType::kStore: {
      if (!options_.persist_order) break;
      LineState& ls = line_state(e.line);
      if (!ls.pending) {
        ls.pending = true;
        ++pending_count_;
      }
      break;
    }
    case EventType::kFlush: {
      if (!options_.persist_order) break;
      if (e.flags & kFlagEmptyFlush) {
        ++diag_.redundant_flushes;
      } else {
        ++flushes_since_drain_;
      }
      if (LineState* ls = find_line(e.line); ls != nullptr && ls->pending) {
        ls->pending = false;
        --pending_count_;
        if (!ls->pushed) erase_line(ls);
      }
      break;
    }
    case EventType::kDrain:
      flushes_since_drain_ = 0;
      break;
    case EventType::kCrash:
      // Power loss resolves the pending overlay; in-flight sync state and
      // log watermarks restart from scratch with the next attach.
      std::fill(line_slots_.begin(), line_slots_.end(), LineState{});
      line_count_ = 0;
      for (auto& pushed : pushed_by_tid_) pushed.clear();
      pending_count_ = 0;
      flushes_since_drain_ = 0;
      log_durable_.clear();
      pipeline_fifo_.clear();
      break;
    case EventType::kLogAppend:
      break;
    case EventType::kLogFlush:
      log_durable_[e.a] = e.b;
      break;
    case EventType::kLogReset:
      log_durable_[e.a] = 0;
      break;
    case EventType::kWriteback: {
      if (!options_.persist_order) break;
      const auto it = log_durable_.find(e.a);
      const std::uint64_t durable =
          it == log_durable_.end() ? 0 : it->second;
      if (e.b > durable) {
        add_violation(
            Rule::kWritebackBeforeUndoDurable, e, e.line,
            "line " + std::to_string(e.line) +
                " written back while its undo record (end " +
                std::to_string(e.b) + ") is beyond logger " +
                std::to_string(e.a) + "'s durable watermark " +
                std::to_string(durable));
      }
      break;
    }
    case EventType::kEpochSeal: {
      if (!options_.persist_order) break;
      if (!pipeline_fifo_.empty() && pipeline_fifo_.front().epoch != e.a) {
        add_violation(Rule::kPipelineCommitOrder, e, e.a,
                      "device sealed epoch " + std::to_string(e.a) +
                          " while pipeline snapshot for epoch " +
                          std::to_string(pipeline_fifo_.front().epoch) +
                          " is at the head of the drain queue");
      }
      break;
    }
    case EventType::kEpochCommit: {
      if (!options_.persist_order) break;
      if (!pipeline_fifo_.empty()) {
        if (pipeline_fifo_.front().epoch == e.a) {
          pipeline_fifo_.erase(pipeline_fifo_.begin());
        } else {
          add_violation(Rule::kPipelineCommitOrder, e, e.a,
                        "epoch " + std::to_string(e.a) +
                            " committed while pipeline snapshot for epoch " +
                            std::to_string(pipeline_fifo_.front().epoch) +
                            " is at the head of the drain queue");
        }
      }
      if (pending_count_ > 0) {  // clean commits never scan the table
        std::vector<std::uint64_t> pending;
        pending.reserve(pending_count_);
        for (const LineState& ls : line_slots_) {
          if (ls.key != kNoLine && ls.pending) pending.push_back(ls.key);
        }
        std::sort(pending.begin(), pending.end());
        for (std::uint64_t line : pending) {
          Event scoped = e;
          scoped.line = line;
          add_violation(Rule::kUnflushedLineAtCommit, scoped, line,
                        "line " + std::to_string(line) +
                            " stored but not flushed when epoch " +
                            std::to_string(e.a) + " committed");
        }
      }
      if (flushes_since_drain_ > 0) {
        add_violation(Rule::kCommitWithoutFence, e, e.a,
                      std::to_string(flushes_since_drain_) +
                          " flush(es) not covered by a drain when epoch " +
                          std::to_string(e.a) + " committed");
      }
      break;
    }
    case EventType::kPullInvoke: {
      if (!options_.lock_discipline) break;
      const auto it = lock_stacks_.find(e.tid);
      if (it == lock_stacks_.end()) break;
      for (const Event& held : it->second) {
        const auto held_cls = static_cast<LockClass>(held.a);
        if (held_cls == LockClass::kStripe ||
            held_cls == LockClass::kLogMu) {
          add_violation(Rule::kPullWhileLocked, e, e.tid,
                        "host pull invoked while holding " +
                            describe_lock(held_cls, held.b) +
                            " — the pull may block on a thread waiting "
                            "for that lock");
          break;
        }
      }
      break;
    }
    case EventType::kSyncPush: {
      if (!options_.persist_order) break;
      // While snapshots are outstanding, the drain worker is the only sync
      // producer and must push only the head snapshot's pages — anything
      // else is live next-epoch mutation bleeding into the sealed epoch.
      if (!pipeline_fifo_.empty() &&
          pipeline_fifo_.front().pages.count(e.line >> 6) == 0) {
        add_violation(Rule::kSealedEpochMutation, e, e.line,
                      "line " + std::to_string(e.line) +
                          " pushed while sealed epoch " +
                          std::to_string(pipeline_fifo_.front().epoch) +
                          "'s snapshot (which does not cover it) heads the "
                          "drain queue");
      }
      LineState& ls = line_state(e.line);
      ls.pushed = true;
      ls.pushed_tid = e.tid;
      if (pushed_by_tid_.size() <= e.tid) pushed_by_tid_.resize(e.tid + 1);
      pushed_by_tid_[e.tid].push_back(e.line);
      break;
    }
    case EventType::kSyncBatchOk:
    case EventType::kSyncBatchFail: {
      if (!options_.persist_order) break;
      if (e.tid < pushed_by_tid_.size()) {
        for (std::uint64_t line : pushed_by_tid_[e.tid]) {
          // A later re-push by another thread owns the line now: leave it.
          if (LineState* ls = find_line(line);
              ls != nullptr && ls->pushed && ls->pushed_tid == e.tid) {
            ls->pushed = false;
            if (!ls->pending) erase_line(ls);
          }
        }
        pushed_by_tid_[e.tid].clear();
      }
      break;
    }
    case EventType::kDigestApply: {
      if (!options_.persist_order) break;
      if (const LineState* ls = find_line(e.line);
          ls != nullptr && ls->pushed) {
        add_violation(Rule::kDigestBeforeBatchOutcome, e, e.line,
                      "digest for line " + std::to_string(e.line) +
                          " applied while its sync_lines batch is still "
                          "in flight");
      }
      break;
    }
    case EventType::kPipelineSeal: {
      if (!options_.persist_order) break;
      pipeline_fifo_.push_back({e.a, {}});
      break;
    }
    case EventType::kPipelinePage: {
      if (!options_.persist_order) break;
      // Pages arrive right after their seal event; match from the back.
      for (auto it = pipeline_fifo_.rbegin(); it != pipeline_fifo_.rend();
           ++it) {
        if (it->epoch == e.a) {
          it->pages.insert(e.line >> 6);
          break;
        }
      }
      break;
    }
    case EventType::kLockAcquire:
      if (options_.lock_discipline) process_lock_acquire(e);
      break;
    case EventType::kLockRelease: {
      if (!options_.lock_discipline) break;
      auto& stack = lock_stacks_[e.tid];
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->a == e.a && it->b == e.b) {
          stack.erase(std::next(it).base());
          break;
        }
      }
      break;
    }
    case EventType::kTaskDispatch:
    case EventType::kTaskBegin:
    case EventType::kTaskEnd:
    case EventType::kTaskJoin:
      // Fork-join bracketing is offline material: the happens-before
      // analysis (analyze.hpp) consumes it; no online rule does.
      break;
  }
}

Report Checker::snapshot_report_locked() const {
  Report r;
  r.violations = violations_;
  r.diagnostics = diag_;
  return r;
}

Report Checker::report() {
  std::lock_guard lock(engine_mu_);
  settle_locked();
  return snapshot_report_locked();
}

Report Checker::replay(std::span<const Event> events) {
  std::lock_guard lock(engine_mu_);
  // Anything already emitted live settles first, then the trace is
  // replayed verbatim (no re-ticketing) in its recorded seq order.
  settle_locked();
  std::vector<Event> sorted(events.begin(), events.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& a, const Event& b) { return a.seq < b.seq; });
  std::uint64_t max_seq = seq_.load(std::memory_order_relaxed);
  for (const Event& e : sorted) {
    replay_event(e);
    max_seq = std::max(max_seq, e.seq);
  }
  ++diag_.settles;
  // Live events emitted after the replay must order after the trace.
  seq_.store(max_seq, std::memory_order_relaxed);
  return snapshot_report_locked();
}

std::vector<Event> Checker::recorded_events() {
  std::lock_guard lock(engine_mu_);
  settle_locked();
  return recorded_;
}

// --- Emission helpers ----------------------------------------------------

void Checker::on_store(std::uint64_t line) {
  Event e;
  e.type = EventType::kStore;
  e.line = line;
  emit(e);
}

void Checker::on_flush(std::uint64_t line, bool empty) {
  Event e;
  e.type = EventType::kFlush;
  e.line = line;
  if (empty) e.flags |= kFlagEmptyFlush;
  emit(e);
}

void Checker::on_drain() {
  Event e;
  e.type = EventType::kDrain;
  emit(e);
}

void Checker::on_crash() {
  Event e;
  e.type = EventType::kCrash;
  emit(e);
}

void Checker::on_log_append(std::uint64_t logger, std::uint64_t line,
                            std::uint64_t end) {
  Event e;
  e.type = EventType::kLogAppend;
  e.line = line;
  e.a = logger;
  e.b = end;
  emit(e);
}

void Checker::on_log_flush(std::uint64_t logger, std::uint64_t durable) {
  Event e;
  e.type = EventType::kLogFlush;
  e.a = logger;
  e.b = durable;
  emit(e);
}

void Checker::on_log_reset(std::uint64_t logger) {
  Event e;
  e.type = EventType::kLogReset;
  e.a = logger;
  emit(e);
}

void Checker::on_writeback(std::uint64_t line, std::uint64_t logger,
                           std::uint64_t end, bool gate_observed) {
  Event e;
  e.type = EventType::kWriteback;
  e.line = line;
  e.a = logger;
  e.b = end;
  if (gate_observed) e.flags |= kFlagGateObserved;
  emit(e);
}

void Checker::on_task_dispatch(std::uint64_t token) {
  Event e;
  e.type = EventType::kTaskDispatch;
  e.a = token;
  emit(e);
}

void Checker::on_task_begin(std::uint64_t token) {
  Event e;
  e.type = EventType::kTaskBegin;
  e.a = token;
  emit(e);
}

void Checker::on_task_end(std::uint64_t token) {
  Event e;
  e.type = EventType::kTaskEnd;
  e.a = token;
  emit(e);
}

void Checker::on_task_join(std::uint64_t token) {
  Event e;
  e.type = EventType::kTaskJoin;
  e.a = token;
  emit(e);
}

void Checker::on_epoch_seal(std::uint64_t epoch) {
  Event e;
  e.type = EventType::kEpochSeal;
  e.a = epoch;
  emit(e);
}

void Checker::on_epoch_commit(std::uint64_t epoch) {
  Event e;
  e.type = EventType::kEpochCommit;
  e.a = epoch;
  emit(e);
}

void Checker::on_pull_invoke(std::uint64_t line) {
  Event e;
  e.type = EventType::kPullInvoke;
  e.line = line;
  emit(e);
}

void Checker::on_sync_push(std::uint64_t line) {
  Event e;
  e.type = EventType::kSyncPush;
  e.line = line;
  emit(e);
}

void Checker::on_sync_batch_ok() {
  Event e;
  e.type = EventType::kSyncBatchOk;
  emit(e);
}

void Checker::on_sync_batch_fail() {
  Event e;
  e.type = EventType::kSyncBatchFail;
  emit(e);
}

void Checker::on_digest_apply(std::uint64_t line) {
  Event e;
  e.type = EventType::kDigestApply;
  e.line = line;
  emit(e);
}

void Checker::on_pipeline_seal(std::uint64_t epoch,
                               std::span<const std::uint64_t> page_lines) {
  Event seal;
  seal.type = EventType::kPipelineSeal;
  seal.a = epoch;
  seal.b = page_lines.size();
  emit(seal);
  for (std::uint64_t line : page_lines) {
    Event page;
    page.type = EventType::kPipelinePage;
    page.line = line;
    page.a = epoch;
    emit(page);
  }
}

void Checker::on_lock_acquire(LockClass cls, std::uint32_t id, bool shared) {
  Event e;
  e.type = EventType::kLockAcquire;
  e.a = static_cast<std::uint64_t>(cls);
  e.b = id;
  if (shared) e.flags |= kFlagSharedLock;
  emit(e);
}

void Checker::on_lock_release(LockClass cls, std::uint32_t id) {
  Event e;
  e.type = EventType::kLockRelease;
  e.a = static_cast<std::uint64_t>(cls);
  e.b = id;
  emit(e);
}

// --- LockToken -----------------------------------------------------------

LockToken::LockToken(Checker* checker, LockClass cls, std::uint32_t id,
                     bool shared)
    : checker_(checker), cls_(cls), id_(id) {
  if (checker_ != nullptr) checker_->on_lock_acquire(cls_, id_, shared);
}

LockToken::LockToken(LockToken&& other) noexcept
    : checker_(other.checker_), cls_(other.cls_), id_(other.id_) {
  other.checker_ = nullptr;
}

LockToken& LockToken::operator=(LockToken&& other) noexcept {
  if (this != &other) {
    if (checker_ != nullptr) checker_->on_lock_release(cls_, id_);
    checker_ = other.checker_;
    cls_ = other.cls_;
    id_ = other.id_;
    other.checker_ = nullptr;
  }
  return *this;
}

LockToken::~LockToken() {
  if (checker_ != nullptr) checker_->on_lock_release(cls_, id_);
}

}  // namespace pax::check
