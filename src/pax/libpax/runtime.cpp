#include "pax/libpax/runtime.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_map>

#include "pax/common/check.hpp"
#include "pax/common/crc.hpp"
#include "pax/common/log.hpp"

namespace pax::libpax {

RuntimeOptions RuntimeOptions::deterministic(RuntimeOptions base) {
  base.start_flusher_thread = false;
  base.device.persist_workers = 1;
  return base;
}

namespace {

// Per-device remembered vPM base, so reopening a pool maps the region at the
// same address and recovered raw pointers stay valid (within one process;
// across processes the global fixed hint does the same job).
std::mutex g_base_mu;
std::unordered_map<const pmem::PmemDevice*, std::uintptr_t>& base_registry() {
  static std::unordered_map<const pmem::PmemDevice*, std::uintptr_t> reg;
  return reg;
}

// Reads one cache line as relaxed atomic 64-bit word loads. The
// mutator-vs-flusher diff race is benign by contract (§3.5): the diff runs
// on pages already taken and re-armed (VpmRegion::take_written), so a store
// racing this capture lands after the re-arm and the page is taken again
// by a later diff before it can be committed. The loads are genuinely
// atomic rather than raw loads under a TSan exemption, which makes the race
// defined behavior on both sides — concurrent mutators that may overlap a
// live diff must pair with atomic word stores (tests use relaxed word
// fills) — and lets the TSan job run with zero suppressions. Relaxed word
// loads compile to plain movs on x86-64.
LineData capture_line(const std::byte* src) {
  constexpr std::size_t kWords = kCacheLineSize / sizeof(std::uint64_t);
  std::uint64_t words[kWords];
  const auto* in = reinterpret_cast<const std::uint64_t*>(src);
  for (std::size_t i = 0; i < kWords; ++i) {
    words[i] = __atomic_load_n(&in[i], __ATOMIC_RELAXED);
  }
  LineData out;
  std::memcpy(out.bytes.data(), words, kCacheLineSize);  // locals: race-free
  return out;
}

constexpr std::uint64_t kAllLines = ~std::uint64_t{0};
static_assert(kLinesPerPage == 64, "line masks assume 64 lines per page");

std::array<std::uint32_t, kLinesPerPage> line_crcs(
    const std::array<LineData, kLinesPerPage>& lines) {
  std::array<std::uint32_t, kLinesPerPage> crc;
  for (std::size_t l = 0; l < kLinesPerPage; ++l) {
    crc[l] = crc32c(lines[l].bytes.data(), kCacheLineSize);
  }
  return crc;
}

}  // namespace

Result<std::unique_ptr<PaxRuntime>> PaxRuntime::map_pool(
    const std::string& path, std::size_t pool_size,
    const RuntimeOptions& options) {
  auto pm = pmem::PmemDevice::open_file(path, pool_size, /*create=*/true);
  if (!pm.ok()) return pm.status();
  auto owned = std::move(pm).value();
  pmem::PmemDevice* raw = owned.get();
  return build(std::move(owned), raw, options);
}

Result<std::unique_ptr<PaxRuntime>> PaxRuntime::create_in_memory(
    std::size_t pool_size, const RuntimeOptions& options) {
  auto owned = pmem::PmemDevice::create_in_memory(pool_size);
  pmem::PmemDevice* raw = owned.get();
  return build(std::move(owned), raw, options);
}

Result<std::unique_ptr<PaxRuntime>> PaxRuntime::attach(
    pmem::PmemDevice* pm, const RuntimeOptions& options) {
  return build(nullptr, pm, options);
}

Result<std::unique_ptr<PaxRuntime>> PaxRuntime::build(
    std::unique_ptr<pmem::PmemDevice> owned_pm, pmem::PmemDevice* pm,
    const RuntimeOptions& options) {
  if (options.log_size % kPageSize != 0) {
    return invalid_argument("log_size must be page-aligned");
  }
  if (pm->size() % kPageSize != 0) {
    return invalid_argument("pool size must be page-aligned");
  }
  if (options.device.stripes == 0) {
    return invalid_argument("device.stripes must be >= 1");
  }
  if (options.device.persist_workers == 0) {
    return invalid_argument("device.persist_workers must be >= 1");
  }

  auto rt = std::unique_ptr<PaxRuntime>(new PaxRuntime());
  rt->owned_pm_ = std::move(owned_pm);
  rt->pm_ = pm;

  // Open the pool; a never-formatted device (magic == 0) is formatted.
  if (pm->load_u64(0) == 0) {
    auto created = pmem::PmemPool::create(pm, options.log_size);
    if (!created.ok()) return created.status();
    rt->pool_ = created.value();
  } else {
    auto opened = pmem::PmemPool::open(pm);
    if (!opened.ok()) return opened.status();
    rt->pool_ = opened.value();
  }

  // Roll back any interrupted epoch before anything touches the data (§3.4).
  auto report = device::recover_pool(*rt->pool_);
  if (!report.ok()) return report.status();
  rt->recovery_report_ = report.value();

  rt->device_ =
      std::make_unique<device::PaxDevice>(&*rt->pool_, options.device);

  // Map the vPM region: an explicit hint wins (replication failover),
  // otherwise reuse the base any earlier mapping of this device had.
  std::uintptr_t hint = options.vpm_base_hint;
  if (hint == 0) {
    std::lock_guard lock(g_base_mu);
    auto it = base_registry().find(pm);
    if (it != base_registry().end()) hint = it->second;
  }
  const std::size_t region_size = rt->pool_->data_size() & ~(kPageSize - 1);
  auto region = VpmRegion::create(region_size, hint, /*track_lines=*/true);
  if (!region.ok()) return region.status();
  rt->region_ = std::move(region).value();
  {
    std::lock_guard lock(g_base_mu);
    base_registry()[pm] =
        reinterpret_cast<std::uintptr_t>(rt->region_->base());
  }

  // Seed the region from the recovered PM image.
  pm->load(rt->pool_->data_offset(),
           {rt->region_->base(), rt->region_->size()});

  // Arm write tracking *before* the heap constructor so a fresh heap's
  // format writes are captured like any application store.
  PAX_RETURN_IF_ERROR(rt->region_->protect_all());

  rt->heap_ =
      std::make_unique<PaxHeap>(rt->region_->base(), rt->region_->size());
  register_heap(rt->region_->base(), rt->heap_.get());

  rt->pipeline_depth_ = options.pipeline_depth;
  if (rt->pipeline_depth_ > 0) {
    // The pipeline numbers epochs itself (drain_one checks the device
    // agrees); both cursors start at the recovered commit point.
    rt->pipe_committed_ = rt->pool_->committed_epoch();
    rt->pipe_next_epoch_ = rt->pipe_committed_ + 1;
    rt->drain_thread_ =
        std::thread([rt_ptr = rt.get()] { rt_ptr->drain_worker_loop(); });
  }

  if (options.start_flusher_thread) {
    rt->flusher_ = std::thread([rt_ptr = rt.get(),
                                interval = options.flusher_interval] {
      std::unique_lock lock(rt_ptr->flusher_mu_);
      while (!rt_ptr->stop_flusher_.load(std::memory_order_acquire)) {
        lock.unlock();
        rt_ptr->sync_step();
        lock.lock();
        // Interruptible interval: the destructor flips stop_flusher_ and
        // notifies, so teardown waits one sync_step at most, not a full
        // sleep_for(interval).
        rt_ptr->flusher_cv_.wait_for(lock, interval, [rt_ptr] {
          return rt_ptr->stop_flusher_.load(std::memory_order_acquire);
        });
      }
    });
  }

  PAX_LOG_INFO("pool mapped: epoch=%llu, vPM %zu bytes at %p%s",
               static_cast<unsigned long long>(rt->pool_->committed_epoch()),
               rt->region_->size(), static_cast<void*>(rt->region_->base()),
               rt->heap_->recovered() ? " (heap recovered)" : " (heap fresh)");
  return rt;
}

PaxRuntime::~PaxRuntime() {
  if (flusher_.joinable()) {
    {
      std::lock_guard lock(flusher_mu_);
      stop_flusher_.store(true, std::memory_order_release);
    }
    flusher_cv_.notify_all();
    flusher_.join();
  }
  if (drain_thread_.joinable()) {
    {
      std::lock_guard lock(pipe_mu_);
      stop_drain_ = true;
    }
    pipe_work_cv_.notify_all();
    drain_thread_.join();
  }
  if (region_) unregister_heap(region_->base());
  // Deliberately no flush/persist: destruction without persist() behaves
  // like a crash, which is what the snapshot contract promises — queued
  // pipeline snapshots whose drain never ran are discarded the same way.
}

Status PaxRuntime::sync_pages(const std::vector<PageIndex>& pages) {
  struct PendingDigest {
    PageIndex page;
    std::size_t line;
    std::uint32_t crc;
  };
  std::vector<PendingDigest> pending;
  std::vector<PageIndex> seeded;
  SyncBatch batch(stats_, sync_stats_);
  auto* chk = pm_->checker();
  PageLines cur;

  for (PageIndex page : pages) {
    const std::byte* page_bytes = region_->page_span(page).data();
    for (std::size_t l = 0; l < kLinesPerPage; ++l) {
      cur[l] = capture_line(page_bytes + l * kCacheLineSize);
    }
    const PageCrcs crc = line_crcs(cur);
    const std::uint64_t want = lines_to_compare(page, crc);
    auto pushed = diff_page(batch, page, cur, want);
    if (!pushed.ok()) return pushed.status();
    for (std::size_t l = 0; l < kLinesPerPage; ++l) {
      if (((want >> l) & 1) == 0) continue;
      if ((pushed.value() >> l) & 1) {
        pending.push_back({page, l, crc[l]});
        continue;
      }
      // Unchanged (or rewritten with the same value): the device already
      // holds cur, so the digest can advance immediately.
      region_->set_line_digest(page, l, crc[l]);
      if (chk != nullptr) {
        chk->on_digest_apply(region_line_to_pool_line(page, l).value);
      }
    }
    if (!region_->line_digests_valid(page)) {
      seeded.push_back(page);
      ++sync_stats_.digest_rebuilds;
    }
  }
  PAX_RETURN_IF_ERROR(flush(batch));

  // Every batch carrying a pending line has succeeded. A failure above
  // leaves the digests describing what the device actually holds, so a
  // retry re-examines the affected lines instead of skipping them.
  for (const PendingDigest& pd : pending) {
    region_->set_line_digest(pd.page, pd.line, pd.crc);
    if (chk != nullptr) {
      chk->on_digest_apply(region_line_to_pool_line(pd.page, pd.line).value);
    }
  }
  for (PageIndex page : seeded) region_->mark_line_digests_valid(page);
  return Status::ok();
}

std::uint64_t PaxRuntime::lines_to_compare(PageIndex page,
                                           const PageCrcs& crc) const {
  if (!region_->line_digests_valid(page)) return kAllLines;
  std::uint64_t mismatched = 0;
  for (std::size_t l = 0; l < kLinesPerPage; ++l) {
    if (crc[l] != region_->line_digest(page, l)) {
      mismatched |= std::uint64_t{1} << l;
    }
  }
  // A written page whose single changed line collides with its digest is
  // still compared.
  return mismatched != 0 ? mismatched : kAllLines;
}

Result<std::uint64_t> PaxRuntime::diff_page(SyncBatch& batch, PageIndex page,
                                            const PageLines& cur,
                                            std::uint64_t want) {
  ++batch.stats.pages_diffed;
  ++batch.sync.pages_scanned;
  const std::uint64_t first = region_line_to_pool_line(page, 0).value;
  std::size_t n = 0;
  for (std::size_t l = 0; l < kLinesPerPage; ++l) {
    if ((want >> l) & 1) batch.compared[n++] = LineIndex{first + l};
  }
  batch.sync.lines_skipped += kLinesPerPage - n;
  ++batch.stats.device_calls;
  device_->peek_lines(std::span(batch.compared.data(), n),
                      std::span(batch.shadow.data(), n));
  auto* chk = pm_->checker();
  std::uint64_t pushed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ++batch.sync.lines_diffed;
    const LineIndex pool_line = batch.compared[i];
    const std::size_t l = pool_line.value - first;
    if (cur[l] == batch.shadow[i]) continue;
    ++batch.stats.lines_dirty_found;
    ++batch.sync.lines_synced;
    if (chk != nullptr) chk->on_sync_push(pool_line.value);
    batch.lines.push_back({pool_line, cur[l]});
    pushed |= std::uint64_t{1} << l;
    if (batch.lines.size() >= RuntimeOptions::sync_batch_lines) {
      PAX_RETURN_IF_ERROR(flush(batch));
    }
  }
  return pushed;
}

Status PaxRuntime::flush(SyncBatch& batch) {
  if (batch.lines.empty()) return Status::ok();
  ++batch.stats.device_calls;
  ++batch.stats.sync_batches;
  const Status st = device_->sync_lines(batch.lines);
  batch.lines.clear();
  if (auto* chk = pm_->checker()) {
    if (st.is_ok()) {
      chk->on_sync_batch_ok();
    } else {
      chk->on_sync_batch_fail();
    }
  }
  return st;
}

void PaxRuntime::sync_step() {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  ++stats_.sync_steps;
  if (pipeline_depth_ > 0) {
    // While snapshots are outstanding the drain worker owns the device
    // epoch path: syncing the live (N+1) dirty pages here would push their
    // content into the device before epoch N seals. New snapshots can't be
    // enqueued while we hold sync_mu_, so this check can't go stale.
    std::lock_guard plock(pipe_mu_);
    if (!pipe_queue_.empty() || pipe_inflight_) return;
  }
  // The take re-arms what it hands out, so a store racing this diff is
  // taken again by the next sync_step or persist (vpm_region.hpp).
  Status s = take_and_sync();
  if (!s.is_ok()) {
    PAX_LOG_WARN("background sync: %s", s.to_string().c_str());
    return;
  }
  device_->tick();
  // Complete a pending non-blocking persist off the application's path.
  if (device_->has_sealed_epoch()) {
    auto committed = device_->commit_sealed();
    if (!committed.ok()) {
      PAX_LOG_WARN("async commit: %s",
                   committed.status().to_string().c_str());
    }
  }
}

Result<Epoch> PaxRuntime::persist_async() {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  if (pipeline_depth_ > 0) return persist_async_pipelined();
  if (device_->has_sealed_epoch()) {
    // Epochs commit in order: finish the previous one first.
    auto committed = device_->commit_sealed();
    if (!committed.ok()) return committed.status();
  }

  PAX_RETURN_IF_ERROR(take_and_sync());
  return device_->seal_epoch(region_pull());
}

Result<Epoch> PaxRuntime::complete_persist() {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  if (pipeline_depth_ > 0) {
    Epoch target = 0;
    {
      std::lock_guard plock(pipe_mu_);
      if (pipe_queue_.empty() && !pipe_inflight_) {
        if (!pipe_error_.is_ok()) return pipe_error_;
        return pool_->committed_epoch();
      }
      // Epochs commit in order, so the queue head is always the successor
      // of the last pipeline commit.
      target = pipe_committed_ + 1;
    }
    return wait_for_pipeline_epoch(target);
  }
  return device_->commit_sealed();
}

Result<Epoch> PaxRuntime::wait_persisted(Epoch epoch) {
  if (pipeline_depth_ > 0) {
    // pipe_mu_ only: waiting must not exclude other shards' persist_async
    // issuers (or the drain worker) from making progress.
    return wait_for_pipeline_epoch(epoch);
  }
  if (committed_epoch() >= epoch) return epoch;
  auto committed = complete_persist();
  if (!committed.ok()) return committed.status();
  if (committed.value() < epoch) {
    return failed_precondition("wait_persisted: epoch was never sealed");
  }
  return epoch;
}

Result<Epoch> PaxRuntime::persist() {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  ++stats_.persists;
  if (pipeline_depth_ > 0) {
    auto sealed = persist_async_pipelined();
    if (!sealed.ok()) return sealed.status();
    return wait_for_pipeline_epoch(sealed.value());
  }

  PAX_RETURN_IF_ERROR(take_and_sync());
  return device_->persist(region_pull());
}

Status PaxRuntime::take_and_sync() {
  // Taking re-arms the pages before the diff reads them: the ownership-
  // revocation half of the RdShared analogy, done up front.
  auto taken = region_->take_written();
  if (!taken.ok()) return taken.status();
  const Status st = sync_pages(taken.value());
  if (!st.is_ok()) {
    // Un-protecting puts the pages back into the written set, so a retry
    // diffs them again.
    const Status back = region_->put_back(taken.value());
    if (!back.is_ok()) PAX_LOG_WARN("put back: %s", back.to_string().c_str());
  }
  return st;
}

device::PaxDevice::PullFn PaxRuntime::region_pull() const {
  // Hands the device the region's (authoritative) current line.
  return [this](LineIndex line) -> std::optional<LineData> {
    const PoolOffset off = line.byte_offset() - pool_->data_offset();
    return LineData::from_bytes({region_->base() + off, kCacheLineSize});
  };
}

Result<Epoch> PaxRuntime::persist_async_pipelined() {
  {
    std::unique_lock plock(pipe_mu_);
    if (!pipe_error_.is_ok()) return pipe_error_;
    if (pipe_queue_.size() + (pipe_inflight_ ? 1 : 0) >= pipeline_depth_) {
      ++pipe_stats_.backpressure_waits;
      pipe_cv_.wait(plock, [this] {
        return !pipe_error_.is_ok() ||
               pipe_queue_.size() + (pipe_inflight_ ? 1 : 0) <
                   pipeline_depth_;
      });
      if (!pipe_error_.is_ok()) return pipe_error_;
    }
  }

  // Take the written set (re-arming it) and copy it into the sealed-epoch
  // snapshot. The §3.5 quiescence contract holds for the duration of this
  // call, so plain copies are race-free; mutation of the next epoch resumes
  // once we return.
  //
  // Digests advance to the snapshot here, not after the drain: the device
  // WILL hold the snapshot once the job commits, and the next epoch's
  // want-computation must compare against it — deferring would let a line
  // rewritten to its pre-snapshot value slip past the digest check. A
  // failed drain invalidates the affected pages' digests wholesale instead.
  // No kDigestApply events are emitted: that rule models the single-
  // buffered path, where a digest may not outrun its in-flight batch.
  auto taken = region_->take_written();
  if (!taken.ok()) return taken.status();
  const std::vector<PageIndex>& dirty = taken.value();
  PipelineJob job;
  job.pages.reserve(dirty.size());
  std::vector<std::uint64_t> page_lines;
  page_lines.reserve(dirty.size());
  for (PageIndex page : dirty) {
    PipelinePageSnap snap;
    snap.page = page;
    snap.lines = std::make_unique<PageLines>();
    std::memcpy(snap.lines->data(), region_->page_span(page).data(),
                kPageSize);
    const PageCrcs crc = line_crcs(*snap.lines);
    snap.want = lines_to_compare(page, crc);
    for (std::size_t l = 0; l < kLinesPerPage; ++l) {
      region_->set_line_digest(page, l, crc[l]);
    }
    if (!region_->line_digests_valid(page)) {
      region_->mark_line_digests_valid(page);
      ++sync_stats_.digest_rebuilds;
    }
    page_lines.push_back(region_line_to_pool_line(page, 0).value);
    job.pages.push_back(std::move(snap));
  }

  // Only this (sync_mu_-serialized) producer advances the epoch cursor.
  job.epoch = pipe_next_epoch_++;
  const Epoch sealed = job.epoch;
  // The checker must see the snapshot before any of the drain's pushes;
  // the queue handoff below orders the emissions.
  if (auto* chk = pm_->checker()) chk->on_pipeline_seal(sealed, page_lines);

  {
    std::lock_guard plock(pipe_mu_);
    ++pipe_stats_.async_persists;
    pipe_stats_.pages_snapshotted += job.pages.size();
    pipe_queue_.push_back(std::move(job));
    const std::uint64_t occupancy =
        pipe_queue_.size() + (pipe_inflight_ ? 1 : 0);
    pipe_stats_.queue_occupancy_sum += occupancy;
    pipe_stats_.queue_occupancy_max =
        std::max(pipe_stats_.queue_occupancy_max, occupancy);
  }
  pipe_work_cv_.notify_one();
  return sealed;
}

Result<Epoch> PaxRuntime::wait_for_pipeline_epoch(Epoch epoch) {
  std::unique_lock plock(pipe_mu_);
  pipe_cv_.wait(plock, [this, epoch] {
    return !pipe_error_.is_ok() || pipe_committed_ >= epoch;
  });
  if (pipe_committed_ >= epoch) return epoch;
  return pipe_error_;
}

void PaxRuntime::drain_worker_loop() {
  std::unique_lock plock(pipe_mu_);
  for (;;) {
    pipe_work_cv_.wait(plock, [this] {
      return stop_drain_ || (!pipe_queue_.empty() && pipe_error_.is_ok());
    });
    // Stopping abandons queued snapshots: destruction without their commit
    // behaves like a crash, exactly like the flusher's shutdown.
    if (stop_drain_) return;
    PipelineJob job = std::move(pipe_queue_.front());
    pipe_queue_.pop_front();
    pipe_inflight_ = true;
    plock.unlock();
    const Status st = drain_one(job);
    plock.lock();
    pipe_inflight_ = false;
    if (st.is_ok()) {
      pipe_committed_ = job.epoch;
      ++pipe_stats_.jobs_drained;
    } else if (pipe_error_.is_ok()) {
      pipe_error_ = st;
    }
    pipe_cv_.notify_all();
  }
}

Status PaxRuntime::drain_one(const PipelineJob& job) {
  RuntimeStats delta;
  SyncStats sdelta;
  SyncBatch batch(delta, sdelta);
  Status status = Status::ok();
  for (const PipelinePageSnap& snap : job.pages) {
    auto pushed = diff_page(batch, snap.page, *snap.lines, snap.want);
    if (!pushed.ok()) {
      status = pushed.status();
      break;
    }
  }
  if (status.is_ok()) status = flush(batch);

  if (status.is_ok()) {
    // Seal pulls the epoch-boundary image from the SNAPSHOT: the live
    // region already carries epoch N+1. A logged line outside the snapshot
    // was pushed by a sync_step while the pipeline was idle; that take
    // re-armed its page and no store reached the page before the snapshot's
    // take, so the device's copy already is the epoch's value. nullopt keeps
    // it — reading the live region instead would race the mutators and
    // could seal epoch N+1 stores into epoch N.
    std::unordered_map<std::uint64_t, const PipelinePageSnap*> by_page;
    by_page.reserve(job.pages.size());
    for (const PipelinePageSnap& snap : job.pages) {
      by_page.emplace(snap.page.value, &snap);
    }
    auto pull = [this, &by_page](LineIndex line) -> std::optional<LineData> {
      const PoolOffset off = line.byte_offset() - pool_->data_offset();
      const auto it = by_page.find(off / kPageSize);
      if (it == by_page.end()) return std::nullopt;
      return (*it->second->lines)[off % kPageSize / kCacheLineSize];
    };
    auto sealed = device_->seal_epoch(pull);
    if (!sealed.ok()) {
      status = sealed.status();
    } else {
      PAX_CHECK_MSG(sealed.value() == job.epoch,
                    "pipeline epoch numbering diverged from the device");
      auto committed = device_->commit_sealed();
      if (!committed.ok()) status = committed.status();
    }
  }

  if (!status.is_ok()) {
    // Snapshot-time digests describe content the device may not hold now;
    // drop the job's pages back to the full-compare path, and back into the
    // written set.
    std::vector<PageIndex> pages;
    pages.reserve(job.pages.size());
    for (const PipelinePageSnap& snap : job.pages) {
      region_->invalidate_line_digests(snap.page);
      pages.push_back(snap.page);
    }
    const Status back = region_->put_back(pages);
    if (!back.is_ok()) PAX_LOG_WARN("put back: %s", back.to_string().c_str());
  }

  std::lock_guard plock(pipe_mu_);
  pipe_rt_delta_.pages_diffed += delta.pages_diffed;
  pipe_rt_delta_.lines_dirty_found += delta.lines_dirty_found;
  pipe_rt_delta_.device_calls += delta.device_calls;
  pipe_rt_delta_.sync_batches += delta.sync_batches;
  pipe_sync_delta_.pages_scanned += sdelta.pages_scanned;
  pipe_sync_delta_.lines_diffed += sdelta.lines_diffed;
  pipe_sync_delta_.lines_skipped += sdelta.lines_skipped;
  pipe_sync_delta_.lines_synced += sdelta.lines_synced;
  return status;
}

void PaxRuntime::read_snapshot(PoolOffset region_offset,
                               std::span<std::byte> out) {
  PAX_CHECK(region_offset + out.size() <= region_->size());
  // Ranged batch: resolve up to a page worth of committed lines per device
  // call instead of one line at a time. LineData is exactly kCacheLineSize
  // bytes (static_assert in types.hpp), so the chunk buffer is
  // byte-contiguous and unaligned head/tail copies can span lines.
  constexpr std::size_t kChunkLines = kLinesPerPage;
  std::array<LineData, kChunkLines> chunk;
  std::size_t done = 0;
  while (done < out.size()) {
    const PoolOffset cur = region_offset + done;
    const LineIndex first =
        LineIndex::containing(pool_->data_offset() + cur);
    const std::size_t in_line = cur % kCacheLineSize;
    const std::size_t remaining = out.size() - done;
    const std::size_t lines_needed =
        (in_line + remaining + kCacheLineSize - 1) / kCacheLineSize;
    const std::size_t lines = std::min(kChunkLines, lines_needed);
    device_->read_committed_lines(first, std::span(chunk.data(), lines));
    const std::size_t n =
        std::min(lines * kCacheLineSize - in_line, remaining);
    std::memcpy(out.data() + done,
                reinterpret_cast<const std::byte*>(chunk.data()) + in_line,
                n);
    done += n;
  }
}

RuntimeStats PaxRuntime::stats() const {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  RuntimeStats out = stats_;
  if (pipeline_depth_ > 0) {
    // Fold in the drain worker's contribution (it never touches stats_
    // directly — sync_mu_ is off-limits to it).
    std::lock_guard plock(pipe_mu_);
    out.pages_diffed += pipe_rt_delta_.pages_diffed;
    out.lines_dirty_found += pipe_rt_delta_.lines_dirty_found;
    out.device_calls += pipe_rt_delta_.device_calls;
    out.sync_batches += pipe_rt_delta_.sync_batches;
  }
  return out;
}

SyncStats PaxRuntime::sync_stats() const {
  std::lock_guard lock(sync_mu_);
  const check::LockToken sync_token = sync_lock_token();
  SyncStats out = sync_stats_;
  if (pipeline_depth_ > 0) {
    std::lock_guard plock(pipe_mu_);
    out.pages_scanned += pipe_sync_delta_.pages_scanned;
    out.lines_diffed += pipe_sync_delta_.lines_diffed;
    out.lines_skipped += pipe_sync_delta_.lines_skipped;
    out.lines_synced += pipe_sync_delta_.lines_synced;
  }
  return out;
}

PipelineStats PaxRuntime::pipeline_stats() const {
  std::lock_guard plock(pipe_mu_);
  return pipe_stats_;
}

}  // namespace pax::libpax
