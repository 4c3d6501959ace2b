#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace paxbench {

using pax::LineData;
using pax::LineIndex;

LayerCounters read_counters(std::span<pax::libpax::PaxRuntime* const> rts) {
  LayerCounters c;
  for (pax::libpax::PaxRuntime* rt : rts) {
    c.faults += rt->region().fault_count();
    c.protect_syscalls += rt->region().protect_syscall_count();
    const pax::libpax::RuntimeStats r = rt->stats();
    c.rt.persists += r.persists;
    c.rt.pages_diffed += r.pages_diffed;
    c.rt.lines_dirty_found += r.lines_dirty_found;
    c.rt.device_calls += r.device_calls;
    c.rt.sync_batches += r.sync_batches;
    const pax::libpax::SyncStats s = rt->sync_stats();
    c.sync.lines_diffed += s.lines_diffed;
    c.sync.lines_skipped += s.lines_skipped;
    c.sync.lines_synced += s.lines_synced;
    const pax::device::DeviceStats d = rt->device().stats();
    c.dev.forced_log_flushes += d.forced_log_flushes;
    c.dev.pm_writeback_lines += d.pm_writeback_lines;
    c.dev.first_touch_logs += d.first_touch_logs;
    c.dev.batch_syncs += d.batch_syncs;
    c.dev.batch_synced_lines += d.batch_synced_lines;
    c.hbm += rt->device().hbm_stats();
    const pax::device::UndoLoggerStats l = rt->device().log_stats();
    c.log.records += l.records;
    c.log.flushes += l.flushes;
    c.log.ring_full_stalls += l.ring_full_stalls;
    const pax::pmem::PmemStats p = rt->pm().stats();
    c.pm.line_flushes += p.line_flushes;
    c.pm.drains += p.drains;
    c.pm.media_bytes_written += p.media_bytes_written;
    c.pm.xpline_blocks_written += p.xpline_blocks_written;
    std::uint64_t acq = 0;
    std::uint64_t con = 0;
    rt->device().stripe_lock_totals(&acq, &con);
    c.lock_acquisitions += acq;
    c.lock_contended += con;
  }
  return c;
}

void emit_counter_delta(Json& j, std::string_view key,
                        const LayerCounters& b, const LayerCounters& a) {
  j.begin_object(key)
      .num("faults", a.faults - b.faults)
      .num("protect_syscalls", a.protect_syscalls - b.protect_syscalls)
      .num("persists", a.rt.persists - b.rt.persists)
      .num("pages_diffed", a.rt.pages_diffed - b.rt.pages_diffed)
      .num("lines_dirty_found", a.rt.lines_dirty_found - b.rt.lines_dirty_found)
      .num("device_calls", a.rt.device_calls - b.rt.device_calls)
      .num("lines_diffed", a.sync.lines_diffed - b.sync.lines_diffed)
      .num("lines_synced", a.sync.lines_synced - b.sync.lines_synced)
      .num("forced_log_flushes",
           a.dev.forced_log_flushes - b.dev.forced_log_flushes)
      .num("pm_writeback_lines",
           a.dev.pm_writeback_lines - b.dev.pm_writeback_lines)
      .num("hbm_hits", a.hbm.hits - b.hbm.hits)
      .num("hbm_misses", a.hbm.misses - b.hbm.misses)
      .num("hbm_evictions", a.hbm.evictions - b.hbm.evictions)
      .num("log_records", a.log.records - b.log.records)
      .num("log_flushes", a.log.flushes - b.log.flushes)
      .num("ring_full_stalls", a.log.ring_full_stalls - b.log.ring_full_stalls)
      .num("pm_line_flushes", a.pm.line_flushes - b.pm.line_flushes)
      .num("pm_drains", a.pm.drains - b.pm.drains)
      .num("pm_media_bytes", a.pm.media_bytes_written - b.pm.media_bytes_written)
      .num("pm_xpline_blocks",
           a.pm.xpline_blocks_written - b.pm.xpline_blocks_written)
      .num("lock_acquisitions", a.lock_acquisitions - b.lock_acquisitions)
      .num("lock_contended", a.lock_contended - b.lock_contended)
      .end_object();
}

namespace {

constexpr std::size_t kProbeLogBytes = 8 << 20;   // as the persist workloads
constexpr std::size_t kProbeDataBytes = 8 << 20;  // > any epoch's lines

LineData salted_line(std::uint64_t salt, std::uint64_t i) {
  LineData d;
  const std::uint64_t word = mix64(salt * 0x9e3779b97f4a7c15ULL + i);
  std::memcpy(d.bytes.data(), &word, sizeof word);
  return d;
}

}  // namespace

DeviceProbe::DeviceProbe(const pax::device::DeviceConfig& config) {
  pm_ = pax::pmem::PmemDevice::create_in_memory(
      pax::kPageSize + kProbeLogBytes + kProbeDataBytes);
  auto pool = pax::pmem::PmemPool::create(pm_.get(), kProbeLogBytes);
  PAX_CHECK_MSG(pool.ok(), "device probe pool");
  pool_.emplace(pool.value());
  dev_ = std::make_unique<pax::device::PaxDevice>(&*pool_, config);
}

std::pair<std::int64_t, std::int64_t> DeviceProbe::run(std::size_t lines,
                                                       std::size_t batch,
                                                       std::uint64_t salt) {
  const std::uint64_t first = pool_->data_offset() / pax::kCacheLineSize;
  const std::uint64_t span = pool_->data_size() / pax::kCacheLineSize;
  const std::uint64_t base = mix64(salt) % span;
  std::vector<pax::device::LineUpdate> updates;
  updates.reserve(lines);
  for (std::size_t i = 0; i < lines; ++i) {
    updates.push_back({LineIndex{first + (base + i) % span},
                       salted_line(salt, i)});
  }
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < updates.size(); i += batch) {
    const std::size_t n = std::min(batch, updates.size() - i);
    const pax::Status s = dev_->sync_lines({updates.data() + i, n});
    PAX_CHECK_MSG(s.is_ok(), "device probe sync_lines");
  }
  const std::int64_t t1 = now_ns();
  PAX_CHECK_MSG(dev_->persist(nullptr).ok(), "device probe persist");
  return {t1 - t0, now_ns() - t1};
}

PmemProbe::PmemProbe() {
  pm_ = pax::pmem::PmemDevice::create_in_memory(kProbeDataBytes);
}

std::int64_t PmemProbe::run(std::uint64_t flushes, std::uint64_t salt) {
  const std::uint64_t span = pm_->num_lines();
  const std::uint64_t base = mix64(salt) % span;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < flushes; ++i) {
    const LineIndex line{(base + i) % span};
    pm_->store_line(line, salted_line(salt, i));
    pm_->flush_line(line);
  }
  pm_->drain();
  return now_ns() - t0;
}

std::string read_proc(const std::string& pid, const char* file) {
  std::ifstream in("/proc/" + pid + "/" + file);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace paxbench
