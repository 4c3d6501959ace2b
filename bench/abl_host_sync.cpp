// Ablation — batched libpax host sync path.
//
// The per-line host sync walks dirty pages one line at a time — peek_line +
// write_intent + writeback_line, 3 device calls (and up to 4 lock
// acquisitions) per dirty line. The batched path pushes dirty lines through
// PaxDevice::sync_lines, which fuses intent + writeback and appends each
// stripe group's undo records under one log-mutex hold. This bench sweeps
// sync_batch_lines over a dirty-page-heavy workload and reports persist
// wall time, device calls per dirty line (legacy = 3.0 exactly when every
// checked line is dirty), and log-mutex acquisitions per epoch. batch=1 is
// the per-line baseline.
//
// Results land in BENCH_host_sync.json (cwd) for the driver.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "pax/libpax/runtime.hpp"

namespace {

using namespace pax;
using namespace pax::libpax;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPool = 64 << 20;
constexpr std::size_t kDirtyPages = 512;  // 2 MiB rewritten per epoch
constexpr int kEpochs = 4;

struct Row {
  std::size_t batch;
  double persist_ms_mean;
  double device_calls_per_dirty_line;
  double log_acquisitions_per_epoch;
  std::uint64_t dirty_lines;
  bool correct;
};

Row run(std::size_t batch) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);

  RuntimeOptions opts;
  opts.log_size = 8 << 20;
  opts.device.stripes = 16;
  opts.device.persist_workers = 4;
  opts.sync_batch_lines = batch;

  double persist_ms = 0;
  std::uint64_t dirty_lines = 0;
  double calls_per_line = 0;
  double log_acq_per_epoch = 0;
  int last_epoch_byte = 0;
  {
    auto rt = PaxRuntime::attach(pm.get(), opts).value();
    if (!rt->persist().ok()) std::abort();  // settle heap-format writes

    const RuntimeStats rt_base = rt->stats();
    const auto dev_base = rt->device().stats();

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      last_epoch_byte = 0x30 + epoch;
      for (std::size_t p = 1; p <= kDirtyPages; ++p) {
        std::memset(rt->vpm_base() + p * kPageSize, last_epoch_byte,
                    kPageSize);
      }
      const auto t0 = Clock::now();
      if (!rt->persist().ok()) std::abort();
      persist_ms +=
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
    }

    const RuntimeStats rs = rt->stats();
    const auto ds = rt->device().stats();
    dirty_lines = rs.lines_dirty_found - rt_base.lines_dirty_found;
    calls_per_line = dirty_lines == 0
                         ? 0
                         : static_cast<double>(rs.device_calls -
                                               rt_base.device_calls) /
                               static_cast<double>(dirty_lines);
    log_acq_per_epoch = static_cast<double>(ds.log_append_acquisitions -
                                            dev_base.log_append_acquisitions) /
                        kEpochs;
  }  // teardown without persist: crash semantics

  // Crash and recover: the last persisted epoch must come back intact.
  pm->crash(pmem::CrashConfig::drop_all());
  RuntimeOptions quiet = opts;
  auto rt = PaxRuntime::attach(pm.get(), quiet).value();
  bool correct = true;
  for (std::size_t p = 1; p <= kDirtyPages && correct; p += 37) {
    for (std::size_t b = 0; b < kPageSize; b += 509) {
      if (rt->vpm_base()[p * kPageSize + b] !=
          static_cast<std::byte>(last_epoch_byte)) {
        correct = false;
        break;
      }
    }
  }

  return Row{batch,
             persist_ms / kEpochs,
             calls_per_line,
             log_acq_per_epoch,
             dirty_lines,
             correct};
}

}  // namespace

int main() {
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("=== Batched host sync: persist() cost sweep ===\n");
  std::printf("host cpus: %u, dirty pages/epoch: %zu (%zu lines)\n", cpus,
              kDirtyPages, kDirtyPages * kLinesPerPage);
  std::printf("%6s %13s %17s %15s %8s\n", "batch", "persist[ms]",
              "dev calls/line", "log acq/epoch", "correct");

  std::vector<Row> rows;
  for (std::size_t batch : {std::size_t{1}, std::size_t{64}, std::size_t{256},
                            std::size_t{1024}}) {
    Row r = run(batch);
    rows.push_back(r);
    std::printf("%6zu %13.3f %17.3f %15.1f %8s\n", r.batch,
                r.persist_ms_mean, r.device_calls_per_dirty_line,
                r.log_acquisitions_per_epoch, r.correct ? "yes" : "NO");
    std::fflush(stdout);
  }

  // Headlines the acceptance criteria read off directly.
  double legacy_calls = 0, batched_calls = 0;
  for (const Row& r : rows) {
    if (r.batch == 1) legacy_calls = r.device_calls_per_dirty_line;
    if (r.batch == 256) batched_calls = r.device_calls_per_dirty_line;
  }
  std::printf("\ndevice calls per dirty line: %.3f (legacy) -> %.3f "
              "(batch=256)\n", legacy_calls, batched_calls);

  std::FILE* out = std::fopen("BENCH_host_sync.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_host_sync.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"host_sync\",\n");
  std::fprintf(out, "  \"host_cpus\": %u,\n", cpus);
  std::fprintf(out, "  \"dirty_pages_per_epoch\": %zu,\n", kDirtyPages);
  std::fprintf(out, "  \"epochs\": %d,\n", kEpochs);
  std::fprintf(out, "  \"device_calls_per_dirty_line_legacy\": %.3f,\n",
               legacy_calls);
  std::fprintf(out, "  \"device_calls_per_dirty_line_batched\": %.3f,\n",
               batched_calls);
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"sync_batch_lines\": %zu, "
                 "\"persist_ms_mean\": %.3f, "
                 "\"device_calls_per_dirty_line\": %.3f, "
                 "\"log_append_acquisitions_per_epoch\": %.1f, "
                 "\"dirty_lines\": %" PRIu64 ", \"correct\": %s}%s\n",
                 r.batch, r.persist_ms_mean,
                 r.device_calls_per_dirty_line,
                 r.log_acquisitions_per_epoch, r.dirty_lines,
                 r.correct ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_host_sync.json\n");
  return 0;
}
