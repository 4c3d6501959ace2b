// Ablation — line-granular incremental diffing.
//
// Without line tracking the batched host sync path memcmps all 64 lines of
// every dirty page against a fetched device shadow, so persist() pays for
// pages touched, not lines written. With track_lines, the region keeps
// per-page candidate bitmaps and per-line digests of the last-synced
// contents; the diff skips digest-clean lines without touching the shadow
// and fetches only the candidates. This bench sweeps dirty-line density x
// tracking on/off over a fixed dirty-page set and reports bytes memcmp'd
// per epoch (the quantity tracking is meant to crush) and persist wall
// time.
//
// Expectations encoded in the headline fields:
//   * at <= 12.5% density (8/64 lines) tracking cuts bytes memcmp'd by
//     >= 4x (it actually approaches 64/density);
//   * with tracking off the diff degenerates to the full-page scan
//     (lines_diffed == 64 * pages), i.e. the PR 2 behavior;
//   * lines diffed per line written stays near 1.0 at ~10% density with
//     tracking on (the perf-guard ratio).
//
// Results land in BENCH_incremental_diff.json (cwd) for the driver.
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
constexpr std::size_t kDirtyPages = 512;
constexpr int kEpochs = 4;  // measured; one extra seed epoch runs first

struct Row {
  std::size_t density;  // dirty lines per page, out of kLinesPerPage
  bool tracked;
  double persist_ms_mean;
  double bytes_memcmp_per_epoch;
  double lines_diffed_per_epoch;
  double lines_skipped_per_epoch;
  double lines_synced_per_epoch;
  bool correct;
};

Row run(std::size_t density, bool tracked) {
  auto pm = pmem::PmemDevice::create_in_memory(kPool);

  RuntimeOptions opts;
  opts.log_size = 8 << 20;
  opts.device.stripes = 16;
  opts.device.persist_workers = 4;
  opts.sync_batch_lines = 256;
  opts.track_lines = tracked;

  double persist_ms = 0;
  SyncStats base{}, after{};
  int last_epoch_byte = 0;
  {
    auto rt = PaxRuntime::attach(pm.get(), opts).value();

    // Seed epoch: touch the full dirty set once so every page's digests are
    // rebuilt before measurement (the steady state a long-running workload
    // lives in). Not counted.
    for (std::size_t p = 1; p <= kDirtyPages; ++p) {
      std::byte* page = rt->vpm_base() + p * kPageSize;
      for (std::size_t l = 0; l < density; ++l) {
        page[l * kCacheLineSize] = static_cast<std::byte>(0x2f);
      }
    }
    if (!rt->persist().ok()) std::abort();
    base = rt->sync_stats();

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      last_epoch_byte = 0x30 + epoch;
      for (std::size_t p = 1; p <= kDirtyPages; ++p) {
        std::byte* page = rt->vpm_base() + p * kPageSize;
        for (std::size_t l = 0; l < density; ++l) {
          page[l * kCacheLineSize] = static_cast<std::byte>(last_epoch_byte);
        }
      }
      const auto t0 = Clock::now();
      if (!rt->persist().ok()) std::abort();
      persist_ms +=
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
    }
    after = rt->sync_stats();
  }  // teardown without persist: crash semantics

  // Crash and recover: the last persisted epoch must come back intact
  // whether or not the diff was taking the tracked shortcut.
  pm->crash(pmem::CrashConfig::drop_all());
  auto rt = PaxRuntime::attach(pm.get(), opts).value();
  bool correct = true;
  for (std::size_t p = 1; p <= kDirtyPages && correct; ++p) {
    for (std::size_t l = 0; l < density; ++l) {
      if (rt->vpm_base()[p * kPageSize + l * kCacheLineSize] !=
          static_cast<std::byte>(last_epoch_byte)) {
        correct = false;
        break;
      }
    }
  }

  const double diffed =
      static_cast<double>(after.lines_diffed - base.lines_diffed) / kEpochs;
  const double skipped =
      static_cast<double>(after.lines_skipped - base.lines_skipped) / kEpochs;
  const double synced =
      static_cast<double>(after.lines_synced - base.lines_synced) / kEpochs;
  return Row{density,
             tracked,
             persist_ms / kEpochs,
             diffed * kCacheLineSize,
             diffed,
             skipped,
             synced,
             correct};
}

}  // namespace

int main() {
  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("=== Incremental diff: bytes memcmp'd vs dirty density ===\n");
  std::printf("host cpus: %u, dirty pages/epoch: %zu, lines/page: %zu\n",
              cpus, kDirtyPages, kLinesPerPage);
  std::printf("%8s %8s %13s %15s %13s %11s %8s\n", "density", "tracked",
              "persist[ms]", "memcmp B/ep", "diffed/ep", "synced/ep",
              "correct");

  std::vector<Row> rows;
  for (std::size_t density : {std::size_t{1}, std::size_t{4}, std::size_t{6},
                              std::size_t{8}, std::size_t{16},
                              std::size_t{64}}) {
    for (bool tracked : {false, true}) {
      Row r = run(density, tracked);
      rows.push_back(r);
      std::printf("%5zu/64 %8s %13.3f %15.0f %13.0f %11.0f %8s\n", r.density,
                  r.tracked ? "yes" : "no", r.persist_ms_mean,
                  r.bytes_memcmp_per_epoch, r.lines_diffed_per_epoch,
                  r.lines_synced_per_epoch, r.correct ? "yes" : "NO");
      std::fflush(stdout);
    }
  }

  // Headlines the acceptance criteria read off directly.
  auto find = [&](std::size_t density, bool tracked) -> const Row* {
    for (const Row& r : rows) {
      if (r.density == density && r.tracked == tracked) return &r;
    }
    return nullptr;
  };
  const Row* untracked8 = find(8, false);
  const Row* tracked8 = find(8, true);
  const double memcmp_ratio_12pct =
      (tracked8 != nullptr && untracked8 != nullptr &&
       tracked8->bytes_memcmp_per_epoch > 0)
          ? untracked8->bytes_memcmp_per_epoch /
                tracked8->bytes_memcmp_per_epoch
          : 0.0;
  const Row* guard = find(6, true);  // 6/64 ~= 9.4%, the ~10% point
  const double diffed_per_written_10pct =
      (guard != nullptr && guard->lines_synced_per_epoch > 0)
          ? guard->lines_diffed_per_epoch / guard->lines_synced_per_epoch
          : 0.0;
  const Row* untracked_full = find(64, false);
  const bool tracking_off_full_scan =
      untracked_full != nullptr &&
      untracked_full->lines_diffed_per_epoch >=
          static_cast<double>(kDirtyPages * kLinesPerPage);

  std::printf("\nbytes memcmp'd per epoch at 8/64 density: %.0f (tracked) vs "
              "%.0f (untracked) — %.1fx reduction\n",
              tracked8 != nullptr ? tracked8->bytes_memcmp_per_epoch : 0.0,
              untracked8 != nullptr ? untracked8->bytes_memcmp_per_epoch : 0.0,
              memcmp_ratio_12pct);
  std::printf("lines diffed per line written at ~10%% density (tracked): "
              "%.3f\n",
              diffed_per_written_10pct);

  std::FILE* out = std::fopen("BENCH_incremental_diff.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_incremental_diff.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"incremental_diff\",\n");
  std::fprintf(out, "  \"host_cpus\": %u,\n", cpus);
  std::fprintf(out, "  \"dirty_pages_per_epoch\": %zu,\n", kDirtyPages);
  std::fprintf(out, "  \"epochs\": %d,\n", kEpochs);
  std::fprintf(out, "  \"memcmp_bytes_reduction_at_12pct_density\": %.3f,\n",
               memcmp_ratio_12pct);
  std::fprintf(out, "  \"lines_diffed_per_line_written_at_10pct\": %.3f,\n",
               diffed_per_written_10pct);
  std::fprintf(out, "  \"tracking_off_full_scan\": %s,\n",
               tracking_off_full_scan ? "true" : "false");
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"density_lines\": %zu, \"track_lines\": %s, "
        "\"persist_ms_mean\": %.3f, "
        "\"bytes_memcmp_per_epoch\": %.0f, \"lines_diffed_per_epoch\": %.0f, "
        "\"lines_skipped_per_epoch\": %.0f, \"lines_synced_per_epoch\": %.0f, "
        "\"correct\": %s}%s\n",
        r.density, r.tracked ? "true" : "false", r.persist_ms_mean,
        r.bytes_memcmp_per_epoch, r.lines_diffed_per_epoch,
        r.lines_skipped_per_epoch, r.lines_synced_per_epoch,
        r.correct ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_incremental_diff.json\n");
  return 0;
}
