// paxctl — inspect and repair PAX pool files.
//
//   paxctl info <pool>        pool geometry, committed epoch, root, heap
//   paxctl log <pool>         decode the undo-log banks (one line per frame:
//                             epoch tag, line count, first lines)
//   paxctl verify <pool>      validate header + every log record; dry-run
//                             recovery and report what it would roll back
//   paxctl recover <pool>     run recovery in place (what map_pool does)
//   paxctl hexdump <pool> <offset> [len]   dump pool bytes
//   paxctl trace <trace-file> summarize a recorded coherence trace
//   paxctl synctest [pages] [lines-per-page]   exercise the line-tracked
//                             host sync path on a scratch in-memory pool and
//                             report SyncStats + stripe telemetry
//   paxctl check [pages] [epochs]   run a persist/crash/recover workload on
//                             a scratch in-memory pool under PaxCheck (the
//                             persist-order + lock-discipline checker) and
//                             report the findings; exit 1 on any violation
//   paxctl check --replay <file.paxevt>   re-run the PaxCheck rule engines
//                             over a recorded event stream (e.g. a crash-
//                             exploration artifact); exit 1 on any violation
//   paxctl explore [pages] [epochs] [--every N] [--max-points N] [--seed S]
//                  [--artifacts DIR] [--pipelined]   enumerate crash points
//                             of a deterministic libpax workload: crash
//                             after every N-th device event under drop_all /
//                             random / torn, recover, and audit each
//                             recovery (PaxCheck + snapshot equivalence);
//                             --pipelined runs the workload with the epoch
//                             pipeline active; exit 1 on any finding
//   paxctl calibrate <fit.json> [<check.json>] [--loops N] [--wave-us W]
//                  [--tolerance T]   fit the serving DES (pax::model::
//                             calibrate) to a closed-loop paxkv-loadgen
//                             --json report; with a second report, predict
//                             it from the fit and exit 1 if any of
//                             throughput/p50/p95/p99 misses the tolerance
//                             band (default 0.35)
//   paxctl analyze <file.paxevt>... [--json]   PaxScope offline predictive
//                             analysis: rebuild the happens-before relation
//                             of each recorded trace, aggregate the lock
//                             graph across all of them, and report
//                             deadlock cycles, rank violations, and
//                             persist-order windows the online checker
//                             could not see; exit 1 on any finding
//   paxctl fix [<file.paxevt>] [--scenario NAME] [--record FILE]
//                  [--validate] [--json]   derive a flush/fence RepairPlan
//                             from a trace's PaxScope findings (default:
//                             record the named seeded scenario, undo-flush);
//                             --record saves that trace; --validate replays
//                             the scenario under full crash-point
//                             enumeration without and with the plan applied
//                             and exits 1 unless the verdict flips clean
//
// Works on any pool produced by libpax, the pagewal baseline, or the
// device-level API (they share the pool format).
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>

#include "pax/check/analyze.hpp"
#include "pax/check/checker.hpp"
#include "pax/check/crashpoint.hpp"
#include "pax/check/repair.hpp"
#include "pax/check/trace_file.hpp"
#include "pax/coherence/trace.hpp"
#include "pax/device/recovery.hpp"
#include "pax/libpax/heap.hpp"
#include "pax/libpax/runtime.hpp"
#include "pax/litmus/runner.hpp"
#include "pax/model/calibrate.hpp"
#include "pax/pmem/pool.hpp"
#include "pax/wal/wal.hpp"

namespace {

using namespace pax;

int usage() {
  std::fprintf(stderr,
               "usage: paxctl <info|log|verify|recover> <pool-file>\n"
               "       paxctl hexdump <pool-file> <offset> [len]\n"
               "       paxctl trace <trace-file>\n"
               "       paxctl synctest [pages] [lines-per-page]\n"
               "       paxctl check [pages] [epochs]\n"
               "       paxctl check --replay <file.paxevt>\n"
               "       paxctl explore [pages] [epochs] [--every N] "
               "[--max-points N] [--seed S] [--artifacts DIR] "
               "[--pipelined]\n"
               "       paxctl litmus [--shape S] [--every N] "
               "[--max-points N] [--max-interleavings N] [--seed S] "
               "[--seeded-bug snoop-writeback|persist-pull|"
               "line-serialization] [--trace-dir DIR] [--no-crash]\n"
               "       paxctl calibrate <fit.json> [<check.json>] "
               "[--loops N] [--wave-us W] [--tolerance T]\n"
               "       paxctl analyze <file.paxevt>... [--json]\n"
               "       paxctl fix [<file.paxevt>] [--scenario NAME] "
               "[--record FILE] [--validate] [--json]\n");
  return 2;
}

Result<std::unique_ptr<pmem::PmemDevice>> open_device(
    const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    return io_error("cannot stat " + path);
  }
  return pmem::PmemDevice::open_file(path, static_cast<std::size_t>(st.st_size),
                                     /*create=*/false);
}

void print_record(std::uint64_t bank, std::uint64_t index,
                  const wal::LogRecord& rec, Epoch committed) {
  const char* type = "?";
  std::string detail;
  switch (rec.type) {
    case wal::RecordType::kLineUndoFrame: {
      type = "LINE_UNDO";
      auto entries = wal::decode_line_undo_frame(rec.payload);
      if (!entries.ok()) {
        detail = "malformed frame";
        break;
      }
      // One frame holds a batch of lines; name the first few.
      constexpr std::size_t kShown = 4;
      const auto& e = entries.value();
      detail = std::to_string(e.size()) + " line(s):";
      for (std::size_t i = 0; i < e.size() && i < kShown; ++i) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), " %" PRIu64 " (0x%" PRIx64 ")",
                      e[i].line_index, e[i].line_index * kCacheLineSize);
        detail += buf;
      }
      if (e.size() > kShown) detail += " ...";
      break;
    }
    case wal::RecordType::kPageUndo:
      type = "PAGE_UNDO";
      if (rec.payload.size() >= sizeof(wal::PageUndoHeader)) {
        wal::PageUndoHeader p;
        std::memcpy(&p, rec.payload.data(), sizeof(p));
        detail = "page " + std::to_string(p.page_index);
      }
      break;
    case wal::RecordType::kRangeUndo:
      type = "RANGE_UNDO";
      if (rec.payload.size() >= sizeof(wal::RangeUndoHeader)) {
        wal::RangeUndoHeader p;
        std::memcpy(&p, rec.payload.data(), sizeof(p));
        detail = "offset " + std::to_string(p.pool_offset) + " len " +
                 std::to_string(p.length);
      }
      break;
    case wal::RecordType::kTxBegin:
      type = "TX_BEGIN";
      break;
    case wal::RecordType::kTxCommit:
      type = "TX_COMMIT";
      break;
    case wal::RecordType::kAllocMeta:
      type = "ALLOC_META";
      break;
    case wal::RecordType::kInvalid:
      type = "INVALID";
      break;
  }
  std::printf("  bank%" PRIu64 "[%4" PRIu64 "] epoch %-6" PRIu64
              " %-10s %-40s %s\n",
              bank, index, rec.epoch, type, detail.c_str(),
              rec.epoch > committed ? "<- UNCOMMITTED (rollback target)"
                                    : "stale");
}

int cmd_info(pmem::PmemDevice* dev) {
  auto pool = pmem::PmemPool::open(dev);
  if (!pool.ok()) {
    std::fprintf(stderr, "not a PAX pool: %s\n",
                 pool.status().to_string().c_str());
    return 1;
  }
  auto& p = pool.value();
  std::printf("pool size:       %zu bytes\n", dev->size());
  std::printf("log extent:      offset %" PRIu64 ", %zu bytes (2 banks of "
              "%zu)\n",
              p.log_offset(), p.log_size(), p.log_size() / 2);
  std::printf("data extent:     offset %" PRIu64 ", %zu bytes (%zu lines, "
              "%zu pages)\n",
              p.data_offset(), p.data_size(), p.data_size() / kCacheLineSize,
              p.data_size() / kPageSize);
  std::printf("committed epoch: %" PRIu64 "\n", p.committed_epoch());
  std::printf("root cell:       %" PRIu64 "\n", p.root());

  // Peek at the libpax heap header if present.
  std::uint64_t magic = dev->load_u64(p.data_offset());
  if (magic == libpax::kHeapMagic) {
    const std::uint64_t bump = dev->load_u64(p.data_offset() + 8);
    const std::uint64_t root = dev->load_u64(p.data_offset() + 16);
    std::printf("libpax heap:     present — %" PRIu64
                " bytes used, root offset %" PRIu64 "\n",
                bump, root);
  } else {
    std::printf("libpax heap:     not present (raw / baseline pool)\n");
  }
  return 0;
}

int cmd_log(pmem::PmemDevice* dev) {
  auto pool = pmem::PmemPool::open(dev);
  if (!pool.ok()) {
    std::fprintf(stderr, "not a PAX pool: %s\n",
                 pool.status().to_string().c_str());
    return 1;
  }
  auto& p = pool.value();
  const Epoch committed = p.committed_epoch();
  const std::size_t half = (p.log_size() / 2) & ~(kCacheLineSize - 1);
  const std::pair<PoolOffset, std::size_t> banks[2] = {
      {p.log_offset(), half}, {p.log_offset() + half, p.log_size() - half}};

  std::printf("committed epoch %" PRIu64 "\n", committed);
  for (std::uint64_t b = 0; b < 2; ++b) {
    auto records =
        wal::LogReader::read_all(dev, banks[b].first, banks[b].second);
    std::printf("bank %" PRIu64 ": %zu well-formed records\n", b,
                records.size());
    for (std::uint64_t i = 0; i < records.size(); ++i) {
      print_record(b, i, records[i], committed);
    }
  }
  return 0;
}

int cmd_verify(pmem::PmemDevice* dev) {
  auto pool = pmem::PmemPool::open(dev);
  if (!pool.ok()) {
    std::printf("FAIL header: %s\n", pool.status().to_string().c_str());
    return 1;
  }
  std::printf("OK   header (magic, version, CRC, geometry)\n");
  auto& p = pool.value();

  const std::size_t half = (p.log_size() / 2) & ~(kCacheLineSize - 1);
  std::uint64_t uncommitted = 0, stale = 0;
  for (auto [off, size] : {std::pair<PoolOffset, std::size_t>{p.log_offset(),
                                                              half},
                           {p.log_offset() + half, p.log_size() - half}}) {
    for (const auto& rec : wal::LogReader::read_all(dev, off, size)) {
      std::uint64_t lines = 1;  // records other than line-undo frames
      if (rec.type == wal::RecordType::kLineUndoFrame) {
        auto entries = wal::decode_line_undo_frame(rec.payload);
        if (!entries.ok()) {
          std::printf("FAIL log scan: %s\n",
                      entries.status().to_string().c_str());
          return 1;
        }
        lines = entries.value().size();
      }
      (rec.epoch > p.committed_epoch() ? uncommitted : stale) += lines;
    }
  }
  std::printf("OK   log scan: %" PRIu64 " uncommitted line record(s), %" PRIu64
              " stale\n",
              uncommitted, stale);
  if (uncommitted > 0) {
    std::printf("NOTE recovery would roll back %" PRIu64
                " line(s) to epoch %" PRIu64 "\n",
                uncommitted, p.committed_epoch());
  } else {
    std::printf("OK   pool is clean (no rollback needed)\n");
  }
  return 0;
}

int cmd_recover(pmem::PmemDevice* dev) {
  auto pool = pmem::PmemPool::open(dev);
  if (!pool.ok()) {
    std::fprintf(stderr, "not a PAX pool: %s\n",
                 pool.status().to_string().c_str());
    return 1;
  }
  auto report = device::recover_pool(pool.value());
  if (!report.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 report.status().to_string().c_str());
    return 1;
  }
  std::printf("recovered to epoch %" PRIu64 ": %" PRIu64 " frame(s), %" PRIu64
              " line records scanned, %" PRIu64 " applied, %" PRIu64
              " stale\n",
              report.value().recovered_epoch, report.value().frames_scanned,
              report.value().records_scanned, report.value().records_applied,
              report.value().stale_records);
  return 0;
}

int cmd_hexdump(pmem::PmemDevice* dev, PoolOffset offset, std::size_t len) {
  if (offset >= dev->size()) {
    std::fprintf(stderr, "offset beyond pool end (%zu)\n", dev->size());
    return 1;
  }
  len = std::min(len, dev->size() - offset);
  std::vector<std::byte> buf(len);
  dev->load(offset, buf);
  for (std::size_t row = 0; row < len; row += 16) {
    std::printf("%#10" PRIx64 "  ", offset + row);
    for (std::size_t i = 0; i < 16; ++i) {
      if (row + i < len) {
        std::printf("%02x ", static_cast<unsigned>(buf[row + i]));
      } else {
        std::printf("   ");
      }
      if (i == 7) std::printf(" ");
    }
    std::printf(" |");
    for (std::size_t i = 0; i < 16 && row + i < len; ++i) {
      const char c = static_cast<char>(buf[row + i]);
      std::printf("%c", c >= 0x20 && c < 0x7f ? c : '.');
    }
    std::printf("|\n");
  }
  return 0;
}

int cmd_synctest(std::size_t pages, std::size_t lines_per_page) {
  if (lines_per_page == 0 || lines_per_page > kLinesPerPage) {
    std::fprintf(stderr, "lines-per-page must be in [1, %zu]\n",
                 kLinesPerPage);
    return 2;
  }
  libpax::RuntimeOptions opts;
  const std::size_t pool_size = 16 << 20;
  auto rt = libpax::PaxRuntime::create_in_memory(pool_size, opts);
  if (!rt.ok()) {
    std::fprintf(stderr, "%s\n", rt.status().to_string().c_str());
    return 1;
  }
  auto& r = *rt.value();
  const std::size_t usable = r.vpm_size() / kPageSize;
  pages = std::min(pages, usable);

  // Epoch 0 seeds the digests (every page's first diff is a full rebuild);
  // epochs 1..3 run the tracked fast path at the requested density.
  constexpr int kEpochs = 4;
  for (int e = 0; e < kEpochs; ++e) {
    for (std::size_t p = 0; p < pages; ++p) {
      std::byte* page = r.vpm_base() + p * kPageSize;
      for (std::size_t l = 0; l < lines_per_page; ++l) {
        page[l * kCacheLineSize] = static_cast<std::byte>(e + 1);
      }
    }
    auto committed = r.persist();
    if (!committed.ok()) {
      std::fprintf(stderr, "persist: %s\n",
                   committed.status().to_string().c_str());
      return 1;
    }
  }

  const libpax::SyncStats ss = r.sync_stats();
  std::printf("synctest: %zu page(s) x %zu line(s), %d epoch(s)\n", pages,
              lines_per_page, kEpochs);
  std::printf("  write tracker:   %s\n", r.tracker_name());
  std::printf("  pages scanned:   %" PRIu64 "\n", ss.pages_scanned);
  std::printf("  lines diffed:    %" PRIu64 "\n", ss.lines_diffed);
  std::printf("  lines skipped:   %" PRIu64 "\n", ss.lines_skipped);
  std::printf("  lines synced:    %" PRIu64 "\n", ss.lines_synced);
  std::printf("  digest rebuilds: %" PRIu64 "\n", ss.digest_rebuilds);

  std::uint64_t acq = 0, con = 0;
  r.device().stripe_lock_totals(&acq, &con);
  std::printf("  stripe locks:    %" PRIu64 " acquisition(s), %" PRIu64
              " contended\n",
              acq, con);
  std::uint64_t busiest = 0, busiest_intents = 0;
  for (const auto& st : r.device().stripe_stats()) {
    if (st.write_intents >= busiest_intents) {
      busiest_intents = st.write_intents;
      busiest = st.stripe;
    }
  }
  std::printf("  busiest stripe:  #%" PRIu64 " (%" PRIu64
              " write intent(s))\n",
              busiest, busiest_intents);
  return 0;
}

int cmd_check(std::size_t pages, int epochs) {
  // A representative workload under PaxCheck: line-tracked batched sync,
  // blocking and §6 async persists, background sync steps, a crash, and
  // recovery. A correct build reports clean; any persist-order or
  // lock-discipline violation prints with its event backtrace and fails.
  auto pm = pmem::PmemDevice::create_in_memory(32 << 20);
  check::Checker checker;
  pm->set_checker(&checker);

  libpax::RuntimeOptions opts;
  opts.log_size = 4 << 20;
  {
    auto rt = libpax::PaxRuntime::attach(pm.get(), opts);
    if (!rt.ok()) {
      std::fprintf(stderr, "%s\n", rt.status().to_string().c_str());
      return 1;
    }
    auto& r = *rt.value();
    pages = std::min(pages, r.vpm_size() / kPageSize);
    for (int e = 0; e < epochs; ++e) {
      for (std::size_t p = 0; p < pages; ++p) {
        std::byte* page = r.vpm_base() + p * kPageSize;
        for (std::size_t l = 0; l < kLinesPerPage; l += 2) {
          page[l * kCacheLineSize] = static_cast<std::byte>(e + p + 1);
        }
      }
      const bool async = e % 2 == 1;
      auto committed = async ? r.persist_async() : r.persist();
      if (!committed.ok()) {
        std::fprintf(stderr, "persist: %s\n",
                     committed.status().to_string().c_str());
        return 1;
      }
      r.sync_step();  // completes the async seal
    }
  }  // teardown without a final persist: crash semantics
  pm->crash(pmem::CrashConfig::torn(0.5, 0xc43c));
  {
    auto rt = libpax::PaxRuntime::attach(pm.get(), opts);
    if (!rt.ok()) {
      std::fprintf(stderr, "recovery: %s\n", rt.status().to_string().c_str());
      return 1;
    }
  }
  pm->set_checker(nullptr);

  auto report = checker.report();
  std::printf("%s\n", report.to_string().c_str());
  return report.clean() ? 0 : 1;
}

int cmd_replay(const std::string& path) {
  auto events = check::read_trace(path);
  if (!events.ok()) {
    std::fprintf(stderr, "%s\n", events.status().to_string().c_str());
    return 1;
  }
  check::Checker checker;
  const check::Report report = checker.replay(events.value());
  std::printf("replayed %zu event(s) from %s\n%s\n", events.value().size(),
              path.c_str(), report.to_string().c_str());
  return report.clean() ? 0 : 1;
}

int cmd_explore(std::size_t pages, int epochs, std::uint64_t every,
                std::uint64_t max_points, std::uint64_t seed,
                const std::string& artifact_dir, bool pipelined) {
  // The demo workload crash exploration enumerates: a full libpax stack
  // (attach, page mutation, blocking persists, crash-semantics teardown)
  // pinned deterministic so every re-execution counts the same events.
  // --pipelined runs it with the epoch pipeline active: persist() still
  // waits for its own epoch, so the workload thread quiesces while the drain
  // worker runs alone — the event sequence stays deterministic with the
  // drain thread live at every crash point.
  const auto workload = [pages, epochs, pipelined](
                            pmem::PmemDevice& dev,
                            check::CrashOracle& oracle) -> Status {
    libpax::RuntimeOptions opts;
    opts.log_size = 256 << 10;
    opts.vpm_base_hint = 0x7d00'0000'0000ULL;  // byte-identical snapshots
    if (pipelined) opts.pipeline_depth = 1;
    opts = libpax::RuntimeOptions::deterministic(opts);
    auto rt = libpax::PaxRuntime::attach(&dev, opts);
    if (!rt.ok()) return rt.status();
    auto& r = *rt.value();
    PAX_RETURN_IF_ERROR(oracle.note_commit(r.committed_epoch()));
    const std::size_t usable = std::min(pages, r.vpm_size() / kPageSize);
    for (int e = 0; e < epochs; ++e) {
      for (std::size_t p = 0; p < usable; ++p) {
        std::byte* page = r.vpm_base() + p * kPageSize;
        for (std::size_t l = 0; l < kLinesPerPage; l += 2) {
          page[l * kCacheLineSize] = static_cast<std::byte>(e + p + 1);
        }
      }
      auto committed = r.persist();
      if (!committed.ok()) return committed.status();
      PAX_RETURN_IF_ERROR(oracle.note_commit(committed.value()));
    }
    return Status::ok();  // teardown without persist: crash semantics
  };

  check::CrashExplorerOptions opts;
  opts.every = every;
  opts.max_crash_points = max_points;
  opts.seed = seed;
  opts.artifact_dir = artifact_dir;
  check::CrashExplorer explorer(2 << 20, workload, opts);
  auto result = explorer.explore();
  if (!result.ok()) {
    std::fprintf(stderr, "explore harness failed: %s\n",
                 result.status().to_string().c_str());
    return 1;
  }
  std::printf("%s\n", result.value().to_string().c_str());
  return result.value().clean() ? 0 : 1;
}

int cmd_litmus(const std::string& shape_name, std::uint64_t every,
               std::uint64_t max_points, std::uint64_t max_interleavings,
               std::uint64_t seed, const std::string& seeded_bug,
               const std::string& trace_dir, bool no_crash) {
  litmus::LitmusOptions options;
  options.crash_every = no_crash ? 0 : every;
  options.max_crash_points = max_points;
  options.max_interleavings = max_interleavings;
  options.seed = seed;
  options.trace_dir = trace_dir;
  if (!seeded_bug.empty()) {
    if (seeded_bug == "snoop-writeback") {
      options.faults.suppress_snoop_writeback = true;
    } else if (seeded_bug == "persist-pull") {
      options.faults.skip_persist_pull = true;
    } else if (seeded_bug == "line-serialization") {
      options.faults.skip_line_serialization = true;
    } else {
      std::fprintf(stderr, "unknown --seeded-bug %s\n", seeded_bug.c_str());
      return usage();
    }
  }

  std::vector<const litmus::Shape*> shapes;
  if (shape_name.empty() || shape_name == "all") {
    for (const litmus::Shape& shape : litmus::all_shapes()) {
      shapes.push_back(&shape);
    }
  } else {
    const litmus::Shape* shape = litmus::find_shape(shape_name);
    if (shape == nullptr) {
      std::fprintf(stderr, "unknown --shape %s (try SB, LB, MP, WRC, IRIW, "
                           "CoRR, CoWW, 2+2W or all)\n",
                   shape_name.c_str());
      return usage();
    }
    shapes.push_back(shape);
  }

  bool clean = true;
  for (const litmus::Shape* shape : shapes) {
    auto result = litmus::run_shape(*shape, options);
    if (!result.ok()) {
      std::fprintf(stderr, "litmus harness failed on %s: %s\n",
                   shape->name.c_str(),
                   result.status().to_string().c_str());
      return 1;
    }
    std::printf("%s\n", result.value().to_string().c_str());
    clean = clean && result.value().clean();
  }
  return clean ? 0 : 1;
}

int cmd_analyze(const std::vector<std::string>& paths, bool json) {
  auto report = check::analyze_trace_files(paths);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().to_string().c_str());
    return 1;
  }
  if (json) {
    std::printf("%s\n", report.value().to_json().c_str());
  } else {
    for (const std::string& p : paths) {
      std::printf("analyzed %s\n", p.c_str());
    }
    std::printf("%s", report.value().to_string().c_str());
  }
  return report.value().clean() ? 0 : 1;
}

int cmd_fix(const std::string& trace_path, const std::string& scenario_name,
            const std::string& record_path, bool validate, bool json) {
  // The scenario backs two things: the default trace source (when no
  // .paxevt is given) and the --validate re-execution target.
  auto scenario = check::seeded_repair_scenario(scenario_name);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().to_string().c_str());
    return 1;
  }

  check::TraceAnalyzer analyzer;
  if (!trace_path.empty()) {
    auto trace = check::read_trace_versioned(trace_path);
    if (!trace.ok()) {
      std::fprintf(stderr, "%s\n", trace.status().to_string().c_str());
      return 1;
    }
    Status st =
        analyzer.add_trace(trace.value().events, trace.value().version);
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 1;
    }
  } else {
    auto events = check::record_scenario_trace(scenario.value());
    if (!events.ok()) {
      std::fprintf(stderr, "%s\n", events.status().to_string().c_str());
      return 1;
    }
    if (!record_path.empty()) {
      Status st = check::write_trace(record_path, events.value());
      if (!st.is_ok()) {
        std::fprintf(stderr, "%s\n", st.to_string().c_str());
        return 1;
      }
      if (!json) std::printf("recorded trace -> %s\n", record_path.c_str());
    }
    Status st = analyzer.add_trace(events.value());
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 1;
    }
  }

  const check::AnalysisReport report = analyzer.finish();
  const check::RepairPlan plan = check::advise_repairs(report);
  if (!json) {
    std::printf("%s%s", report.to_string().c_str(), plan.to_string().c_str());
  }

  if (!validate) {
    if (json) std::printf("%s\n", plan.to_json().c_str());
    return 0;
  }
  check::CrashExplorerOptions options;
  options.modes = {{"drop_all", pmem::CrashConfig::drop_all()}};
  auto validation = check::validate_repair(scenario.value(), plan, options);
  if (!validation.ok()) {
    std::fprintf(stderr, "validate harness failed: %s\n",
                 validation.status().to_string().c_str());
    return 1;
  }
  const check::RepairValidation& v = validation.value();
  if (json) {
    std::printf("{\"plan\":%s,\"before_findings\":%zu,"
                "\"after_findings\":%zu,\"activations\":%" PRIu64
                ",\"flipped_clean\":%s}\n",
                plan.to_json().c_str(), v.before.findings.size(),
                v.after.findings.size(), v.activations,
                v.flipped_clean() ? "true" : "false");
  } else {
    std::printf("validated scenario \"%s\" under crash enumeration\n%s",
                scenario.value().name.c_str(), v.to_string().c_str());
  }
  return v.flipped_clean() ? 0 : 1;
}

// --- calibrate: fit the serving DES to a loadgen run, predict another ---

// Minimal field scanner for the flat loadgen JSON this repo emits (keys are
// unique inside the object we point at; no escapes in numeric fields).
double json_number(const std::string& text, std::size_t from,
                   const char* key, double fallback) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return fallback;
  return std::atof(text.c_str() + at + needle.size());
}

std::string json_string(const std::string& text, std::size_t from,
                        const char* key) {
  const std::string needle = std::string("\"") + key + "\": \"";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + needle.size();
  const std::size_t end = text.find('"', begin);
  return end == std::string::npos ? "" : text.substr(begin, end - begin);
}

struct LoadgenRun {
  model::ServingMeasurement m;
  bool open = false;
  std::size_t server_loops = 0;  // from the embedded server STATS document
};

Result<LoadgenRun> load_calibration(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return io_error("cannot open " + path);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  const std::size_t cal = text.find("\"calibration\":");
  if (cal == std::string::npos) {
    return invalid_argument(path + ": no \"calibration\" record (re-run "
                            "paxkv-loadgen with --json)");
  }
  LoadgenRun run;
  run.open = json_string(text, cal, "mode") == "open";
  run.m.workload.connections = static_cast<std::size_t>(
      json_number(text, cal, "connections", 1));
  run.m.workload.depth =
      static_cast<std::size_t>(json_number(text, cal, "depth", 1));
  run.m.workload.write_frac = json_number(text, cal, "write_frac", 0.5);
  run.m.workload.open_rate_ops_s =
      run.open ? json_number(text, cal, "offered_load_ops_s", 0) : 0.0;
  run.m.workload.duration_s = json_number(text, cal, "duration_s", 1.0);
  run.m.throughput_ops_s = json_number(text, cal, "throughput_ops_s", 0);
  run.m.p50_us = json_number(text, cal, "p50_us", 0);
  run.m.p95_us = json_number(text, cal, "p95_us", 0);
  run.m.p99_us = json_number(text, cal, "p99_us", 0);
  run.m.read_floor_us = json_number(text, cal, "read_floor_us", 0);
  const std::size_t server = text.find("\"server\": {", cal);
  if (server != std::string::npos) {
    run.server_loops =
        static_cast<std::size_t>(json_number(text, server, "loops", 0));
  }
  return run;
}

int cmd_calibrate(const std::string& fit_path, const std::string& check_path,
                  std::size_t loops, double wave_us, double tolerance) {
  auto fit_run = load_calibration(fit_path);
  if (!fit_run.ok()) {
    std::fprintf(stderr, "%s\n", fit_run.status().to_string().c_str());
    return 1;
  }
  if (fit_run.value().open) {
    std::fprintf(stderr,
                 "calibrate: fit run must be closed-loop (got open)\n");
    return 1;
  }
  if (loops == 0) loops = fit_run.value().server_loops;
  if (loops == 0) loops = 1;

  const model::ServingParams fitted =
      model::calibrate(fit_run.value().m, loops, wave_us);
  std::printf(
      "calibrate: fit on %s (closed, conns=%zu depth=%zu tput=%.0f ops/s)\n"
      "  loops=%zu service_us=%.2f base_rtt_us=%.2f wave_interval_us=%.1f\n",
      fit_path.c_str(), fit_run.value().m.workload.connections,
      fit_run.value().m.workload.depth,
      fit_run.value().m.throughput_ops_s, fitted.loops, fitted.service_us,
      fitted.base_rtt_us, fitted.wave_interval_us);

  if (check_path.empty()) return 0;
  auto check_run = load_calibration(check_path);
  if (!check_run.ok()) {
    std::fprintf(stderr, "%s\n", check_run.status().to_string().c_str());
    return 1;
  }
  const model::ServingMeasurement& actual = check_run.value().m;
  const model::ServingPrediction pred =
      model::simulate_serving(fitted, actual.workload);
  struct Line {
    const char* name;
    double predicted;
    double measured;
  } lines[] = {
      {"throughput_ops_s", pred.throughput_ops_s, actual.throughput_ops_s},
      {"p50_us", pred.p50_us, actual.p50_us},
      {"p95_us", pred.p95_us, actual.p95_us},
      {"p99_us", pred.p99_us, actual.p99_us},
  };
  std::printf("calibrate: predict %s (%s)\n", check_path.c_str(),
              check_run.value().open ? "open" : "closed");
  bool in_band = true;
  for (const Line& l : lines) {
    const double err = model::relative_error(l.predicted, l.measured);
    std::printf("  %-17s predicted=%12.1f measured=%12.1f err=%5.1f%%\n",
                l.name, l.predicted, l.measured, err * 100.0);
    if (err > tolerance) in_band = false;
  }
  std::printf("calibrate: prediction %s tolerance band (%.0f%%)\n",
              in_band ? "within" : "OUTSIDE", tolerance * 100.0);
  return in_band ? 0 : 1;
}

int cmd_trace(const std::string& path) {
  auto events = coherence::load_trace(path);
  if (!events.ok()) {
    std::fprintf(stderr, "%s\n", events.status().to_string().c_str());
    return 1;
  }
  const auto s = coherence::summarize_trace(events.value());
  std::printf("trace %s: %" PRIu64 " messages\n", path.c_str(), s.total);
  std::printf("  RdShared   %" PRIu64 "\n", s.rd_shared);
  std::printf("  RdOwn      %" PRIu64 "\n", s.rd_own);
  std::printf("  DirtyEvict %" PRIu64 "\n", s.dirty_evicts);
  std::printf("  CleanEvict %" PRIu64 "\n", s.clean_evicts);
  std::printf("  Snoops     %" PRIu64 "\n", s.snoops);
  std::printf("  distinct lines touched: %" PRIu64 "\n", s.distinct_lines);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "synctest") {
    const std::size_t pages =
        argc >= 3 ? std::strtoull(argv[2], nullptr, 0) : 256;
    const std::size_t lines =
        argc >= 4 ? std::strtoull(argv[3], nullptr, 0) : 8;
    return cmd_synctest(pages, lines);
  }
  if (cmd == "check") {
    if (argc >= 3 && std::strcmp(argv[2], "--replay") == 0) {
      if (argc < 4) return usage();
      return cmd_replay(argv[3]);
    }
    const std::size_t pages =
        argc >= 3 ? std::strtoull(argv[2], nullptr, 0) : 128;
    const int epochs =
        argc >= 4 ? static_cast<int>(std::strtoul(argv[3], nullptr, 0)) : 6;
    return cmd_check(pages, epochs);
  }
  if (cmd == "explore") {
    std::size_t pages = 2;
    int epochs = 3;
    std::uint64_t every = 1, max_points = 0, seed = 1;
    std::string artifacts;
    bool pipelined = false;
    int positional = 0;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--every" && i + 1 < argc) {
        every = std::strtoull(argv[++i], nullptr, 0);
      } else if (arg == "--pipelined") {
        pipelined = true;
      } else if (arg == "--max-points" && i + 1 < argc) {
        max_points = std::strtoull(argv[++i], nullptr, 0);
      } else if (arg == "--seed" && i + 1 < argc) {
        seed = std::strtoull(argv[++i], nullptr, 0);
      } else if (arg == "--artifacts" && i + 1 < argc) {
        artifacts = argv[++i];
      } else if (positional == 0) {
        pages = std::strtoull(argv[i], nullptr, 0);
        ++positional;
      } else if (positional == 1) {
        epochs = static_cast<int>(std::strtoul(argv[i], nullptr, 0));
        ++positional;
      } else {
        return usage();
      }
    }
    return cmd_explore(pages, epochs, every, max_points, seed, artifacts,
                       pipelined);
  }
  if (cmd == "litmus") {
    std::string shape = "all";
    std::uint64_t every = 1, max_points = 0, max_interleavings = 0, seed = 1;
    std::string seeded_bug, trace_dir;
    bool no_crash = false;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--shape" && i + 1 < argc) {
        shape = argv[++i];
      } else if (arg == "--every" && i + 1 < argc) {
        every = std::strtoull(argv[++i], nullptr, 0);
      } else if (arg == "--max-points" && i + 1 < argc) {
        max_points = std::strtoull(argv[++i], nullptr, 0);
      } else if (arg == "--max-interleavings" && i + 1 < argc) {
        max_interleavings = std::strtoull(argv[++i], nullptr, 0);
      } else if (arg == "--seed" && i + 1 < argc) {
        seed = std::strtoull(argv[++i], nullptr, 0);
      } else if (arg == "--seeded-bug" && i + 1 < argc) {
        seeded_bug = argv[++i];
      } else if (arg == "--trace-dir" && i + 1 < argc) {
        trace_dir = argv[++i];
      } else if (arg == "--no-crash") {
        no_crash = true;
      } else {
        return usage();
      }
    }
    return cmd_litmus(shape, every, max_points, max_interleavings, seed,
                      seeded_bug, trace_dir, no_crash);
  }
  if (cmd == "analyze") {
    std::vector<std::string> paths;
    bool json = false;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        json = true;
      } else {
        paths.push_back(arg);
      }
    }
    if (paths.empty()) return usage();
    return cmd_analyze(paths, json);
  }
  if (cmd == "fix") {
    std::string trace_path;
    std::string scenario = "undo-flush";
    std::string record_path;
    bool validate = false;
    bool json = false;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--scenario" && i + 1 < argc) {
        scenario = argv[++i];
      } else if (arg == "--record" && i + 1 < argc) {
        record_path = argv[++i];
      } else if (arg == "--validate") {
        validate = true;
      } else if (arg == "--json") {
        json = true;
      } else if (trace_path.empty()) {
        trace_path = arg;
      } else {
        return usage();
      }
    }
    return cmd_fix(trace_path, scenario, record_path, validate, json);
  }
  if (cmd == "calibrate") {
    std::string fit_path;
    std::string check_path;
    std::size_t loops = 0;  // 0: take from the fit report's server document
    double wave_us = 200.0;
    double tolerance = 0.35;
    int positional = 0;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--loops" && i + 1 < argc) {
        loops = std::strtoull(argv[++i], nullptr, 0);
      } else if (arg == "--wave-us" && i + 1 < argc) {
        wave_us = std::atof(argv[++i]);
      } else if (arg == "--tolerance" && i + 1 < argc) {
        tolerance = std::atof(argv[++i]);
      } else if (positional == 0) {
        fit_path = arg;
        ++positional;
      } else if (positional == 1) {
        check_path = arg;
        ++positional;
      } else {
        return usage();
      }
    }
    if (fit_path.empty()) return usage();
    return cmd_calibrate(fit_path, check_path, loops, wave_us, tolerance);
  }
  if (argc < 3) return usage();

  if (cmd == "trace") return cmd_trace(argv[2]);
  if (cmd != "info" && cmd != "log" && cmd != "verify" && cmd != "recover" &&
      cmd != "hexdump") {
    return usage();
  }

  auto dev = open_device(argv[2]);
  if (!dev.ok()) {
    std::fprintf(stderr, "%s\n", dev.status().to_string().c_str());
    return 1;
  }
  if (cmd == "info") return cmd_info(dev.value().get());
  if (cmd == "log") return cmd_log(dev.value().get());
  if (cmd == "verify") return cmd_verify(dev.value().get());
  if (cmd == "recover") return cmd_recover(dev.value().get());
  if (cmd == "hexdump" && argc >= 4) {
    const PoolOffset offset = std::strtoull(argv[3], nullptr, 0);
    const std::size_t len =
        argc >= 5 ? std::strtoull(argv[4], nullptr, 0) : 256;
    return cmd_hexdump(dev.value().get(), offset, len);
  }
  return usage();
}
