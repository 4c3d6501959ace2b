// Concurrency torture for the host sync path, designed to run under TSan:
// mutator threads hammer disjoint slabs of vPM while the background flusher
// diffs pages underneath them (the benign-by-contract race that
// capture_line keeps outside TSan's view), with §6 async persists at
// quiesced round boundaries. After a crash, recovery must reproduce the
// last persisted round exactly — and the synchronous and pipelined epoch
// paths must recover bit-identical state.
#include <gtest/gtest.h>

#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "pax/check/checker.hpp"
#include "pax/check/trace_file.hpp"
#include "pax/libpax/runtime.hpp"

namespace pax::libpax {
namespace {

// When PAX_TRACE_DIR is set (the CI analyze step), each crash/recover cycle
// records its PaxCheck event stream as a .paxevt for the offline PaxScope
// pass; a counter disambiguates the cycles within one process.
const char* trace_dir() { return std::getenv("PAX_TRACE_DIR"); }
int trace_counter = 0;

void maybe_write_trace(check::Checker& checker, const char* mode) {
  const char* dir = trace_dir();
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/sync_torture_" + mode + "_" +
                           std::to_string(trace_counter++) + ".paxevt";
  ASSERT_TRUE(check::write_trace(path, checker.recorded_events()).is_ok())
      << path;
}

constexpr std::size_t kPool = 32 << 20;
constexpr int kThreads = 4;
constexpr std::size_t kPagesPerThread = 8;
constexpr int kRounds = 6;

// Thread t owns pages [1 + t*kPagesPerThread, 1 + (t+1)*kPagesPerThread).
std::size_t slab_offset(int t) {
  return (1 + static_cast<std::size_t>(t) * kPagesPerThread) * kPageSize;
}
constexpr std::size_t kSlabBytes = kPagesPerThread * kPageSize;

int pattern(int t, int round) { return 0x20 + t * 37 + round * 11; }

// The mutator side of the §3.5 benign race: capture_line reads racing words
// with relaxed atomic loads, so the writers racing it must be word-sized
// relaxed atomic stores too — then TSan accepts the pair with no
// suppressions. Same codegen as memset-by-words on x86-64.
void fill_slab(std::byte* dst, int byte_pattern, std::size_t bytes) {
  const std::uint64_t word =
      0x0101010101010101ull * static_cast<std::uint8_t>(byte_pattern);
  auto* words = reinterpret_cast<std::uint64_t*>(dst);
  for (std::size_t i = 0; i < bytes / sizeof(std::uint64_t); ++i) {
    __atomic_store_n(&words[i], word, __ATOMIC_RELAXED);
  }
}

// One full crash/recover cycle under `opts`; returns the recovered image of
// all slabs. The final round is committed with a blocking persist() so the
// expected recovery point is deterministic regardless of `crash` mode: any
// post-commit garbage line that survives the crash lottery has a durable
// undo record (logged before its write-back), so recovery rolls it back.
std::vector<std::byte> run_and_recover(pmem::PmemDevice* pm,
                                       const RuntimeOptions& opts,
                                       const pmem::CrashConfig& crash,
                                       const char* mode) {
  // The whole cycle — racing mutators, flusher, async persists, crash,
  // recovery — runs under PaxCheck; any persist-order or lock-discipline
  // violation fails the test.
  check::CheckerOptions checker_opts;
  checker_opts.record_events = trace_dir() != nullptr;
  check::Checker checker(checker_opts);
  pm->set_checker(&checker);
  {
    auto rt = PaxRuntime::attach(pm, opts).value();
    std::barrier round_barrier(kThreads + 1);
    std::vector<std::thread> mutators;
    for (int t = 0; t < kThreads; ++t) {
      mutators.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          fill_slab(rt->vpm_base() + slab_offset(t), pattern(t, r),
                    kSlabBytes);
          round_barrier.arrive_and_wait();  // quiesce for the persist
          round_barrier.arrive_and_wait();  // resume mutating
        }
      });
    }
    for (int r = 0; r < kRounds; ++r) {
      round_barrier.arrive_and_wait();
      // All mutators parked: the §3.5 quiescence contract holds.
      if (r + 1 == kRounds) {
        auto e = rt->persist();
        EXPECT_TRUE(e.ok()) << e.status().to_string();
        // Every scanned page accounts for all of its lines exactly once,
        // and both stats views agree on how many lines were pushed. The
        // flusher only finds clean pages until the mutators resume.
        const SyncStats ss = rt->sync_stats();
        EXPECT_EQ(ss.lines_diffed + ss.lines_skipped,
                  kLinesPerPage * ss.pages_scanned)
            << mode;
        EXPECT_EQ(ss.lines_synced, rt->stats().lines_dirty_found) << mode;
      } else {
        auto e = rt->persist_async();
        EXPECT_TRUE(e.ok()) << e.status().to_string();
      }
      round_barrier.arrive_and_wait();
    }
    for (auto& m : mutators) m.join();
    // Dirty the slabs once more *without* persisting — racing the flusher
    // right up to the teardown; none of this may survive.
    for (int t = 0; t < kThreads; ++t) {
      fill_slab(rt->vpm_base() + slab_offset(t), 0xEE, kSlabBytes);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }  // teardown without persist: crash semantics
  pm->crash(crash);

  RuntimeOptions quiet = opts;
  quiet.start_flusher_thread = false;
  auto rt = PaxRuntime::attach(pm, quiet).value();
  std::vector<std::byte> image(kThreads * kSlabBytes);
  for (int t = 0; t < kThreads; ++t) {
    std::memcpy(image.data() + t * kSlabBytes, rt->vpm_base() + slab_offset(t),
                kSlabBytes);
  }
  auto report = checker.report();
  EXPECT_TRUE(report.clean()) << report.to_string();
  pm->set_checker(nullptr);
  maybe_write_trace(checker, mode);
  return image;
}

// The two epoch paths whose recoveries must be bit-identical: synchronous
// persists with the flusher racing the mutators, and pipelined epochs
// (snapshot drains racing the resumed mutators). Each round dirties 2048
// lines, several sync_lines batches.
RuntimeOptions sync_config() {
  RuntimeOptions o;
  o.start_flusher_thread = true;
  o.flusher_interval = std::chrono::microseconds(50);
  return o;
}

RuntimeOptions pipelined_config() {
  RuntimeOptions o = sync_config();
  o.pipeline_depth = 2;
  return o;
}

void run_all_configs_and_compare(const pmem::CrashConfig& crash,
                                 const char* mode) {
  auto pm_a = pmem::PmemDevice::create_in_memory(kPool);
  auto pm_b = pmem::PmemDevice::create_in_memory(kPool);
  const std::vector<std::byte> sync_image =
      run_and_recover(pm_a.get(), sync_config(), crash, mode);
  const std::vector<std::byte> pipelined_image =
      run_and_recover(pm_b.get(), pipelined_config(), crash, mode);

  // Every slab byte holds the final round's pattern; the 0xEE garbage died
  // (dropped outright, or rolled back off its undo record if it survived).
  for (int t = 0; t < kThreads; ++t) {
    const auto expected =
        static_cast<std::byte>(pattern(t, kRounds - 1) & 0xff);
    for (std::size_t i = 0; i < kSlabBytes; ++i) {
      ASSERT_EQ(sync_image[t * kSlabBytes + i], expected)
          << mode << " slab " << t << " byte " << i;
    }
  }
  // And both epoch paths recovered identical state.
  EXPECT_EQ(sync_image, pipelined_image) << mode;
}

TEST(HostSyncTortureTest, RacingFlusherRecoversLastPersistedRound) {
  run_all_configs_and_compare(pmem::CrashConfig::drop_all(), "drop_all");
}

TEST(HostSyncTortureTest, RandomLineLossRecoversLastPersistedRound) {
  run_all_configs_and_compare(pmem::CrashConfig::random(0.5, 0xfeed), "random");
}

TEST(HostSyncTortureTest, TornLinesRecoverLastPersistedRound) {
  run_all_configs_and_compare(pmem::CrashConfig::torn(0.6, 0xbead), "torn");
}

}  // namespace
}  // namespace pax::libpax
