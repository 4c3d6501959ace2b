// Generational torture: a pool lives through many crash/recover
// generations. Each generation attaches, mutates an unmodified
// std::unordered_map through a random mixture of features (sync persists,
// §6 async persists, background sync_steps, erases, overwrites), then dies
// at a random point under a random crash mode. An oracle tracks the last
// committed snapshot across generations; every recovery must reproduce it
// exactly — including the allocator state staying sound enough to keep
// absorbing mutations for dozens of generations.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <unordered_map>

#include "pax/check/checker.hpp"
#include "pax/check/trace_file.hpp"
#include "pax/common/rng.hpp"
#include "pax/libpax/persistent.hpp"

namespace pax::libpax {
namespace {

// When PAX_TRACE_DIR is set (the CI analyze step does), every torture run
// records its full PaxCheck event stream and writes it there as a .paxevt —
// raw material for the offline PaxScope pass, which must find nothing.
const char* trace_dir() { return std::getenv("PAX_TRACE_DIR"); }

void maybe_write_trace(check::Checker& checker, const std::string& stem) {
  const char* dir = trace_dir();
  if (dir == nullptr) return;
  const std::string path = std::string(dir) + "/" + stem + ".paxevt";
  ASSERT_TRUE(check::write_trace(path, checker.recorded_events()).is_ok())
      << path;
}

using MapAlloc =
    PaxStlAllocator<std::pair<const std::uint64_t, std::uint64_t>>;
using PMap = std::unordered_map<std::uint64_t, std::uint64_t,
                                std::hash<std::uint64_t>,
                                std::equal_to<std::uint64_t>, MapAlloc>;

class TortureTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TortureTest, GenerationsOfCrashesNeverLoseACommittedSnapshot) {
  const std::uint64_t seed = GetParam();
  Xoshiro256 rng(seed);

  auto pm = pmem::PmemDevice::create_in_memory(64 << 20);
  // Every generation — mutation mix, crashes, recoveries — runs under
  // PaxCheck; the report is verified once per generation below.
  check::CheckerOptions checker_opts;
  checker_opts.record_events = trace_dir() != nullptr;
  check::Checker checker(checker_opts);
  pm->set_checker(&checker);
  RuntimeOptions opts;
  opts.log_size = 4 << 20;
  opts.device.log_flush_batch_bytes = 256;
  opts.device.hbm.capacity_lines = 256;  // small buffer: eviction pressure
  opts.device.hbm.ways = 4;
  // The hundreds digit of the seed picks the sync-path flavor, so the same
  // generational grinder covers every diff configuration: 3xx and 4xx =
  // line tracking (the default), 5xx = tracking off (the page-granular
  // path).
  if (seed >= 500) opts.track_lines = false;

  std::map<std::uint64_t, std::uint64_t> committed_oracle;
  Epoch committed_epoch = 0;

  constexpr int kGenerations = 25;
  for (int gen = 0; gen < kGenerations; ++gen) {
    // --- Recover and verify against the committed oracle ---------------
    auto rt = PaxRuntime::attach(pm.get(), opts).value();
    ASSERT_EQ(rt->committed_epoch(), committed_epoch) << "gen " << gen;
    auto map = Persistent<PMap>::open(*rt).value();
    ASSERT_EQ(map->size(), committed_oracle.size()) << "gen " << gen;
    for (const auto& [k, v] : committed_oracle) {
      auto it = map->find(k);
      ASSERT_NE(it, map->end()) << "gen " << gen << " key " << k;
      ASSERT_EQ(it->second, v) << "gen " << gen << " key " << k;
    }

    // --- Mutate with a random feature mixture ---------------------------
    std::map<std::uint64_t, std::uint64_t> working = committed_oracle;
    const std::uint64_t ops = 50 + rng.next_below(400);
    bool sealed_pending = false;
    std::map<std::uint64_t, std::uint64_t> sealed_oracle;
    Epoch sealed_epoch = 0;

    for (std::uint64_t i = 0; i < ops; ++i) {
      const double dice = rng.next_double();
      const std::uint64_t key = 1 + rng.next_below(300);
      if (dice < 0.55) {
        const std::uint64_t value = rng.next();
        (*map)[key] = value;
        working[key] = value;
      } else if (dice < 0.7) {
        map->erase(key);
        working.erase(key);
      } else if (dice < 0.8) {
        rt->sync_step();
        if (sealed_pending) {
          // sync_step completes a pending async commit.
          committed_oracle = sealed_oracle;
          committed_epoch = sealed_epoch;
          sealed_pending = false;
        }
      } else if (dice < 0.9) {
        auto e = rt->persist();  // completes any pending seal too
        ASSERT_TRUE(e.ok()) << e.status().to_string();
        committed_oracle = working;
        committed_epoch = e.value();
        sealed_pending = false;
      } else {
        auto e = rt->persist_async();
        ASSERT_TRUE(e.ok()) << e.status().to_string();
        if (sealed_pending) {
          // The previous seal was committed as part of this call.
          committed_oracle = sealed_oracle;
          committed_epoch = sealed_epoch;
        }
        sealed_oracle = working;
        sealed_epoch = e.value();
        sealed_pending = true;
      }
    }

    // --- Die at a random moment under a random crash mode ----------------
    rt.reset();  // volatile region + device state gone (no clean shutdown)
    const double mode = rng.next_double();
    if (mode < 0.4) {
      pm->crash(pmem::CrashConfig::drop_all());
    } else if (mode < 0.7) {
      pm->crash(pmem::CrashConfig::random(0.5, seed * 100 + gen));
    } else {
      pm->crash(pmem::CrashConfig::torn(0.6, seed * 100 + gen));
    }
    auto report = checker.report();
    ASSERT_TRUE(report.clean()) << "gen " << gen << "\n" << report.to_string();
  }
  pm->set_checker(nullptr);
  maybe_write_trace(checker, "torture_" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TortureTest,
                         ::testing::Values(301, 302, 303, 304, 401, 402, 501,
                                           502));

}  // namespace
}  // namespace pax::libpax
