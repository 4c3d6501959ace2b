// Integration test of the paxctl CLI: prepare pools/traces on disk, invoke
// the real binary, check exit codes and key output lines.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "pax/check/trace_file.hpp"
#include "pax/coherence/trace.hpp"
#include "pax/libpax/persistent.hpp"
#include "pax/model/calibrate.hpp"

#ifndef PAXCTL_PATH
#error "PAXCTL_PATH must be defined by the build"
#endif

namespace pax {
namespace {

struct CommandResult {
  int exit_code;
  std::string output;
};

CommandResult run(const std::string& args) {
  const std::string cmd = std::string(PAXCTL_PATH) + " " + args + " 2>&1";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 512> buf;
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    output += buf.data();
  }
  const int status = ::pclose(pipe);
  return {WEXITSTATUS(status), output};
}

const std::string kPool = "/tmp/paxctl_test.pool";

void make_pool(bool persist_something) {
  std::remove(kPool.c_str());
  auto rt = libpax::PaxRuntime::map_pool(kPool, 16 << 20).value();
  if (persist_something) {
    rt->vpm_base()[8192] = std::byte{0x7a};
    ASSERT_TRUE(rt->persist().ok());
  }
}

TEST(PaxctlTest, InfoOnValidPool) {
  make_pool(true);
  auto r = run("info " + kPool);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("committed epoch: 1"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("libpax heap:     present"), std::string::npos);
  std::remove(kPool.c_str());
}

TEST(PaxctlTest, VerifyCleanPool) {
  make_pool(true);
  auto r = run("verify " + kPool);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("OK   header"), std::string::npos);
  EXPECT_NE(r.output.find("pool is clean"), std::string::npos);
  std::remove(kPool.c_str());
}

TEST(PaxctlTest, LogDecodesRecords) {
  make_pool(true);
  auto r = run("log " + kPool);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("LINE_UNDO"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("stale"), std::string::npos);
  std::remove(kPool.c_str());
}

TEST(PaxctlTest, RecoverRunsOnPool) {
  make_pool(true);
  auto r = run("recover " + kPool);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("recovered to epoch 1"), std::string::npos)
      << r.output;
  std::remove(kPool.c_str());
}

TEST(PaxctlTest, HexdumpShowsBytes) {
  make_pool(true);
  auto r = run("hexdump " + kPool + " 0 32");
  EXPECT_EQ(r.exit_code, 0);
  // Pool magic "PAXPOOL1" appears in the ASCII column of the first line.
  EXPECT_NE(r.output.find("PAXPOOL1"), std::string::npos) << r.output;
  std::remove(kPool.c_str());
}

TEST(PaxctlTest, RejectsGarbageFile) {
  const std::string junk = "/tmp/paxctl_junk.bin";
  std::FILE* f = std::fopen(junk.c_str(), "wb");
  std::fputs("this is not a pool", f);
  std::fclose(f);
  auto r = run("info " + junk);
  EXPECT_NE(r.exit_code, 0);
  std::remove(junk.c_str());
}

TEST(PaxctlTest, TraceSummary) {
  const std::string trace_path = "/tmp/paxctl_test.trace";
  std::vector<coherence::CxlEvent> events = {
      {coherence::CxlOp::kRdShared, LineIndex{1}, false},
      {coherence::CxlOp::kRdOwn, LineIndex{2}, false},
      {coherence::CxlOp::kDirtyEvict, LineIndex{2}, true},
  };
  ASSERT_TRUE(coherence::save_trace(trace_path, events).is_ok());
  auto r = run("trace " + trace_path);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("3 messages"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("distinct lines touched: 2"), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(PaxctlTest, CheckRunsCleanWorkload) {
  auto r = run("check 32 4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("paxcheck: clean"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("event(s)"), std::string::npos) << r.output;
}

TEST(PaxctlTest, SynctestSkipsCleanLines) {
  // 4 of 64 lines written per page: after the first epoch seeds the
  // digests, the tracked diff must skip the other lines outright.
  auto r = run("synctest 16 4");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string key = "lines skipped:";
  const std::size_t at = r.output.find(key);
  ASSERT_NE(at, std::string::npos) << r.output;
  EXPECT_GT(std::strtoull(r.output.c_str() + at + key.size(), nullptr, 10),
            0u)
      << r.output;
}

TEST(PaxctlTest, ExploreCleanWorkloadSampled) {
  auto r = run("explore 2 2 --every 9");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean: every recovery matched"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("crash point(s)"), std::string::npos) << r.output;
}

TEST(PaxctlTest, CheckReplayRoundTrip) {
  // A .paxevt with one clean store/flush/drain sequence must replay clean.
  const std::string path = "/tmp/paxctl_test.paxevt";
  std::vector<check::Event> events;
  check::Event e;
  e.seq = 1;
  e.type = check::EventType::kStore;
  e.line = 42;
  events.push_back(e);
  e.seq = 2;
  e.type = check::EventType::kFlush;
  events.push_back(e);
  e.seq = 3;
  e.type = check::EventType::kDrain;
  e.line = check::kNoLine;
  events.push_back(e);
  ASSERT_TRUE(check::write_trace(path, events).is_ok());
  auto r = run("check --replay " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("replayed 3 event(s)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("paxcheck: clean"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(PaxctlTest, CheckReplayRejectsCorruptFile) {
  const std::string junk = "/tmp/paxctl_junk.paxevt";
  std::FILE* f = std::fopen(junk.c_str(), "wb");
  std::fputs("definitely not a paxevt trace", f);
  std::fclose(f);
  auto r = run("check --replay " + junk);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find(".paxevt"), std::string::npos) << r.output;
  std::remove(junk.c_str());
}

TEST(PaxctlTest, AnalyzeFlagsRecordedUndoFlushTrace) {
  // Record the online-silent seeded bug via `fix --record`, then feed the
  // .paxevt back through `analyze`: nonzero exit, named finding kind.
  const std::string path = "/tmp/paxctl_scope.paxevt";
  auto rec = run("fix --scenario undo-flush --record " + path);
  ASSERT_NE(rec.output.find("undo-flush-window"), std::string::npos)
      << rec.output;

  auto r = run("analyze " + path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("undo-flush-window"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("hb edges"), std::string::npos) << r.output;

  auto j = run("analyze " + path + " --json");
  EXPECT_NE(j.exit_code, 0);
  EXPECT_NE(j.output.find("\"clean\":false"), std::string::npos) << j.output;
  EXPECT_NE(j.output.find("\"kind\":\"undo-flush-window\""),
            std::string::npos)
      << j.output;
  std::remove(path.c_str());
}

TEST(PaxctlTest, AnalyzeCleanReplayTraceExitsZero) {
  const std::string path = "/tmp/paxctl_scope_clean.paxevt";
  std::vector<check::Event> events;
  check::Event e;
  e.seq = 1;
  e.type = check::EventType::kStore;
  e.line = 42;
  events.push_back(e);
  e.seq = 2;
  e.type = check::EventType::kFlush;
  events.push_back(e);
  e.seq = 3;
  e.type = check::EventType::kDrain;
  e.line = check::kNoLine;
  events.push_back(e);
  ASSERT_TRUE(check::write_trace(path, events).is_ok());
  auto r = run("analyze " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(PaxctlTest, FixValidateFlipsUndoFlushClean) {
  auto r = run("fix --scenario undo-flush --validate");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("FLIPPED CLEAN"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("hoist-log-flush"), std::string::npos) << r.output;
}

TEST(PaxctlTest, UsageOnBadInvocation) {
  auto r = run("frobnicate /tmp/x");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

// Writes a loadgen-shaped --json report whose calibration record comes from
// the serving DES itself under known ground-truth parameters.
void write_loadgen_json(const std::string& path,
                        const model::ServingParams& truth,
                        const model::ServingWorkload& wl) {
  const model::ServingPrediction sim = model::simulate_serving(truth, wl);
  const bool open = wl.open_rate_ops_s > 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(
      f,
      "{\n"
      "  \"mode\": \"%s\",\n"
      "  \"calibration\": {\"mode\": \"%s\", \"connections\": %zu, "
      "\"depth\": %zu, \"write_frac\": %.4f, \"offered_load_ops_s\": %.1f, "
      "\"throughput_ops_s\": %.1f, \"duration_s\": %.4f, "
      "\"p50_us\": %.2f, \"p95_us\": %.2f, \"p99_us\": %.2f, "
      "\"read_floor_us\": %.2f},\n"
      "  \"server\": {\n  \"loops\": %zu\n  }\n"
      "}\n",
      open ? "open" : "closed", open ? "open" : "closed", wl.connections,
      wl.depth, wl.write_frac, wl.open_rate_ops_s, sim.throughput_ops_s,
      wl.duration_s, sim.p50_us, sim.p95_us, sim.p99_us, sim.read_floor_us,
      truth.loops);
  std::fclose(f);
}

TEST(PaxctlTest, CalibratePredictsUnseenRunWithinBand) {
  model::ServingParams truth;
  truth.loops = 2;
  truth.service_us = 9.0;
  truth.base_rtt_us = 40.0;
  truth.wave_interval_us = 200.0;

  model::ServingWorkload fit_wl;
  fit_wl.connections = 8;
  fit_wl.depth = 8;
  fit_wl.write_frac = 0.5;
  model::ServingWorkload unseen_wl;
  unseen_wl.connections = 16;
  unseen_wl.depth = 4;
  unseen_wl.write_frac = 0.5;

  const std::string fit = "/tmp/paxctl_cal_fit.json";
  const std::string check = "/tmp/paxctl_cal_check.json";
  write_loadgen_json(fit, truth, fit_wl);
  write_loadgen_json(check, truth, unseen_wl);

  // --loops intentionally omitted: it must come from the embedded server
  // document.
  auto r = run("calibrate " + fit + " " + check +
               " --wave-us 200 --tolerance 0.25");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("loops=2"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("within tolerance band"), std::string::npos)
      << r.output;
  std::remove(fit.c_str());
  std::remove(check.c_str());
}

TEST(PaxctlTest, CalibrateFlagsOutOfBandPrediction) {
  model::ServingParams truth;
  truth.loops = 1;
  truth.service_us = 10.0;
  truth.base_rtt_us = 30.0;
  truth.wave_interval_us = 200.0;
  model::ServingWorkload wl;
  wl.connections = 4;
  wl.depth = 8;

  const std::string fit = "/tmp/paxctl_cal_fit2.json";
  const std::string check = "/tmp/paxctl_cal_check2.json";
  write_loadgen_json(fit, truth, wl);
  // The "measured" second run comes from a much slower server than the fit
  // run: no honest prediction can land inside the band.
  model::ServingParams slow = truth;
  slow.service_us = 40.0;
  model::ServingWorkload wl2 = wl;
  wl2.connections = 8;
  write_loadgen_json(check, slow, wl2);

  auto r = run("calibrate " + fit + " " + check + " --tolerance 0.25");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("OUTSIDE tolerance band"), std::string::npos)
      << r.output;
  std::remove(fit.c_str());
  std::remove(check.c_str());
}

TEST(PaxctlTest, CalibrateRejectsReportWithoutRecord) {
  const std::string path = "/tmp/paxctl_cal_norec.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"mode\": \"closed\"}\n", f);
  std::fclose(f);
  auto r = run("calibrate " + path);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("calibration"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pax
