#include "pax/check/crashpoint.hpp"

#include <algorithm>
#include <utility>

#include "pax/check/trace_file.hpp"
#include "pax/device/recovery.hpp"

namespace pax::check {

// --- CrashOracle ---------------------------------------------------------

Status CrashOracle::note_commit(Epoch epoch) {
  if (!collect_) return Status::ok();
  auto pool = pmem::PmemPool::open(device_);
  if (!pool.ok()) return pool.status();
  if (!snapshots_.empty() && epoch <= snapshots_.back().epoch) {
    return invalid_argument(
        "oracle epochs must be strictly increasing (got " +
        std::to_string(epoch) + " after " +
        std::to_string(snapshots_.back().epoch) + ")");
  }
  Snapshot snap;
  snap.epoch = epoch;
  snap.events_at = device_->crash_events();
  snap.data.resize(pool.value().data_size());
  device_->read_durable(pool.value().data_offset(), snap.data);
  snapshots_.push_back(std::move(snap));
  return Status::ok();
}

std::uint64_t CrashOracle::baseline_events() const {
  return snapshots_.empty() ? 0 : snapshots_.front().events_at;
}

Status CrashOracle::check_recovered(pmem::PmemPool& pool,
                                    std::uint64_t crash_after) const {
  if (snapshots_.empty()) {
    return failed_precondition("oracle holds no snapshots");
  }
  const Epoch recovered = pool.committed_epoch();

  // The newest snapshot whose commit precedes (or is) the crash point is
  // the "pre" epoch. The only other legal outcome is the next committed
  // epoch: the crash landed inside its persist, after the epoch cell
  // became durable but before the reference run's note_commit observed it.
  std::size_t pre = 0;
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    if (snapshots_[i].events_at <= crash_after) pre = i;
  }
  const Snapshot* expected = nullptr;
  if (recovered == snapshots_[pre].epoch) {
    expected = &snapshots_[pre];
  } else if (pre + 1 < snapshots_.size() &&
             recovered == snapshots_[pre + 1].epoch) {
    expected = &snapshots_[pre + 1];
  }
  if (expected == nullptr) {
    // Appended: GCC 12 at -O3 raises a false -Wrestrict on
    // `" " + std::to_string(n)`.
    std::string post = " (none exists)";
    if (pre + 1 < snapshots_.size()) {
      post = ' ';
      post += std::to_string(snapshots_[pre + 1].epoch);
    }
    return corruption("recovered epoch " + std::to_string(recovered) +
                      " is neither pre-epoch " +
                      std::to_string(snapshots_[pre].epoch) +
                      " nor post-epoch" + post);
  }

  std::vector<std::byte> durable(expected->data.size());
  pool.device()->read_durable(pool.data_offset(), durable);
  if (durable != expected->data) {
    const auto mismatch = std::mismatch(durable.begin(), durable.end(),
                                        expected->data.begin());
    const std::size_t off =
        static_cast<std::size_t>(mismatch.first - durable.begin());
    return corruption("recovered data extent diverges from epoch " +
                      std::to_string(expected->epoch) +
                      " snapshot at data line " +
                      std::to_string(off / kCacheLineSize) + " (byte " +
                      std::to_string(off) + ")");
  }
  return Status::ok();
}

// --- Options / results ---------------------------------------------------

std::vector<CrashMode> CrashExplorerOptions::default_modes(
    std::uint64_t seed) {
  return {
      {"drop_all", pmem::CrashConfig::drop_all()},
      {"random", pmem::CrashConfig::random(0.5, seed)},
      {"torn", pmem::CrashConfig::torn(0.5, seed)},
  };
}

std::string CrashFinding::to_string() const {
  std::string out = "crash after event " + std::to_string(crash_after) +
                    " [" + mode + "]: " + detail;
  if (!artifact.empty()) out += "\n    artifact: " + artifact;
  return out;
}

std::uint64_t ExplorationResult::first_bad() const {
  std::uint64_t best = kNoCrashPoint;
  for (const CrashFinding& f : findings) {
    best = std::min(best, f.crash_after);
  }
  return best;
}

std::string ExplorationResult::to_string() const {
  std::string out =
      "crash exploration: " + std::to_string(crash_points) +
      " crash point(s) of " + std::to_string(total_events) +
      " event(s), " + std::to_string(epochs) + " epoch snapshot(s), " +
      std::to_string(executions) + " execution(s), " +
      std::to_string(recoveries) + " audited recovery/ies";
  if (findings.empty()) {
    out += "\n  clean: every recovery matched a committed snapshot";
  } else {
    out += "\n  " + std::to_string(findings.size()) +
           " finding(s), first bad crash index " +
           std::to_string(first_bad());
    for (const CrashFinding& f : findings) {
      out += "\n  " + f.to_string();
    }
  }
  return out;
}

// --- Determinism drift diagnostics ---------------------------------------

namespace {

// A re-execution disagreed with the reference on the crash-countable event
// count. Diff the two countable subsequences and name the first diverging
// event, so the failure localizes the nondeterminism instead of reporting
// bare counts.
std::string describe_event_drift(std::span<const Event> reference,
                                 std::span<const Event> redo,
                                 std::uint64_t expected,
                                 std::uint64_t observed) {
  const auto countable = [](std::span<const Event> events) {
    std::vector<Event> kept;
    for (const Event& e : events) {
      if (is_crash_countable(e.type)) kept.push_back(e);
    }
    return kept;
  };
  const auto describe = [](const Event& e) {
    std::string out = event_type_name(e.type);
    if (e.line != kNoLine) out += " line " + std::to_string(e.line);
    return out;
  };

  std::string out = "workload is not deterministic: reference run counted " +
                    std::to_string(expected) +
                    " crash-countable event(s), re-execution " +
                    std::to_string(observed);
  const std::vector<Event> ref = countable(reference);
  const std::vector<Event> got = countable(redo);
  const std::size_t common = std::min(ref.size(), got.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (ref[i].type == got[i].type && ref[i].line == got[i].line) continue;
    out += "; first divergence at countable event " + std::to_string(i + 1) +
           ": reference " + describe(ref[i]) + " vs re-execution " +
           describe(got[i]);
    return out;
  }
  if (ref.size() != got.size()) {
    const bool ref_longer = ref.size() > got.size();
    const Event& extra = ref_longer ? ref[common] : got[common];
    out += "; streams agree through countable event " +
           std::to_string(common) + ", then the re-execution " +
           (ref_longer ? "ends early (next reference event: " +
                             describe(extra) + ")"
                       : "appends extra " + describe(extra));
  } else {
    out += "; the recorded streams are identical — the drift arose outside "
           "the recorded window";
  }
  return out;
}

}  // namespace

// --- Stream truncation ---------------------------------------------------

std::span<const Event> truncate_at_crash_event(std::span<const Event> events,
                                               std::uint64_t n) {
  std::uint64_t counted = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!is_crash_countable(events[i].type)) continue;
    if (++counted == n) return events.first(i + 1);
  }
  return events;
}

// --- CrashExplorer -------------------------------------------------------

CrashExplorer::CrashExplorer(std::size_t device_bytes, Workload workload,
                             CrashExplorerOptions options)
    : device_bytes_(device_bytes),
      workload_(std::move(workload)),
      options_(std::move(options)) {
  if (options_.modes.empty()) {
    options_.modes = CrashExplorerOptions::default_modes(options_.seed);
  }
  if (options_.every == 0) options_.every = 1;
}

Result<ExplorationResult> CrashExplorer::explore() {
  ExplorationResult result;

  // Reference pass: count events, record the stream, snapshot each epoch.
  auto ref_device = pmem::PmemDevice::create_in_memory(device_bytes_);
  CheckerOptions ref_options = options_.checker;
  ref_options.record_events = true;
  Checker ref_checker(ref_options);
  ref_device->set_checker(&ref_checker);
  CrashOracle oracle(ref_device.get(), /*collect=*/true);
  const Status ref_status = workload_(*ref_device, oracle);
  ref_device->set_checker(nullptr);
  PAX_RETURN_IF_ERROR(ref_status);
  if (oracle.snapshot_count() == 0) {
    return failed_precondition(
        "workload never called CrashOracle::note_commit");
  }
  result.total_events = ref_device->crash_events();
  result.executions = 1;
  result.epochs = oracle.snapshot_count();
  const std::vector<Event> reference = ref_checker.recorded_events();

  // Crash points: a stride-`every` grid over (baseline, total], evenly
  // resampled when max_crash_points bites — sampling must not silently
  // drop the tail, where teardown-adjacent bugs live.
  std::vector<std::uint64_t> points;
  for (std::uint64_t p = oracle.baseline_events() + 1;
       p <= result.total_events; p += options_.every) {
    points.push_back(p);
  }
  if (options_.max_crash_points > 0 &&
      points.size() > options_.max_crash_points) {
    std::vector<std::uint64_t> sampled;
    sampled.reserve(options_.max_crash_points);
    const std::size_t n = points.size();
    const std::size_t m = options_.max_crash_points;
    for (std::size_t i = 0; i < m; ++i) {
      sampled.push_back(points[i * (n - 1) / (m - 1 > 0 ? m - 1 : 1)]);
    }
    sampled.erase(std::unique(sampled.begin(), sampled.end()),
                  sampled.end());
    points = std::move(sampled);
  }

  for (std::uint64_t point : points) {
    PAX_RETURN_IF_ERROR(
        audit_crash_point(point, reference, oracle, result));
    ++result.crash_points;
    if (options_.max_findings > 0 &&
        result.findings.size() >= options_.max_findings) {
      break;
    }
  }
  return result;
}

Status CrashExplorer::audit_crash_point(std::uint64_t point,
                                        std::span<const Event> reference,
                                        const CrashOracle& oracle,
                                        ExplorationResult& result) {
  // Re-execute with a consistent-cut capture armed at `point`. The stream
  // is recorded (rules off — the reference pass already audited a clean
  // run) purely so a determinism drift can name its first diverging event.
  auto device = pmem::PmemDevice::create_in_memory(device_bytes_);
  device->arm_crash_point(point);
  CheckerOptions redo_options;
  redo_options.persist_order = false;
  redo_options.lock_discipline = false;
  redo_options.record_events = true;
  Checker redo(redo_options);
  device->set_checker(&redo);
  CrashOracle scratch(device.get(), /*collect=*/false);
  const Status rerun = workload_(*device, scratch);
  device->set_checker(nullptr);
  PAX_RETURN_IF_ERROR(rerun);
  ++result.executions;
  if (device->crash_events() != result.total_events) {
    return failed_precondition(
        describe_event_drift(reference, redo.recorded_events(),
                             result.total_events, device->crash_events()));
  }
  auto cut = device->take_crash_cut();
  if (!cut.has_value()) {
    return failed_precondition("armed crash cut at event " +
                               std::to_string(point) +
                               " was never captured");
  }
  const std::span<const Event> prefix =
      truncate_at_crash_event(reference, point);

  for (const CrashMode& mode : options_.modes) {
    auto crashed =
        pmem::PmemDevice::create_in_memory_from(cut->resolve(mode.config));

    CheckerOptions audit_options = options_.checker;
    audit_options.record_events = true;  // artifacts want the full stream
    if (!options_.paxcheck_audit) {
      audit_options.persist_order = false;
      audit_options.lock_discipline = false;
    }
    Checker audit(audit_options);
    audit.replay(prefix);
    audit.on_crash();
    crashed->set_checker(&audit);

    std::string failure;
    auto pool = pmem::PmemPool::open(crashed.get());
    if (!pool.ok()) {
      failure = "pool unreadable after crash: " + pool.status().to_string();
    } else {
      auto recovery = device::recover_pool(pool.value());
      ++result.recoveries;
      if (!recovery.ok()) {
        failure = "recovery failed: " + recovery.status().to_string();
      } else {
        Status invariant = oracle.check_recovered(pool.value(), point);
        if (invariant.is_ok() && invariant_) {
          invariant =
              invariant_(pool.value(), pool.value().committed_epoch());
        }
        if (!invariant.is_ok()) failure = invariant.to_string();
      }
    }
    crashed->set_checker(nullptr);

    Report report = audit.report();
    if (failure.empty() && report.clean()) continue;
    if (failure.empty()) {
      failure = "paxcheck: " + report.violations.front().to_string();
    }

    CrashFinding finding;
    finding.crash_after = point;
    finding.mode = mode.name;
    finding.detail = std::move(failure);
    finding.audit = std::move(report);
    if (!options_.artifact_dir.empty()) {
      const std::string path = options_.artifact_dir + "/crash-" +
                               std::to_string(point) + "-" + mode.name +
                               ".paxevt";
      const Status wrote = write_trace(path, audit.recorded_events());
      if (wrote.is_ok()) {
        finding.artifact = path;
      } else {
        finding.detail += " (artifact write failed: " + wrote.to_string() +
                          ")";
      }
    }
    result.findings.push_back(std::move(finding));
  }
  return Status::ok();
}

}  // namespace pax::check
