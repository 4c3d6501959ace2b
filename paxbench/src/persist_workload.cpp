// persist_sparse / persist_dense: one application thread on an in-process
// PaxRuntime (RuntimeOptions::deterministic() with a larger undo-log
// extent, see runtime_options()), in-memory PM, mutating a 32 MiB
// block of vPM and calling persist() once per epoch.
//
//   persist_sparse  8 B into 1 line on each of 2048 random pages per epoch
//                   (2048 lines: fits the 4096-line HBM buffer; the cost is
//                   first-write faults and re-protection)
//   persist_dense   all 64 lines of 512 random pages per epoch (2 MiB, 8x
//                   the HBM buffer; the cost is diff, sync_lines, undo
//                   append, eviction and PM flushes)
//
// The untraced phase times mutate and persist() only. The traced phase
// splits each epoch into first-touch pass, identical re-touch pass,
// sync_step() and persist(), reads every stats() getter around it, and
// then replays the epoch's line and flush counts on a bare PaxDevice and a
// bare PmemDevice. The correctness gate leaves one epoch uncommitted,
// crashes the medium (drop_all), re-attaches, and compares the recovered
// block with the shadow of the last committed epoch.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench.hpp"

namespace paxbench {
namespace {

using pax::kPageSize;

constexpr std::size_t kBlockBytes = 32 << 20;
constexpr std::size_t kBlockPages = kBlockBytes / kPageSize;
constexpr std::size_t kWordsPerPage = kPageSize / sizeof(std::uint64_t);
// Pool = header page + undo-log extent + the block + heap slack.
constexpr int kWarmupEpochs = 2;
constexpr int kSetups = 5;

/// The library's deterministic preset over its defaults: one diff worker
/// and one device persist worker. With the default 4-way fan-outs each
/// persist() waits for the slowest of four threads, and on a host shared
/// with other tenants that is whichever vCPU was just stolen: persist_dense
/// ran 2x slower and its run-to-run spread rose from 0.06 to 0.33 (see
/// paxbench/README.md). The undo-log extent holds a dense epoch: 32768
/// first-touched lines x 96 B = 3 MiB, more than one bank (half the
/// extent) of the 4 MiB default.
pax::libpax::RuntimeOptions runtime_options() {
  pax::libpax::RuntimeOptions o;
  o.log_size = 8 << 20;
  return pax::libpax::RuntimeOptions::deterministic(o);
}

// Pool = header page + undo-log extent + the block + heap slack.
const std::size_t kPoolBytes =
    kPageSize + runtime_options().log_size + kBlockBytes + (1 << 20);

struct Shape {
  std::size_t pages;
  bool dense;
};

/// One epoch's stores: sparse = one word on each page; dense = every word
/// of each page.
struct EpochInput {
  std::vector<std::uint32_t> pages;
  std::vector<std::uint16_t> word;  // sparse: word index within the page
  std::vector<std::uint64_t> values;
};

class Generator {
 public:
  Generator(std::uint64_t seed, Shape shape) : rng_(seed), shape_(shape) {
    perm_.resize(kBlockPages);
    std::iota(perm_.begin(), perm_.end(), 0u);
  }

  /// Distinct pages drawn uniformly (partial Fisher-Yates), values random.
  EpochInput next() { return draw(shape_); }

  /// The seeding epoch: one word on every page of the block.
  EpochInput seeding() { return draw(Shape{kBlockPages, false}); }

 private:
  EpochInput draw(Shape shape) {
    EpochInput in;
    in.pages.resize(shape.pages);
    for (std::size_t i = 0; i < shape.pages; ++i) {
      const std::size_t j = i + rng_.next_below(kBlockPages - i);
      std::swap(perm_[i], perm_[j]);
      in.pages[i] = perm_[i];
    }
    if (shape.dense) {
      in.values.resize(shape.pages * kWordsPerPage);
      for (std::uint64_t& v : in.values) v = rng_.next();
    } else {
      in.word.resize(shape.pages);
      in.values.resize(shape.pages);
      for (std::size_t i = 0; i < shape.pages; ++i) {
        in.word[i] = static_cast<std::uint16_t>(rng_.next_below(kWordsPerPage));
        in.values[i] = rng_.next();
      }
    }
    return in;
  }

  pax::Xoshiro256 rng_;
  Shape shape_;
  std::vector<std::uint32_t> perm_;
};

/// The application's stores. `base` is the vPM block or the shadow.
void store_epoch(std::byte* base, const EpochInput& in) {
  if (in.word.empty()) {
    for (std::size_t i = 0; i < in.pages.size(); ++i) {
      std::memcpy(base + std::size_t{in.pages[i]} * kPageSize,
                  &in.values[i * kWordsPerPage], kPageSize);
    }
  } else {
    for (std::size_t i = 0; i < in.pages.size(); ++i) {
      std::memcpy(base + std::size_t{in.pages[i]} * kPageSize +
                      std::size_t{in.word[i]} * sizeof(std::uint64_t),
                  &in.values[i], sizeof(std::uint64_t));
    }
  }
}

std::uint64_t app_bytes(const EpochInput& in) {
  return in.values.size() * sizeof(std::uint64_t);
}

struct Instance {
  std::unique_ptr<pax::pmem::PmemDevice> pm;
  std::unique_ptr<pax::libpax::PaxRuntime> rt;
  std::byte* block = nullptr;
};

/// Runtime creation plus the seeding epoch — the timed set-up.
Instance open_instance(std::uint64_t seed, Shape shape,
                     std::vector<std::byte>* shadow) {
  Instance s;
  s.pm = pax::pmem::PmemDevice::create_in_memory(kPoolBytes);
  auto rt = pax::libpax::PaxRuntime::attach(s.pm.get(), runtime_options());
  PAX_CHECK_MSG(rt.ok(), "runtime attach");
  s.rt = std::move(rt).value();
  s.block = static_cast<std::byte*>(s.rt->heap().allocate(kBlockBytes, kPageSize));
  PAX_CHECK_MSG(s.block != nullptr, "block allocation");
  s.rt->heap().set_root_offset(s.rt->heap().ptr_to_offset(s.block));
  Generator gen(seed, shape);
  const EpochInput in = gen.seeding();
  store_epoch(s.block, in);
  PAX_CHECK_MSG(s.rt->persist().ok(), "seeding persist");
  shadow->assign(kBlockBytes, std::byte{0});
  store_epoch(shadow->data(), in);
  return s;
}

struct PhaseResult {
  std::vector<std::int64_t> mutate_ns;
  std::vector<std::int64_t> persist_ns;
  std::vector<std::int64_t> epoch_ns;
  // Traced phase only.
  std::vector<std::int64_t> retouch_ns;
  std::vector<std::int64_t> sync_step_ns;
  std::vector<std::int64_t> device_sync_ns;
  std::vector<std::int64_t> device_persist_ns;
  std::vector<std::int64_t> pmem_ns;
  std::uint64_t device_lines = 0;
  std::uint64_t pmem_flushes = 0;
  std::uint64_t pages_touched = 0;
  std::uint64_t app_bytes = 0;
  std::uint64_t failed = 0;
  LayerCounters before;
  LayerCounters after;
};

void emit_phase(Json& j, std::string_view key, const PhaseResult& p) {
  j.begin_object(key)
      .array("mutate_ns", p.mutate_ns)
      .array("persist_ns", p.persist_ns)
      .array("epoch_ns", p.epoch_ns)
      .array("retouch_ns", p.retouch_ns)
      .array("sync_step_ns", p.sync_step_ns)
      .array("device_sync_ns", p.device_sync_ns)
      .array("device_persist_ns", p.device_persist_ns)
      .array("pmem_ns", p.pmem_ns)
      .num("device_lines", p.device_lines)
      .num("pmem_flushes", p.pmem_flushes)
      .num("pages_touched", p.pages_touched)
      .num("app_bytes", p.app_bytes)
      .num("failed", p.failed);
  emit_counter_delta(j, "counters", p.before, p.after);
  j.end_object();
}

class Runner {
 public:
  Runner(Instance* s, Generator* gen, std::vector<std::byte>* shadow)
      : s_(s), gen_(gen), shadow_(shadow) {
    rts_[0] = s_->rt.get();
  }

  std::uint64_t epochs() const { return epochs_; }

  /// Runs epochs until `seconds` of wall time pass. With a tracer the
  /// epochs are split and probed (see the file comment).
  PhaseResult run(double seconds, int max_epochs, Tracer* tracer) {
    PhaseResult p;
    std::optional<DeviceProbe> device_probe;
    std::optional<PmemProbe> pmem_probe;
    if (tracer != nullptr) {
      device_probe.emplace(runtime_options().device);
      pmem_probe.emplace();
    }
    p.before = read_counters(rts_);
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (int n = 0; (max_epochs < 0 || n < max_epochs) && now_ns() < deadline;
         ++n) {
      const EpochInput in = gen_->next();
      const std::uint64_t op = ++epochs_;
      const LayerCounters c0 =
          tracer != nullptr ? read_counters(rts_) : LayerCounters{};

      const std::int64_t t0 = now_ns();
      store_epoch(s_->block, in);
      const std::int64_t t1 = now_ns();
      std::int64_t t2 = t1;
      std::int64_t t3 = t1;
      if (tracer != nullptr) {
        store_epoch(s_->block, in);  // identical re-touch: no faults left to take
        t2 = now_ns();
        s_->rt->sync_step();
        t3 = now_ns();
      }
      const bool ok = s_->rt->persist().ok();
      const std::int64_t t4 = now_ns();

      p.mutate_ns.push_back(t1 - t0);
      p.persist_ns.push_back(t4 - t3);
      p.epoch_ns.push_back(t4 - t0);
      p.pages_touched += in.pages.size();
      p.app_bytes += app_bytes(in);
      if (ok) {
        store_epoch(shadow_->data(), in);
      } else {
        ++p.failed;
      }
      if (tracer == nullptr) continue;

      const std::uint32_t root = tracer->record("bench.epoch", t0, t4, op);
      tracer->record("libpax.mutate", t0, t1, op, root);
      tracer->record("libpax.retouch", t1, t2, op, root);
      tracer->record("libpax.sync_step", t2, t3, op, root);
      tracer->record("libpax.persist", t3, t4, op, root);
      p.retouch_ns.push_back(t2 - t1);
      p.sync_step_ns.push_back(t3 - t2);

      const LayerCounters c1 = read_counters(rts_);
      const std::uint64_t lines = c1.sync.lines_synced - c0.sync.lines_synced;
      const std::uint64_t flushes = c1.pm.line_flushes - c0.pm.line_flushes;
      const std::int64_t d0 = now_ns();
      const auto [sync_ns, commit_ns] =
          device_probe->run(lines, runtime_options().sync_batch_lines, op);
      tracer->record("device.sync_lines", d0, d0 + sync_ns, op);
      tracer->record("device.persist", d0 + sync_ns, d0 + sync_ns + commit_ns,
                     op);
      const std::int64_t m0 = now_ns();
      const std::int64_t pm_ns = pmem_probe->run(flushes, op);
      tracer->record("pmem.store_flush_drain", m0, m0 + pm_ns, op);
      p.device_sync_ns.push_back(sync_ns);
      p.device_persist_ns.push_back(commit_ns);
      p.pmem_ns.push_back(pm_ns);
      p.device_lines += lines;
      p.pmem_flushes += flushes;
    }
    p.after = read_counters(rts_);
    return p;
  }

 private:
  Instance* s_;
  Generator* gen_;
  std::vector<std::byte>* shadow_;
  pax::libpax::PaxRuntime* rts_[1] = {nullptr};
  std::uint64_t epochs_ = 0;
};

}  // namespace

int run_persist(const Args& args) {
  Shape shape{};
  if (args.workload == "persist_sparse") {
    shape = {2048, false};
  } else if (args.workload == "persist_dense") {
    shape = {512, true};
  } else {
    std::fprintf(stderr, "paxbench: unknown persist workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  // Set up several times and keep the last instance; the median is setup_s.
  std::vector<std::int64_t> setup_ns;
  std::vector<std::byte> shadow;
  Instance s;
  for (int i = 0; i < kSetups; ++i) {
    s.rt.reset();  // the runtime first: it borrows the device
    s.pm.reset();
    const std::int64_t t0 = now_ns();
    s = open_instance(args.seed, shape, &shadow);
    setup_ns.push_back(now_ns() - t0);
  }

  // The timed epochs draw from a stream separate from the seeding epoch's.
  Generator gen(mix64(args.seed) ^ 0x5eed, shape);
  Runner runner(&s, &gen, &shadow);
  const PhaseResult warm = runner.run(60, kWarmupEpochs, nullptr);
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const PhaseResult untraced = runner.run(untraced_s, -1, nullptr);
  Tracer tracer;
  PhaseResult traced;
  if (args.trace) traced = runner.run(args.seconds / 2, -1, &tracer);
  const std::string status = read_proc("self", "status");

  // Correctness gate: one more epoch's stores, never persisted, then power
  // loss. Recovery must land exactly on the last committed epoch.
  const pax::Epoch committed = s.rt->committed_epoch();
  store_epoch(s.block, gen.next());
  s.rt.reset();
  s.pm->crash(pax::pmem::CrashConfig::drop_all());
  auto rt = pax::libpax::PaxRuntime::attach(s.pm.get(), runtime_options());
  std::uint64_t mismatches = 0;  // 8-byte words
  bool recovered = rt.ok();
  if (recovered) {
    recovered = rt.value()->committed_epoch() == committed;
    const auto* got = static_cast<const std::byte*>(
        rt.value()->heap().offset_to_ptr(rt.value()->heap().root_offset()));
    if (args.corrupt_expected) shadow[kBlockBytes / 2] ^= std::byte{1};
    for (std::size_t off = 0; got != nullptr && off < kBlockBytes;
         off += sizeof(std::uint64_t)) {
      if (std::memcmp(got + off, shadow.data() + off,
                      sizeof(std::uint64_t)) != 0) {
        ++mismatches;
      }
    }
    recovered = recovered && got != nullptr;
  }

  const std::uint64_t attempted = kSetups + runner.epochs() + 1;
  const std::uint64_t failed = warm.failed + untraced.failed + traced.failed +
                               mismatches + (recovered ? 0 : 1);

  Json j;
  j.begin_object()
      .str("workload", args.workload)
      .num("seed", args.seed)
      .array("setup_ns", setup_ns)
      .num("attempted", attempted)
      .num("failed", failed)
      .num("mismatches", mismatches)
      .str("proc_status", status);
  emit_phase(j, "untraced", untraced);
  if (args.trace) {
    emit_phase(j, "traced", traced);
    if (!args.trace_out.empty() && !tracer.write_chrome_json(args.trace_out)) {
      std::fprintf(stderr, "paxbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  j.end_object();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace paxbench
