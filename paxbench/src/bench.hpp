// PaxBench measuring binary internals: argument block, JSON emission, the span
// recorder, layer counter snapshots and the bare-device probes.
//
// This binary only measures and checks. Every statistic (percentiles, rates,
// per-epoch ratios, self time) is computed by paxbench/stats.py from the raw
// samples and counter deltas this binary prints, so that maths is unit
// tested in one place.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pax/common/check.hpp"
#include "pax/common/rng.hpp"
#include "pax/device/pax_device.hpp"
#include "pax/libpax/runtime.hpp"
#include "pax/pmem/pmem_device.hpp"
#include "pax/pmem/pool.hpp"

namespace paxbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds since the first call in this process.
std::int64_t now_ns();

struct Args {
  std::string mode;      // persist | kv | kv-replay
  std::string workload;  // persist_sparse | persist_dense | kv_write | kv_read
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON path (trace runs)
  std::uint16_t port = 0;
  int server_pid = 0;
  /// Test hook: plants one wrong expected value before the correctness
  /// gate runs, which must then report a mismatch.
  bool corrupt_expected = false;
};

int run_persist(const Args& args);
int run_kv_client(const Args& args);
int run_kv_replay(const Args& args);

/// SplitMix64 finalizer: a bijection on 64-bit values, used to derive
/// keys and values from (seed, index) pairs without storing them.
inline std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- JSON emission ---------------------------------------------------------

/// Minimal streaming JSON writer; the caller keeps keys and nesting valid.
class Json {
 public:
  Json& begin_object(std::string_view key = {});
  Json& end_object();
  Json& begin_array(std::string_view key = {});
  Json& end_array();
  Json& num(std::string_view key, std::uint64_t v);
  Json& num(std::string_view key, std::int64_t v);
  Json& str(std::string_view key, std::string_view v);
  Json& array(std::string_view key, const std::vector<std::int64_t>& v);
  Json& array(std::string_view key, const std::vector<std::uint64_t>& v);
  const std::string& text() const { return out_; }

 private:
  void sep(std::string_view key);
  std::string out_;
  bool first_ = true;
};

// --- Spans -----------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      // 1-based; 0 = none
  std::uint32_t parent = 0;  // id of the enclosing span, 0 for a root
  std::uint64_t op = 0;      // the e2e unit (epoch, request, wave cycle)
  std::uint32_t tid = 0;
};

/// In-memory span recorder: one per thread, merged before writing. Spans
/// are only recorded around calls the benchmark itself makes.
class Tracer {
 public:
  explicit Tracer(std::uint32_t tid = 0) : tid_(tid) {}

  std::uint32_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t op,
                       std::uint32_t parent = 0);

  /// Appends another tracer's spans, renumbering their ids.
  void merge(const Tracer& other);

  std::size_t size() const { return spans_.size(); }

  /// Writes Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_json(const std::string& path) const;

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
};

// --- Layer counters --------------------------------------------------------

/// Every public stats() getter on the persist path, summed over runtimes.
struct LayerCounters {
  std::uint64_t faults = 0;
  std::uint64_t protect_syscalls = 0;
  pax::libpax::RuntimeStats rt;
  pax::libpax::SyncStats sync;
  pax::device::DeviceStats dev;
  pax::device::HbmStats hbm;
  pax::device::UndoLoggerStats log;
  pax::pmem::PmemStats pm;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_contended = 0;
};

LayerCounters read_counters(std::span<pax::libpax::PaxRuntime* const> rts);

/// Writes after - before for every counter as one JSON object.
void emit_counter_delta(Json& j, std::string_view key,
                        const LayerCounters& before,
                        const LayerCounters& after);

// --- Bare-device probes ----------------------------------------------------

/// A PaxDevice on its own in-memory pool, configured like the runtime's,
/// driven directly with an epoch's line count through sync_lines (in the
/// runtime's batch size) and then persist — the device layer's cost
/// without the libpax frontend.
class DeviceProbe {
 public:
  explicit DeviceProbe(const pax::device::DeviceConfig& config);
  DeviceProbe(const DeviceProbe&) = delete;  // dev_ points into pool_
  DeviceProbe& operator=(const DeviceProbe&) = delete;
  /// Returns {sync_lines ns, persist ns}.
  std::pair<std::int64_t, std::int64_t> run(std::size_t lines,
                                            std::size_t batch,
                                            std::uint64_t salt);

 private:
  std::unique_ptr<pax::pmem::PmemDevice> pm_;
  std::optional<pax::pmem::PmemPool> pool_;
  std::unique_ptr<pax::device::PaxDevice> dev_;
};

/// A bare PmemDevice replaying an epoch's flush count: store + flush per
/// line, one drain at the end. The simulated medium's own cost.
class PmemProbe {
 public:
  PmemProbe();
  std::int64_t run(std::uint64_t flushes, std::uint64_t salt);

 private:
  std::unique_ptr<pax::pmem::PmemDevice> pm_;
};

/// Raw text of /proc/<pid>/<file> ("self" for this process), or "".
std::string read_proc(const std::string& pid, const char* file);

}  // namespace paxbench
