// KvStore — the PaxKV data plane: N shard runtimes, each a full PAX stack.
//
// Every shard owns a hash slice of the keyspace and is a complete,
// independent instance of the paper's pipeline: its own PmemDevice (or
// borrowed device for crash tests), PmemPool, PaxDevice, vPM region, heap,
// and a ShardedMap of persistent strings inside it. Shards never share
// state, so shard-local operations scale without cross-shard locks and a
// crash recovers each shard to its own last committed epoch.
//
// What ties the shards back together is durability policy, not data: an
// EpochGroupCommit coordinator (libpax/group_commit.hpp) spans all shard
// runtimes so a frontend can either commit shards independently or
// accumulate dirty shards and issue one commit wave covering all of them —
// the cross-shard epoch group commit the serving layer (server.hpp) builds
// its PUT acknowledgements on.
//
// Keyspace slicing uses FNV-1a, deliberately distinct from the
// std::hash-based slicing ShardedMap applies within a shard, so outer and
// inner shard selection stay uncorrelated. Keys and values are arbitrary
// byte strings (protocol.hpp bounds their sizes); inside a shard they live
// as pool-allocated strings, and lookups probe them as string_views via
// ShardedMap's transparent-hash path — a GET never allocates in (and so
// never dirties) the persistent heap.
//
// Thread safety: all operations are thread safe (ShardedMap shard locks);
// the server additionally routes each key's ops through one worker so
// per-connection ordering holds without extra synchronization.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pax/common/status.hpp"
#include "pax/libpax/group_commit.hpp"
#include "pax/libpax/runtime.hpp"
#include "pax/libpax/sharded_map.hpp"
#include "pax/pmem/pmem_device.hpp"

namespace pax::kv {

/// Transparent hashing/equality over byte-string keys: probes accept
/// anything convertible to std::string_view (the pool-allocated key type
/// converts allocator-independently).
struct BytesHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
struct BytesEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a == b;
  }
};

struct KvStoreOptions {
  /// Number of shard runtimes (the unit of group commit).
  std::size_t shards = 4;
  /// Pool bytes per shard (in-memory simulated PM unless attached).
  std::size_t shard_pool_bytes = 64 << 20;
  /// ShardedMap slices within each shard (lock granularity).
  std::size_t map_shards = 16;
  /// Per-shard runtime knobs. pipeline_depth > 0 is what lets group-commit
  /// waves overlap request processing; the serving defaults keep it on.
  libpax::RuntimeOptions runtime = serving_runtime_defaults();

  /// The serving configuration: pipelined epochs (depth 2),
  /// line-granular tracking on.
  static libpax::RuntimeOptions serving_runtime_defaults();
};

class KvStore {
 public:
  using PString = std::basic_string<char, std::char_traits<char>,
                                    libpax::PaxStlAllocator<char>>;
  using Map = libpax::ShardedMap<PString, PString, BytesHash, BytesEq>;

  /// Fresh store on in-memory simulated PM (one device per shard).
  static Result<std::unique_ptr<KvStore>> create_in_memory(
      const KvStoreOptions& options);

  /// Attaches to borrowed per-shard devices — the crash-test/recovery
  /// path: destroy the store, crash() each device, attach again and the
  /// shards recover to their committed epochs. `devices.size()` must equal
  /// `options.shards`.
  static Result<std::unique_ptr<KvStore>> attach(
      std::span<pmem::PmemDevice* const> devices,
      const KvStoreOptions& options);

  // --- Operations (thread safe) -------------------------------------------

  /// Inserts or overwrites. Marks the owning shard dirty in the group
  /// coordinator (the caller decides when a wave or per-shard commit
  /// covers it).
  void put(std::string_view key, std::string_view value);

  /// Point lookup; copies the value into `out` (volatile memory). Returns
  /// false when absent.
  bool get(std::string_view key, std::string* out) const;

  /// Removes `key`; returns true if present. Counts as a write for group
  /// commit (a deletion must be durable before it is acknowledged).
  bool erase(std::string_view key);

  // --- Topology -----------------------------------------------------------

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_for(std::string_view key) const {
    return fnv1a(key) % shards_.size();
  }

  libpax::PaxRuntime& shard_runtime(std::size_t i) {
    return *shards_[i]->runtime;
  }
  Map& shard_map(std::size_t i) { return *shards_[i]->map; }
  bool recovered(std::size_t i) const { return shards_[i]->map->recovered(); }

  /// Keys living on shard `i` (for recovery audits; takes the shard's map
  /// locks).
  std::vector<std::pair<std::string, std::string>> dump_shard(
      std::size_t i) const;

  /// The cross-shard commit coordinator (one participant per shard, seal =
  /// that shard's ShardedMap::persist_async under full map quiescence).
  libpax::EpochGroupCommit& group() { return *group_; }

  /// Sum of undo-log flushes across every shard device — the denominator
  /// the group-commit claim is measured by (flushes per acknowledged op).
  std::uint64_t total_log_flushes() const;

 private:
  struct Shard {
    std::unique_ptr<libpax::PaxRuntime> runtime;
    std::unique_ptr<Map> map;
  };

  static std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
    return h;
  }

  static Result<std::unique_ptr<KvStore>> build(
      std::vector<std::unique_ptr<libpax::PaxRuntime>> runtimes,
      const KvStoreOptions& options);

  KvStore() = default;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<libpax::EpochGroupCommit> group_;
};

}  // namespace pax::kv
