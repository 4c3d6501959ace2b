// ShardedMap — a thread-safe persistent hash map built from unmodified
// standard containers.
//
// The paper's concurrency contract (§3.5) puts two obligations on the
// application: the structure itself must be thread safe, and persist() must
// only run while no thread is mutating. ShardedMap discharges both by
// construction:
//
//   * data lives in N independent std::unordered_map shards inside vPM
//     (black-box reuse, as everywhere in libpax);
//   * each shard is guarded by a volatile mutex held only for the duration
//     of one operation — mutexes live in the handle, never in vPM (a lock
//     is meaningless across a crash);
//   * persist() takes every shard lock in order, quiescing all writers,
//     then commits the snapshot — so a ShardedMap snapshot can never
//     contain a torn operation.
//
// Keys and values must be trivially copyable or themselves allocator-aware
// with PaxStlAllocator (same rules as any libpax container).
#pragma once

#include <array>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pax/libpax/persistent.hpp"

namespace pax::libpax {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class ShardedMap {
 public:
  using ShardMap = std::unordered_map<K, V, Hash, Eq,
                                      PaxStlAllocator<std::pair<const K, V>>>;

  /// Opens (or recovers) a sharded map with `shard_count` shards in
  /// `runtime`'s pool. The shard count is fixed at creation and validated
  /// on recovery.
  static Result<ShardedMap> open(PaxRuntime& runtime,
                                 std::size_t shard_count = 16) {
    if (shard_count == 0 || shard_count > kMaxShards) {
      return invalid_argument("shard count must be in [1, 256]");
    }
    auto root = Persistent<Root>::open(runtime, [&](void* mem) {
      new (mem) Root(shard_count, &runtime.heap());
    });
    if (!root.ok()) return root.status();
    if (root.value()->shard_count != shard_count && root.value().recovered()) {
      return failed_precondition(
          "pool was created with a different shard count");
    }
    return ShardedMap(&runtime, std::move(root).value());
  }

  /// Inserts or updates. Thread safe.
  void put(const K& key, const V& value) {
    Shard shard = shard_for(key);
    std::lock_guard lock(*shard.mutex);
    shard.map->insert_or_assign(key, value);
  }

  /// Move-in variant: for allocator-carrying K/V (pool-backed strings),
  /// the caller constructs the values once with the pool allocator and the
  /// map adopts them without a second persistent-heap allocation.
  ///
  /// NOTE: the caller's K/V construction happens before the shard lock, so
  /// any persistent-heap allocation it performs is NOT covered by the
  /// quiescence persist()/persist_async() establish via lock_all() — a
  /// concurrent seal could snapshot mid-allocation. When K or V allocate
  /// from the pool, use emplace() instead.
  void put(K&& key, V&& value) {
    Shard shard = shard_for(key);
    std::lock_guard lock(*shard.mutex);
    shard.map->insert_or_assign(std::move(key), std::move(value));
  }

  /// Insert-or-assign where K and V are built INSIDE the locked region:
  /// `probe` (any type Hash/Eq accept transparently) selects the shard and
  /// the slot; `make_key`/`make_value` run only under the shard lock.
  /// This is the §3.5-safe write path for allocator-aware K/V — their
  /// persistent-heap allocations happen while the shard is quiesced
  /// against lock_all(), so a commit seal can never observe a half-built
  /// allocation. `make_key` is not invoked when the key already exists.
  template <typename KeyLike, typename MakeK, typename MakeV>
  void emplace(const KeyLike& probe, MakeK&& make_key, MakeV&& make_value) {
    Shard shard = shard_for(probe);
    std::lock_guard lock(*shard.mutex);
    auto it = shard.map->find(probe);
    if (it != shard.map->end()) {
      it->second = std::forward<MakeV>(make_value)();
    } else {
      shard.map->emplace(std::forward<MakeK>(make_key)(),
                         std::forward<MakeV>(make_value)());
    }
  }

  /// Thread safe point lookup.
  std::optional<V> get(const K& key) const {
    Shard shard = shard_for(key);
    std::lock_guard lock(*shard.mutex);
    auto it = shard.map->find(key);
    if (it == shard.map->end()) return std::nullopt;
    return it->second;
  }

  /// Removes `key`; returns true if it was present. Thread safe. Accepts
  /// any key-like type when Hash and Eq are transparent (find + iterator
  /// erase — C++20 has no heterogeneous unordered erase).
  template <typename KeyLike = K>
  bool erase(const KeyLike& key) {
    Shard shard = shard_for(key);
    std::lock_guard lock(*shard.mutex);
    auto it = shard.map->find(key);
    if (it == shard.map->end()) return false;
    shard.map->erase(it);
    return true;
  }

  /// Heterogeneous point read without materializing a K: looks `key` up
  /// (any type Hash/Eq accept transparently — e.g. std::string_view probing
  /// pool-allocated string keys) and invokes `fn(const V&)` under the shard
  /// lock. Returns false when absent. The whole point for pool-backed key
  /// types: constructing a temporary K would allocate in (and so dirty)
  /// the persistent heap on a pure read path.
  template <typename KeyLike, typename Fn>
  bool with(const KeyLike& key, Fn&& fn) const {
    Shard shard = shard_for(key);
    std::lock_guard lock(*shard.mutex);
    auto it = shard.map->find(key);
    if (it == shard.map->end()) return false;
    std::forward<Fn>(fn)(it->second);
    return true;
  }

  /// Total entries across shards (takes all locks; O(shards)).
  std::size_t size() const {
    auto locks = lock_all();
    std::size_t total = 0;
    for (const auto& shard : root_->shards) total += shard.size();
    return total;
  }

  /// Visits every entry under full quiescence.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    auto locks = lock_all();
    for (const auto& shard : root_->shards) {
      for (const auto& kv : shard) fn(kv.first, kv.second);
    }
  }

  /// Quiesces all writers (every shard lock) and commits a snapshot: the
  /// §3.5-safe persist.
  Result<Epoch> persist() {
    auto locks = lock_all();
    return runtime_->persist();
  }

  /// Non-blocking variant (§6): seals under quiescence, commits later.
  ///
  /// Quiescence is needed only for the swap itself, not for the drain: the
  /// shard locks are held exactly for the duration of this call. Under a
  /// pipelined runtime (RuntimeOptions::pipeline_depth > 0) persist_async
  /// copies the dirty pages into a sealed-epoch snapshot before returning,
  /// so once the locks drop, readers (get) and writers (put) proceed
  /// concurrently with the background drain of that snapshot — the drain
  /// reads only its private copy, never the live shards. Covered by the
  /// TSan job (ConcurrentGetsDuringPipelinedDrain).
  Result<Epoch> persist_async() {
    auto locks = lock_all();
    return runtime_->persist_async();
  }

  std::size_t shard_count() const { return root_->shard_count; }
  bool recovered() const { return recovered_; }

 private:
  static constexpr std::size_t kMaxShards = 256;

  using ShardVec = std::vector<ShardMap, PaxStlAllocator<ShardMap>>;

  // Persistent root: shard maps + the fixed shard count. The vector itself
  // (header, element array, every bucket and node) lives fully in vPM.
  struct Root {
    std::size_t shard_count;
    ShardVec shards;

    // Each shard map is constructed in place in vPM. Copying a stack
    // temporary instead would carry its uninitialised padding bytes (after
    // the rehash policy's float) into persistent memory, so the persisted
    // bytes would differ from run to run.
    Root(std::size_t n, PaxHeap* heap)
        : shard_count(n), shards(PaxStlAllocator<ShardMap>(heap)) {
      shards.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        shards.emplace_back(typename ShardMap::allocator_type(heap));
      }
    }
  };

  struct Shard {
    ShardMap* map;
    std::mutex* mutex;
  };

  ShardedMap(PaxRuntime* runtime, Persistent<Root> root)
      : runtime_(runtime),
        root_handle_(std::move(root)),
        root_(root_handle_.get()),
        recovered_(root_handle_.recovered()),
        mutexes_(std::make_unique<std::mutex[]>(root_->shard_count)) {}

  template <typename KeyLike>
  Shard shard_for(const KeyLike& key) const {
    const std::size_t idx = Hash{}(key) % root_->shard_count;
    return {&root_->shards[idx], &mutexes_[idx]};
  }

  std::vector<std::unique_lock<std::mutex>> lock_all() const {
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(root_->shard_count);
    for (std::size_t i = 0; i < root_->shard_count; ++i) {
      locks.emplace_back(mutexes_[i]);
    }
    return locks;
  }

  PaxRuntime* runtime_;
  Persistent<Root> root_handle_;
  Root* root_;
  bool recovered_;
  // Volatile, per-handle: rebuilt on every open; never part of the snapshot.
  std::unique_ptr<std::mutex[]> mutexes_;
};

}  // namespace pax::libpax
