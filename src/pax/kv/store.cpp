#include "pax/kv/store.hpp"

#include <algorithm>
#include <utility>

namespace pax::kv {

namespace {

// Per-shard runtime options: a non-zero vpm_base_hint is strided so every
// shard gets its own fixed mapping range. Crash tests rely on this — a
// reincarnated device (PmemDevice::create_in_memory_from a crash cut) is a
// new object, so the runtime's per-device base registry can't place it;
// only a fixed per-shard hint makes recovered interior pointers valid.
libpax::RuntimeOptions shard_runtime_options(const KvStoreOptions& options,
                                             std::size_t shard) {
  libpax::RuntimeOptions rt = options.runtime;
  if (rt.vpm_base_hint != 0) {
    rt.vpm_base_hint += shard * (std::uintptr_t{1} << 36);  // 64 GiB apart
  }
  return rt;
}

}  // namespace

libpax::RuntimeOptions KvStoreOptions::serving_runtime_defaults() {
  libpax::RuntimeOptions rt;
  rt.pipeline_depth = 2;  // overlap wave drains with request processing
  return rt;
}

Result<std::unique_ptr<KvStore>> KvStore::create_in_memory(
    const KvStoreOptions& options) {
  if (options.shards == 0) {
    return invalid_argument("KvStore needs at least one shard");
  }
  std::vector<std::unique_ptr<libpax::PaxRuntime>> runtimes;
  runtimes.reserve(options.shards);
  for (std::size_t i = 0; i < options.shards; ++i) {
    auto rt = libpax::PaxRuntime::create_in_memory(
        options.shard_pool_bytes, shard_runtime_options(options, i));
    if (!rt.ok()) return rt.status();
    runtimes.push_back(std::move(rt).value());
  }
  return build(std::move(runtimes), options);
}

Result<std::unique_ptr<KvStore>> KvStore::attach(
    std::span<pmem::PmemDevice* const> devices,
    const KvStoreOptions& options) {
  if (devices.size() != options.shards) {
    return invalid_argument("device count must match shard count");
  }
  if (options.shards == 0) {
    return invalid_argument("KvStore needs at least one shard");
  }
  std::vector<std::unique_ptr<libpax::PaxRuntime>> runtimes;
  runtimes.reserve(options.shards);
  for (std::size_t i = 0; i < devices.size(); ++i) {
    auto rt = libpax::PaxRuntime::attach(
        devices[i], shard_runtime_options(options, i));
    if (!rt.ok()) return rt.status();
    runtimes.push_back(std::move(rt).value());
  }
  return build(std::move(runtimes), options);
}

Result<std::unique_ptr<KvStore>> KvStore::build(
    std::vector<std::unique_ptr<libpax::PaxRuntime>> runtimes,
    const KvStoreOptions& options) {
  auto store = std::unique_ptr<KvStore>(new KvStore());
  store->shards_.reserve(runtimes.size());
  for (auto& rt : runtimes) {
    auto shard = std::make_unique<Shard>();
    shard->runtime = std::move(rt);
    auto map = Map::open(*shard->runtime, options.map_shards);
    if (!map.ok()) return map.status();
    shard->map = std::make_unique<Map>(std::move(map).value());
    store->shards_.push_back(std::move(shard));
  }

  std::vector<libpax::EpochGroupCommit::Participant> participants;
  participants.reserve(store->shards_.size());
  for (auto& shard : store->shards_) {
    participants.push_back(libpax::EpochGroupCommit::Participant{
        shard->runtime.get(),
        // Seal under full map quiescence: ShardedMap::persist_async takes
        // every slice lock for the duration of the snapshot swap.
        [map = shard->map.get()] { return map->persist_async(); }});
  }
  store->group_ =
      std::make_unique<libpax::EpochGroupCommit>(std::move(participants));
  return store;
}

void KvStore::put(std::string_view key, std::string_view value) {
  const std::size_t idx = shard_for(key);
  Shard& shard = *shards_[idx];
  libpax::PaxStlAllocator<char> alloc(&shard.runtime->heap());
  // emplace() constructs the pool-backed strings under the slice lock, so
  // the persistent-heap allocation is covered by the quiescence a group-
  // commit seal establishes via lock_all() — a wave can never snapshot the
  // heap mid-allocation.
  shard.map->emplace(
      key, [&] { return PString(key.begin(), key.end(), alloc); },
      [&] { return PString(value.begin(), value.end(), alloc); });
  group_->mark_dirty(idx);
}

bool KvStore::get(std::string_view key, std::string* out) const {
  const Shard& shard = *shards_[shard_for(key)];
  return shard.map->with(key, [out](const PString& value) {
    out->assign(value.data(), value.size());
  });
}

bool KvStore::erase(std::string_view key) {
  const std::size_t idx = shard_for(key);
  const bool removed = shards_[idx]->map->erase(key);
  if (removed) group_->mark_dirty(idx);
  return removed;
}

std::vector<std::pair<std::string, std::string>> KvStore::dump_shard(
    std::size_t i) const {
  std::vector<std::pair<std::string, std::string>> out;
  shards_[i]->map->for_each([&out](const PString& k, const PString& v) {
    out.emplace_back(std::string(k.data(), k.size()),
                     std::string(v.data(), v.size()));
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t KvStore::total_log_flushes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->runtime->device().log_stats().flushes;
  }
  return total;
}

}  // namespace pax::kv
