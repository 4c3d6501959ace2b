// Shared helpers for the pax test suites.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "pax/common/types.hpp"
#include "pax/pmem/pmem_device.hpp"
#include "pax/pmem/pool.hpp"

namespace pax::testing {

/// `prefix` followed by decimal `n`, built by appending: GCC 12 at -O3
/// flags the equivalent `"literal" + std::to_string(n)` with a false
/// -Wrestrict, which breaks Release builds with warnings as errors.
inline std::string numbered(std::string prefix, std::size_t n) {
  prefix += std::to_string(n);
  return prefix;
}

/// A line filled with a recognizable per-line pattern derived from `tag`.
inline LineData patterned_line(std::uint64_t tag) {
  LineData d;
  for (std::size_t i = 0; i < kCacheLineSize; ++i) {
    d.bytes[i] = static_cast<std::byte>((tag * 131 + i * 7 + 13) & 0xff);
  }
  return d;
}

/// In-memory device + freshly formatted pool, for unit tests.
struct TestPool {
  std::unique_ptr<pmem::PmemDevice> device;
  pmem::PmemPool pool;

  static TestPool create(std::size_t device_bytes = 1 << 20,
                         std::size_t log_bytes = 64 * 1024) {
    auto dev = pmem::PmemDevice::create_in_memory(device_bytes);
    auto pool = pmem::PmemPool::create(dev.get(), log_bytes);
    if (!pool.ok()) {
      std::abort();
    }
    return TestPool{std::move(dev), pool.value()};
  }

  /// First line index of the data extent.
  LineIndex data_line(std::uint64_t i) const {
    return LineIndex{pool.data_offset() / kCacheLineSize + i};
  }
};

}  // namespace pax::testing
