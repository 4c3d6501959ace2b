// CRC32C (Castagnoli) for framing persistent records.
//
// Every undo-log record and the pool header carry a CRC so that recovery can
// distinguish a torn (partially persisted) record from a complete one. CRC32C
// is the storage-industry standard polynomial (iSCSI, ext4, LevelDB). On
// x86-64 CPUs with SSE4.2, crc32c() uses the crc32 instruction (chosen once
// at run time); elsewhere it runs the slice-by-8 table-driven software CRC,
// which stays as the portable reference. Both give bit-identical results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace pax {

/// Computes CRC32C over `data`, seeded with `seed` (pass the previous CRC to
/// chain multi-part computations; 0 for a fresh computation).
std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed = 0);

/// The slice-by-8 software implementation (the reference crc32c() must
/// match; used directly where the CPU lacks SSE4.2).
std::uint32_t crc32c_slice8(std::span<const std::byte> data,
                            std::uint32_t seed = 0);

/// Convenience overload for raw buffers.
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t seed = 0);

/// CRC mixed ("masked") so that a CRC stored adjacent to the data it covers
/// does not accidentally validate (LevelDB-style masking).
constexpr std::uint32_t mask_crc(std::uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
constexpr std::uint32_t unmask_crc(std::uint32_t masked) {
  std::uint32_t rot = masked - 0xa282ead8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace pax
