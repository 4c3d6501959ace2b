#include "pax/common/crc.hpp"

#include <array>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pax {
namespace {

// Slice-by-8 CRC32C tables, generated at static-init time from the
// Castagnoli polynomial (reflected form 0x82f63b78).
struct Crc32cTables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  Crc32cTables() {
    constexpr std::uint32_t kPoly = 0x82f63b78u;
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int b = 0; b < 8; ++b) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (std::size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xff] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

const Crc32cTables& tables() {
  static const Crc32cTables kTables;
  return kTables;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same CRC32C, 8 bytes per
// instruction. Compiled for SSE4.2 and called only when the CPU has it.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::span<const std::byte> data, std::uint32_t seed) {
  std::uint64_t crc = ~seed;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    std::uint64_t word;
    __builtin_memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (n-- > 0) crc32 = _mm_crc32_u8(crc32, static_cast<std::uint8_t>(*p++));
  return ~crc32;
}
#endif

using CrcFn = std::uint32_t (*)(std::span<const std::byte>, std::uint32_t);

CrcFn select_crc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return crc32c_slice8;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  static const CrcFn kImpl = select_crc32c();
  return kImpl(data, seed);
}

std::uint32_t crc32c_slice8(std::span<const std::byte> data,
                            std::uint32_t seed) {
  const auto& t = tables().t;
  std::uint32_t crc = ~seed;
  const std::byte* p = data.data();
  std::size_t n = data.size();

  // Process 8 bytes at a time (slice-by-8).
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    __builtin_memcpy(&lo, p, 4);
    __builtin_memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ static_cast<std::uint8_t>(*p++)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed) {
  return crc32c(
      std::span<const std::byte>(static_cast<const std::byte*>(data), size),
      seed);
}

}  // namespace pax
