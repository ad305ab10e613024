#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define ADA_CRC32C_SSE42 1
#endif

namespace ada {

namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

#ifdef ADA_CRC32C_SSE42
// Compiled for SSE4.2 regardless of the build's target flags; only called
// after the runtime check below says the CPU has the instruction.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(const void* data, std::size_t size,
                                                             std::uint32_t crc) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint64_t state = ~crc;
  for (; size >= 8; size -= 8, bytes += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes, 8);
    state = _mm_crc32_u64(state, word);
  }
  auto tail = static_cast<std::uint32_t>(state);
  for (; size > 0; --size) tail = _mm_crc32_u8(tail, *bytes++);
  return ~tail;
}
#endif

using CrcFn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t) noexcept;

CrcFn pick_impl() noexcept {
#ifdef ADA_CRC32C_SSE42
  // Probe explicitly: a static initializer may call crc32c() before
  // libgcc runs its own CPU probe.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &crc32c_sse42;
#endif
  return &crc32c_table;
}

}  // namespace

std::uint32_t crc32c_table(const void* data, std::size_t size, std::uint32_t crc) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t crc) noexcept {
  static const CrcFn impl = pick_impl();
  return impl(data, size, crc);
}

}  // namespace ada
