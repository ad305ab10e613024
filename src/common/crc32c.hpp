// CRC32C (Castagnoli) checksums for on-disk extent integrity.
//
// Used by the PLFS container index (plfs/container.hpp) to detect silent
// corruption: every extent's checksum -- and, for extents with a frame
// table, one checksum per 32-frame block -- is computed at append time,
// stored in the index record, and verified on every read and by plfs::fsck.
// The Castagnoli polynomial (0x1EDC6F41, reflected 0x82F63B78) is the
// iSCSI / ext4 / RocksDB choice, and the one x86 computes in hardware:
// crc32c() runs the SSE4.2 CRC32 instruction eight bytes at a time when the
// CPU has it (decided once, at first use) and the byte-at-a-time table code
// otherwise.  Both give identical results; crc32c_table() exposes the
// portable path so tests can hold the two against each other on any host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ada {

/// CRC32C of `size` bytes starting at `data`.  Pass a previous crc to
/// continue an incremental computation; 0 starts a fresh one.
std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t crc = 0) noexcept;

inline std::uint32_t crc32c(const std::vector<std::uint8_t>& bytes,
                            std::uint32_t crc = 0) noexcept {
  return crc32c(bytes.data(), bytes.size(), crc);
}

/// The portable table-driven path crc32c() falls back to; same contract.
std::uint32_t crc32c_table(const void* data, std::size_t size, std::uint32_t crc = 0) noexcept;

}  // namespace ada
