// Endian-explicit binary reading/writing over byte buffers and files.
//
// Wire formats in this repository (XTC/XDR: big-endian; RAW trajectory &
// PLFS index records: little-endian) never rely on host byte order or on
// struct layout; every field goes through these helpers.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace ada {

// --- primitive conversions ---------------------------------------------------

inline std::uint32_t byteswap32(std::uint32_t v) noexcept {
  return ((v & 0x000000ffu) << 24) | ((v & 0x0000ff00u) << 8) |
         ((v & 0x00ff0000u) >> 8) | ((v & 0xff000000u) >> 24);
}

inline std::uint64_t byteswap64(std::uint64_t v) noexcept {
  return (static_cast<std::uint64_t>(byteswap32(static_cast<std::uint32_t>(v))) << 32) |
         byteswap32(static_cast<std::uint32_t>(v >> 32));
}

static_assert(std::endian::native == std::endian::little || std::endian::native == std::endian::big,
              "mixed-endian hosts are unsupported");

inline std::uint32_t to_big_endian32(std::uint32_t v) noexcept {
  return std::endian::native == std::endian::big ? v : byteswap32(v);
}
inline std::uint32_t from_big_endian32(std::uint32_t v) noexcept { return to_big_endian32(v); }
inline std::uint64_t to_little_endian64(std::uint64_t v) noexcept {
  return std::endian::native == std::endian::little ? v : byteswap64(v);
}
inline std::uint64_t from_little_endian64(std::uint64_t v) noexcept { return to_little_endian64(v); }
inline std::uint32_t to_little_endian32(std::uint32_t v) noexcept {
  return std::endian::native == std::endian::little ? v : byteswap32(v);
}
inline std::uint32_t from_little_endian32(std::uint32_t v) noexcept { return to_little_endian32(v); }

// --- growable output buffer ---------------------------------------------------

/// Appends primitives to an owned byte vector.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buffer_.push_back(v); }
  void put_u32_le(std::uint32_t v);
  void put_u64_le(std::uint64_t v);
  void put_u32_be(std::uint32_t v);
  void put_f32_le(float v);
  void put_f64_le(double v);
  void put_bytes(std::span<const std::uint8_t> bytes);
  void put_string_le(const std::string& s);  // u32 length + raw bytes

  std::size_t size() const noexcept { return buffer_.size(); }
  const std::vector<std::uint8_t>& bytes() const noexcept { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }

 private:
  std::vector<std::uint8_t> buffer_;
};

// --- bounded input cursor ------------------------------------------------------

/// Reads primitives from a non-owned byte span with bounds checking.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  Result<std::uint8_t> get_u8();
  Result<std::uint32_t> get_u32_le();
  Result<std::uint64_t> get_u64_le();
  Result<std::uint32_t> get_u32_be();
  Result<float> get_f32_le();
  Result<double> get_f64_le();
  Result<std::vector<std::uint8_t>> get_bytes(std::size_t n);
  Result<std::string> get_string_le();

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }

 private:
  Status require(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// --- whole-file helpers ---------------------------------------------------------

/// Read an entire file into memory.
Result<std::vector<std::uint8_t>> read_file(const std::string& path);

/// Read bytes [offset, offset + length) of a file with pread: exactly that
/// span is read, or fewer bytes when the file ends first (the caller decides
/// whether short is an error).  A missing file is kNotFound.
Result<std::vector<std::uint8_t>> read_file_range(const std::string& path,
                                                  std::uint64_t offset, std::uint64_t length);

/// Write (create/truncate) an entire file.  Flush/close failures are
/// reported (a buffered short write must not look like success).
Status write_file(const std::string& path, std::span<const std::uint8_t> data);

/// Crash-safe replacement: write to `path + ".tmp"`, then rename over
/// `path`.  Readers see either the old or the new content, never a torn
/// mix -- used for PLFS index rewrites.
Status write_file_atomic(const std::string& path, std::span<const std::uint8_t> data);

}  // namespace ada
