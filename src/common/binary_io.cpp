#include "common/binary_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

namespace ada {

// --- ByteWriter ----------------------------------------------------------------

void ByteWriter::put_u32_le(std::uint32_t v) {
  const std::uint32_t wire = to_little_endian32(v);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&wire);
  buffer_.insert(buffer_.end(), p, p + 4);
}

void ByteWriter::put_u64_le(std::uint64_t v) {
  const std::uint64_t wire = to_little_endian64(v);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&wire);
  buffer_.insert(buffer_.end(), p, p + 8);
}

void ByteWriter::put_u32_be(std::uint32_t v) {
  const std::uint32_t wire = to_big_endian32(v);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&wire);
  buffer_.insert(buffer_.end(), p, p + 4);
}

void ByteWriter::put_f32_le(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, 4);
  put_u32_le(bits);
}

void ByteWriter::put_f64_le(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  put_u64_le(bits);
}

void ByteWriter::put_bytes(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::put_string_le(const std::string& s) {
  put_u32_le(static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  buffer_.insert(buffer_.end(), p, p + s.size());
}

// --- ByteReader ----------------------------------------------------------------

Status ByteReader::require(std::size_t n) {
  if (remaining() < n) {
    return io_error("short read: need " + std::to_string(n) + " bytes, have " +
                    std::to_string(remaining()));
  }
  return Status::ok();
}

Result<std::uint8_t> ByteReader::get_u8() {
  ADA_RETURN_IF_ERROR(require(1));
  return data_[pos_++];
}

Result<std::uint32_t> ByteReader::get_u32_le() {
  ADA_RETURN_IF_ERROR(require(4));
  std::uint32_t wire = 0;
  std::memcpy(&wire, data_.data() + pos_, 4);
  pos_ += 4;
  return from_little_endian32(wire);
}

Result<std::uint64_t> ByteReader::get_u64_le() {
  ADA_RETURN_IF_ERROR(require(8));
  std::uint64_t wire = 0;
  std::memcpy(&wire, data_.data() + pos_, 8);
  pos_ += 8;
  return from_little_endian64(wire);
}

Result<std::uint32_t> ByteReader::get_u32_be() {
  ADA_RETURN_IF_ERROR(require(4));
  std::uint32_t wire = 0;
  std::memcpy(&wire, data_.data() + pos_, 4);
  pos_ += 4;
  return from_big_endian32(wire);
}

Result<float> ByteReader::get_f32_le() {
  ADA_ASSIGN_OR_RETURN(const std::uint32_t bits, get_u32_le());
  float v = 0;
  std::memcpy(&v, &bits, 4);
  return v;
}

Result<double> ByteReader::get_f64_le() {
  ADA_ASSIGN_OR_RETURN(const std::uint64_t bits, get_u64_le());
  double v = 0;
  std::memcpy(&v, &bits, 8);
  return v;
}

Result<std::vector<std::uint8_t>> ByteReader::get_bytes(std::size_t n) {
  ADA_RETURN_IF_ERROR(require(n));
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Result<std::string> ByteReader::get_string_le() {
  ADA_ASSIGN_OR_RETURN(const std::uint32_t n, get_u32_le());
  ADA_RETURN_IF_ERROR(require(n));
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

// --- whole-file helpers -----------------------------------------------------------

Result<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!f) return not_found("cannot open " + path);
  if (std::fseek(f.get(), 0, SEEK_END) != 0) return io_error("fseek failed on " + path);
  const long size = std::ftell(f.get());
  if (size < 0) return io_error("ftell failed on " + path);
  if (std::fseek(f.get(), 0, SEEK_SET) != 0) return io_error("fseek failed on " + path);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  if (size > 0 && std::fread(data.data(), 1, data.size(), f.get()) != data.size()) {
    return io_error("short read on " + path);
  }
  return data;
}

Result<std::vector<std::uint8_t>> read_file_range(const std::string& path,
                                                  std::uint64_t offset, std::uint64_t length) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return errno == ENOENT ? not_found("cannot open " + path)
                           : io_error("cannot open " + path + ": " + std::strerror(errno));
  }
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } const closer{fd};
  // Size the buffer by what the file holds, so a lying length fails short
  // instead of allocating it.
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return io_error("fstat failed on " + path + ": " + std::strerror(errno));
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  std::vector<std::uint8_t> data(
      static_cast<std::size_t>(offset >= size ? 0 : std::min(length, size - offset)));
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::pread(fd, data.data() + done, data.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return io_error("pread failed on " + path + ": " + std::strerror(errno));
    if (n == 0) break;  // end of file
    done += static_cast<std::size_t>(n);
  }
  data.resize(done);
  return data;
}

Status write_file(const std::string& path, std::span<const std::uint8_t> data) {
  // Close explicitly: stdio buffers writes, so a full disk or failed flush
  // surfaces at fflush/fclose -- swallowing their return values turns a
  // short write into a reported success.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return io_error("cannot create " + path);
  const bool wrote =
      data.empty() || std::fwrite(data.data(), 1, data.size(), f) == data.size();
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!wrote) return io_error("short write on " + path);
  if (!flushed || !closed) return io_error("flush/close failed on " + path);
  return Status::ok();
}

Status write_file_atomic(const std::string& path, std::span<const std::uint8_t> data) {
  const std::string tmp = path + ".tmp";
  ADA_RETURN_IF_ERROR(write_file(tmp, data));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return io_error("rename " + tmp + " -> " + path + " failed");
  }
  return Status::ok();
}

}  // namespace ada
