// Helpers shared by the test binaries.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace ada::test {

/// A scratch directory path under the gtest temp dir, unique across
/// processes (pid) and within one (counter).  `ctest -j` runs many test
/// binaries at once, and fixtures in different processes can sit at the
/// same address, so `this` alone does not name a directory uniquely.
inline std::string unique_temp_dir(const std::string& prefix) {
  static std::atomic<std::uint64_t> counter{0};
  return ::testing::TempDir() + "/" + prefix + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1));
}

}  // namespace ada::test
