// Unit tests for src/common: Result, strings, units, rng, binary_io, table.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/binary_io.hpp"
#include "common/crc32c.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace ada {
namespace {

// --- Result / Status ---------------------------------------------------------

TEST(ResultTest, OkHoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(ResultTest, ErrorHoldsCodeAndMessage) {
  Result<int> r = not_found("missing thing");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.error().message(), "missing thing");
  EXPECT_EQ(r.error().to_string(), "not_found: missing thing");
}

TEST(ResultTest, ValueOrFallsBack) {
  Result<int> bad = io_error("x");
  EXPECT_EQ(bad.value_or(7), 7);
  Result<int> good = 3;
  EXPECT_EQ(good.value_or(7), 3);
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(StatusTest, ErrorPropagatesThroughMacro) {
  auto fails = []() -> Status { return io_error("disk gone"); };
  auto outer = [&]() -> Status {
    ADA_RETURN_IF_ERROR(fails());
    return Status::ok();
  };
  const Status s = outer();
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kIoError);
}

TEST(ResultTest, AssignOrReturnBindsValue) {
  auto inner = []() -> Result<int> { return 5; };
  auto outer = [&]() -> Result<int> {
    ADA_ASSIGN_OR_RETURN(const int v, inner());
    return v * 2;
  };
  EXPECT_EQ(outer().value(), 10);
}

// --- strings -------------------------------------------------------------------

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a \n"), "a");
}

TEST(StringsTest, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  const auto parts = split_whitespace("  mol   addfile  bar.xtc ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "mol");
  EXPECT_EQ(parts[2], "bar.xtc");
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(pad_left("7", 3), "  7");
  EXPECT_EQ(pad_right("7", 3), "7  ");
  EXPECT_EQ(pad_left("1234", 3), "1234");
}

TEST(StringsTest, ParseInt) {
  EXPECT_EQ(parse_int("123"), 123);
  EXPECT_EQ(parse_int(" 99 "), 99);
  EXPECT_EQ(parse_int("-1"), -1);
  EXPECT_EQ(parse_int("12x"), -1);
  EXPECT_EQ(parse_int(""), -1);
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double(" -2.25 "), -2.25);
  EXPECT_TRUE(std::isnan(parse_double("abc")));
  EXPECT_TRUE(std::isnan(parse_double("")));
}

TEST(StringsTest, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

TEST(StringsTest, StartsWithAndUpper) {
  EXPECT_TRUE(starts_with("ATOM  123", "ATOM"));
  EXPECT_FALSE(starts_with("AT", "ATOM"));
  EXPECT_EQ(to_upper("PoPc"), "POPC");
}

// --- units --------------------------------------------------------------------

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(100 * kMB), "100 MB");
  EXPECT_EQ(format_bytes(2.612 * kGB), "2.61 GB");
  EXPECT_EQ(format_bytes(1.1 * kTB), "1.10 TB");
}

TEST(UnitsTest, FormatSeconds) {
  EXPECT_EQ(format_seconds(0.5), "500 ms");
  EXPECT_EQ(format_seconds(13.4), "13.4 s");
  EXPECT_EQ(format_seconds(400 * kMinute), "6.67 h");
}

TEST(UnitsTest, Rates) {
  EXPECT_DOUBLE_EQ(mb_per_s(126), 126e6);
  EXPECT_DOUBLE_EQ(gb_per_s(3), 3e9);
}

// --- rng -----------------------------------------------------------------------

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIndexBounded) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_index(17), 17u);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(42);
  double sum = 0;
  double sum_sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.05);
}

// --- binary io -------------------------------------------------------------------

TEST(BinaryIoTest, RoundTripPrimitives) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u32_le(0xdeadbeef);
  w.put_u64_le(0x0123456789abcdefULL);
  w.put_u32_be(0x01020304);
  w.put_f32_le(3.5f);
  w.put_f64_le(-2.25);
  w.put_string_le("hello");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8().value(), 0xab);
  EXPECT_EQ(r.get_u32_le().value(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64_le().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_u32_be().value(), 0x01020304u);
  EXPECT_FLOAT_EQ(r.get_f32_le().value(), 3.5f);
  EXPECT_DOUBLE_EQ(r.get_f64_le().value(), -2.25);
  EXPECT_EQ(r.get_string_le().value(), "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(BinaryIoTest, BigEndianLayoutOnWire) {
  ByteWriter w;
  w.put_u32_be(0x01020304);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[3], 0x04);
}

TEST(BinaryIoTest, ShortReadIsError) {
  ByteWriter w;
  w.put_u8(1);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.get_u32_le().is_ok() == false);
}

TEST(BinaryIoTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/ada_binary_io_test.bin";
  std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251};
  ASSERT_TRUE(write_file(path, payload).is_ok());
  const auto readback = read_file(path);
  ASSERT_TRUE(readback.is_ok());
  EXPECT_EQ(readback.value(), payload);
}

TEST(BinaryIoTest, MissingFileIsNotFound) {
  const auto r = read_file("/nonexistent/definitely/missing.bin");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
}

TEST(BinaryIoTest, Byteswap) {
  EXPECT_EQ(byteswap32(0x01020304u), 0x04030201u);
  EXPECT_EQ(byteswap64(0x0102030405060708ULL), 0x0807060504030201ULL);
}

// --- table -------------------------------------------------------------------------

// --- crc32c ------------------------------------------------------------------------

TEST(Crc32cTest, KnownAnswers) {
  const std::string check = "123456789";
  const std::vector<std::uint8_t> zeros(32, 0x00);
  const std::vector<std::uint8_t> ones(32, 0xFF);
  std::vector<std::uint8_t> ascending(32);
  for (std::size_t i = 0; i < ascending.size(); ++i) ascending[i] = static_cast<std::uint8_t>(i);
  // The CRC-32C check value, then the RFC 3720 section B.4 vectors.
  using Fn = std::uint32_t (*)(const void*, std::size_t, std::uint32_t) noexcept;
  for (const Fn fn : {Fn{&crc32c_table}, Fn{&crc32c}}) {
    EXPECT_EQ(fn(check.data(), check.size(), 0), 0xE3069283u);
    EXPECT_EQ(fn(zeros.data(), zeros.size(), 0), 0x8A9136AAu);
    EXPECT_EQ(fn(ones.data(), ones.size(), 0), 0x62A8AB43u);
    EXPECT_EQ(fn(ascending.data(), ascending.size(), 0), 0x46DD794Eu);
    EXPECT_EQ(fn(nullptr, 0, 0), 0u);
  }
}

TEST(Crc32cTest, DispatchedPathMatchesTableAtEveryLengthAndAlignment) {
  // On a CPU with SSE4.2 this holds the hardware loop (8-byte words plus a
  // byte tail) against the table; elsewhere both sides are the table.
  std::vector<std::uint8_t> buffer(1024 + 8);
  Rng rng(0xC2C);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      ASSERT_EQ(crc32c(buffer.data() + start, length), crc32c_table(buffer.data() + start, length))
          << "start " << start << " length " << length;
    }
  }
}

TEST(Crc32cTest, IncrementalContinuationEqualsOneShot) {
  std::vector<std::uint8_t> buffer(777);
  Rng rng(7);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const std::uint32_t whole = crc32c(buffer);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{8}, std::size_t{13},
                                  std::size_t{512}, buffer.size()}) {
    const std::uint32_t head = crc32c(buffer.data(), split);
    EXPECT_EQ(crc32c(buffer.data() + split, buffer.size() - split, head), whole) << split;
    EXPECT_EQ(crc32c_table(buffer.data() + split, buffer.size() - split,
                           crc32c_table(buffer.data(), split)),
              whole)
        << split;
  }
}

TEST(TableTest, AlignedOutput) {
  Table t({"frames", "time"});
  t.add_row({"626", "1.5"});
  t.add_row({"5006", "13.4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("frames  time"), std::string::npos);
  EXPECT_NE(out.find("5006    13.4"), std::string::npos);
}

TEST(TableTest, CsvQuoting) {
  Table t({"a", "b"});
  t.add_row({"plain", "has,comma"});
  t.add_row({"has\"quote", "x"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
  EXPECT_NE(os.str().find("\"has\"\"quote\""), std::string::npos);
}

}  // namespace
}  // namespace ada
