// Unit tests for the deterministic fault-injection plane (common/faults.hpp)
// and the retry policy that consumes its outcomes (common/retry.hpp):
// schedule determinism, the spec grammar, scoped arming, the zero-overhead
// disabled path, and retry/backoff/deadline semantics.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.hpp"
#include "common/faults.hpp"
#include "common/result.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "plfs/plfs.hpp"
#include "test_util.hpp"

namespace ada {
namespace {

using fault::Injector;
using fault::Outcome;
using fault::Schedule;
using fault::ScopedFault;

// Every test starts and ends with a clean global injector: arming is
// process-global state, and leaking an arm would poison later tests.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { Injector::global().disarm_all(); }
  void TearDown() override { Injector::global().disarm_all(); }
};

// Fire/no-fire sequence of `site` over `hits` evaluations.
std::vector<bool> fire_sequence(const std::string& site, int hits) {
  std::vector<bool> out;
  out.reserve(static_cast<std::size_t>(hits));
  for (int i = 0; i < hits; ++i) out.push_back(fault::hit(site).fired());
  return out;
}

TEST_F(FaultInjectionTest, DisabledByDefault) {
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::hit("plfs.write_dropping").fired());
  EXPECT_TRUE(fault::check("plfs.write_dropping").is_ok());
}

TEST_F(FaultInjectionTest, DisabledPathNeverReachesTheInjector) {
  // The zero-overhead contract: while nothing is armed, fault::hit is one
  // relaxed load -- the slow-path evaluation counter must not move.
  const std::uint64_t before = Injector::global().evaluations();
  for (int i = 0; i < 1000; ++i) fault::hit("some.site");
  EXPECT_EQ(Injector::global().evaluations(), before);

  // Armed: every hit is an evaluation, even of *other* sites.
  ScopedFault armed("other.site", Schedule::fail_nth(1));
  fault::hit("some.site");
  EXPECT_EQ(Injector::global().evaluations(), before + 1);
}

TEST_F(FaultInjectionTest, FailNthFiresExactlyOnce) {
  ScopedFault armed("s", Schedule::fail_nth(3));
  EXPECT_EQ(fire_sequence("s", 6), (std::vector<bool>{false, false, true, false, false, false}));
  EXPECT_EQ(Injector::global().hits("s"), 6u);
  EXPECT_EQ(Injector::global().fired("s"), 1u);
}

TEST_F(FaultInjectionTest, FailEveryFiresOnMultiples) {
  ScopedFault armed("s", Schedule::fail_every(2));
  EXPECT_EQ(fire_sequence("s", 6), (std::vector<bool>{false, true, false, true, false, true}));
}

TEST_F(FaultInjectionTest, DownWindowCoversInclusiveRange) {
  ScopedFault armed("s", Schedule::down_window(2, 4));
  EXPECT_EQ(fire_sequence("s", 6), (std::vector<bool>{false, true, true, true, false, false}));
}

TEST_F(FaultInjectionTest, ProbabilityScheduleIsSeedDeterministic) {
  Schedule p = Schedule::fail_probability(0.5, 42);
  std::vector<bool> first;
  {
    ScopedFault armed("s", p);
    first = fire_sequence("s", 64);
  }
  {
    // Re-arming resets the per-site Rng: identical seed, identical sequence.
    ScopedFault armed("s", p);
    EXPECT_EQ(fire_sequence("s", 64), first);
  }
  {
    ScopedFault armed("s", Schedule::fail_probability(0.5, 43));
    EXPECT_NE(fire_sequence("s", 64), first) << "different seed should differ";
  }
  // A 0.5 schedule should actually fire sometimes and pass sometimes.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(FaultInjectionTest, TornAndCorruptCarryTheirParameters) {
  {
    ScopedFault armed("s", Schedule::torn_write(0.25, 1));
    const Outcome outcome = fault::hit("s");
    EXPECT_EQ(outcome.kind, Outcome::Kind::kTorn);
    EXPECT_DOUBLE_EQ(outcome.fraction, 0.25);
  }
  {
    ScopedFault armed("s", Schedule::corrupt_read(1, 0.75));
    const Outcome outcome = fault::hit("s");
    EXPECT_EQ(outcome.kind, Outcome::Kind::kCorrupt);
    EXPECT_DOUBLE_EQ(outcome.fraction, 0.75);
  }
  {
    ScopedFault armed("s", Schedule::latency_spike(0.125));
    const Outcome outcome = fault::hit("s");
    EXPECT_EQ(outcome.kind, Outcome::Kind::kDelay);
    EXPECT_DOUBLE_EQ(outcome.delay_seconds, 0.125);
    // check() treats a pure delay as success: error-only sites proceed.
    ScopedFault delay2("s2", Schedule::latency_spike(0.125));
    EXPECT_TRUE(fault::check("s2").is_ok());
  }
}

TEST_F(FaultInjectionTest, CheckCollapsesTornToError) {
  // An error-only call site must never silently drop an armed torn/corrupt
  // effect -- check() converts them to failures.
  ScopedFault armed("s", Schedule::torn_write(0.5, 1));
  const Status status = fault::check("s");
  ASSERT_FALSE(status.is_ok());
}

TEST_F(FaultInjectionTest, ScopedFaultDisarmsOnDestruction) {
  {
    ScopedFault armed("scoped.site", Schedule::fail_nth(1));
    EXPECT_TRUE(fault::enabled());
    EXPECT_EQ(Injector::global().armed_sites(), std::vector<std::string>{"scoped.site"});
  }
  EXPECT_FALSE(fault::enabled());
  EXPECT_TRUE(Injector::global().armed_sites().empty());
}

TEST_F(FaultInjectionTest, ReArmingResetsHitCount) {
  Injector::global().arm("s", Schedule::fail_nth(2));
  fault::hit("s");
  Injector::global().arm("s", Schedule::fail_nth(2));
  EXPECT_EQ(Injector::global().hits("s"), 0u);
  EXPECT_EQ(fire_sequence("s", 2), (std::vector<bool>{false, true}));
  Injector::global().disarm("s");
}

TEST_F(FaultInjectionTest, ParseScheduleGrammar) {
  auto nth = fault::parse_schedule("nth:3");
  ASSERT_TRUE(nth.is_ok());
  EXPECT_EQ(nth.value().trigger, Schedule::Trigger::kNth);
  EXPECT_EQ(nth.value().nth, 3u);

  auto every = fault::parse_schedule("every:4");
  ASSERT_TRUE(every.is_ok());
  EXPECT_EQ(every.value().trigger, Schedule::Trigger::kEveryNth);

  auto prob = fault::parse_schedule("prob:0.25:99");
  ASSERT_TRUE(prob.is_ok());
  EXPECT_EQ(prob.value().trigger, Schedule::Trigger::kProbability);
  EXPECT_DOUBLE_EQ(prob.value().probability, 0.25);
  EXPECT_EQ(prob.value().seed, 99u);

  auto down = fault::parse_schedule("down:2:5");
  ASSERT_TRUE(down.is_ok());
  EXPECT_EQ(down.value().trigger, Schedule::Trigger::kWindow);
  EXPECT_EQ(down.value().window_begin, 2u);
  EXPECT_EQ(down.value().window_end, 5u);

  auto torn = fault::parse_schedule("torn:0.5:2");
  ASSERT_TRUE(torn.is_ok());
  EXPECT_EQ(torn.value().effect, Outcome::Kind::kTorn);
  EXPECT_EQ(torn.value().nth, 2u);

  auto corrupt = fault::parse_schedule("corrupt");
  ASSERT_TRUE(corrupt.is_ok());
  EXPECT_EQ(corrupt.value().effect, Outcome::Kind::kCorrupt);

  auto delay = fault::parse_schedule("delay:0.01:0.5");
  ASSERT_TRUE(delay.is_ok());
  EXPECT_EQ(delay.value().effect, Outcome::Kind::kDelay);
  EXPECT_DOUBLE_EQ(delay.value().delay_seconds, 0.01);

  for (const char* bad : {"", "nth", "nth:0", "nth:x", "prob:2.0", "prob:-1", "down:3",
                          "torn:1.5", "wibble:1", "delay"}) {
    EXPECT_FALSE(fault::parse_schedule(bad).is_ok()) << "spec should be rejected: " << bad;
  }
}

TEST_F(FaultInjectionTest, ArmSpecArmsMultipleSites) {
  ASSERT_TRUE(Injector::global().arm_spec("a.site=nth:1,b.site=delay:0.5").is_ok());
  const auto sites = Injector::global().armed_sites();
  EXPECT_EQ(sites.size(), 2u);
  EXPECT_TRUE(fault::hit("a.site").fired());
  EXPECT_EQ(fault::hit("b.site").kind, Outcome::Kind::kDelay);

  EXPECT_FALSE(Injector::global().arm_spec("no-equals-sign").is_ok());
  EXPECT_FALSE(Injector::global().arm_spec("a.site=bogus:1").is_ok());
  EXPECT_FALSE(Injector::global().arm_spec("=nth:1").is_ok());
}

// --- retry_sync -----------------------------------------------------------

RetryPolicy fast_policy() {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_s = 1e-4;  // keep test wall time negligible
  return policy;
}

TEST_F(FaultInjectionTest, RetrySucceedsAfterTransientFault) {
  ScopedFault armed("unit.retry", Schedule::fail_nth(1));
  int calls = 0;
  const Status status = retry_sync("unit_retry", fast_policy(), [&] {
    ++calls;
    return fault::check("unit.retry");
  });
  EXPECT_TRUE(status.is_ok());
  EXPECT_EQ(calls, 2);  // first try injected, retry clean
}

TEST_F(FaultInjectionTest, RetryExhaustsOnPersistentTransientError) {
  int calls = 0;
  const Status status = retry_sync("unit_retry", fast_policy(), [&] {
    ++calls;
    return Status(io_error("still down"));
  });
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kIoError);
  EXPECT_EQ(calls, 4);  // max_attempts
}

TEST_F(FaultInjectionTest, PermanentErrorIsNotRetried) {
  int calls = 0;
  const Status status = retry_sync("unit_retry", fast_policy(), [&] {
    ++calls;
    return Status(corrupt_data("checksum mismatch"));
  });
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kCorruptData);
  EXPECT_EQ(calls, 1);
}

TEST_F(FaultInjectionTest, RetryResultCarriesTheValue) {
  ScopedFault armed("unit.retry", Schedule::fail_nth(1));
  const Result<int> result = retry_sync("unit_retry", fast_policy(), [&]() -> Result<int> {
    ADA_RETURN_IF_ERROR(fault::check("unit.retry"));
    return 7;
  });
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value(), 7);
}

TEST_F(FaultInjectionTest, DeadlineConvertsToDeadlineExceeded) {
  RetryPolicy policy = fast_policy();
  policy.max_attempts = 1000;
  policy.initial_backoff_s = 0.05;
  policy.op_timeout_s = 0.02;  // first backoff already overshoots
  const Status status =
      retry_sync("unit_retry", policy, [&] { return Status(unavailable("down")); });
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.error().code(), ErrorCode::kDeadlineExceeded);
}

TEST_F(FaultInjectionTest, BackoffIsDeterministicPerSeed) {
  RetryPolicy policy;
  policy.initial_backoff_s = 0.001;
  policy.backoff_multiplier = 2.0;
  policy.jitter_fraction = 0.25;

  Rng a(policy.seed), b(policy.seed), c(policy.seed + 1);
  std::vector<double> seq_a, seq_b, seq_c;
  for (int retry = 1; retry <= 5; ++retry) {
    seq_a.push_back(policy.backoff_for(retry, a));
    seq_b.push_back(policy.backoff_for(retry, b));
    seq_c.push_back(policy.backoff_for(retry, c));
  }
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_NE(seq_a, seq_c);
  // Exponential envelope: each un-jittered base doubles; jitter is +/-25%.
  for (int retry = 1; retry <= 5; ++retry) {
    const double base = 0.001 * std::pow(2.0, retry - 1);
    EXPECT_GE(seq_a[static_cast<std::size_t>(retry - 1)], base * 0.75);
    EXPECT_LE(seq_a[static_cast<std::size_t>(retry - 1)], base * 1.25);
  }
}

TEST_F(FaultInjectionTest, IsTransientClassification) {
  EXPECT_TRUE(is_transient(ErrorCode::kIoError));
  EXPECT_TRUE(is_transient(ErrorCode::kUnavailable));
  EXPECT_TRUE(is_transient(ErrorCode::kResourceExhausted));
  EXPECT_FALSE(is_transient(ErrorCode::kCorruptData));
  EXPECT_FALSE(is_transient(ErrorCode::kNotFound));
  EXPECT_FALSE(is_transient(ErrorCode::kInvalidArgument));
  EXPECT_FALSE(is_transient(ErrorCode::kDeadlineExceeded));
}

// The read_dropping site wraps the block-granular pread: a corrupt outcome
// on a block read is caught by that block's CRC and re-read; its bytes are
// never served, and a corruption on every read surfaces as kCorruptData.
TEST_F(FaultInjectionTest, CorruptBlockReadIsCaughtRetriedAndNeverServed) {
  const std::string root = test::unique_temp_dir("ada_fault_block_");
  std::filesystem::remove_all(root);
  auto mount = plfs::PlfsMount::open({{"ssd", root + "/ssd"}}).value();
  RetryPolicy fast;
  fast.initial_backoff_s = 1e-4;
  mount.set_retry_policy(fast);
  ASSERT_TRUE(mount.create_container("bar").is_ok());
  // 70 frames of 10 bytes after a 16-byte header: three checksum blocks.
  std::vector<std::uint64_t> table(70);
  for (std::size_t f = 0; f < table.size(); ++f) table[f] = 16 + f * 10;
  std::vector<std::uint8_t> bytes(716);
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::uint8_t>(i * 13);
  const auto record = mount.append("bar", "p", 0, bytes, &table).value();
  ASSERT_EQ(record.block_crcs.size(), 3u);
  const std::string path = mount.dropping_host_path(0, "bar", record.dropping);
  const std::uint64_t block1[] = {336, 656};
  const auto crc1 = std::span(record.block_crcs).subspan(1, 1);
  const std::vector<std::uint8_t> expected(bytes.begin() + 336, bytes.begin() + 656);

  {
    const ScopedFault once("plfs.read_dropping", Schedule::corrupt_read(1, 0.3));
    const auto read = mount.read_extent(path, block1, crc1);
    ASSERT_TRUE(read.is_ok()) << read.error().to_string();
    EXPECT_EQ(read.value(), expected);
    EXPECT_EQ(Injector::global().fired("plfs.read_dropping"), 1u);
    EXPECT_EQ(Injector::global().hits("plfs.read_dropping"), 2u) << "one re-read";
  }
  {
    Schedule always = Schedule::corrupt_read(1, 0.3);
    always.trigger = Schedule::Trigger::kAlways;
    const ScopedFault every("plfs.read_dropping", always);
    obs::reset_all();
    obs::set_enabled(true);
    const auto read = mount.read_extent(path, block1, crc1);
    obs::set_enabled(false);
    ASSERT_FALSE(read.is_ok());
    EXPECT_EQ(read.error().code(), ErrorCode::kCorruptData);
    // One retry loop: max_attempts reads in all, each re-read counted as a
    // retry, and the failed read counted once as a mismatch.
    EXPECT_EQ(Injector::global().hits("plfs.read_dropping"),
              static_cast<std::uint64_t>(fast.max_attempts));
    const obs::Registry& registry = obs::Registry::global();
    EXPECT_EQ(registry.counter_value("retry.attempts"),
              static_cast<std::uint64_t>(fast.max_attempts - 1));
    EXPECT_EQ(registry.counter_value("plfs.crc_mismatch"), 1u);
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace ada
