// Self-tests of the benchmark's own machinery (no program workload runs
// here): the percentile rule, the Zipf sampler, open-loop timing and the
// error accounting.  Exits non-zero if any expectation fails.
//
//   .bench_build/perfbench/perfbench_selftest
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool condition, const char* what) {
  std::printf("%s  %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++failures;
}

void percentile_rule() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted on purpose
  expect(percentile(samples, 0.5) == 50, "nearest-rank p50 of 1..100 is 50");
  expect(percentile(samples, 0.9) == 90, "nearest-rank p90 of 1..100 is 90");
  expect(percentile(samples, 0.99) == 99, "nearest-rank p99 of 1..100 is 99");
  expect(percentile({7}, 0.99) == 7, "a single sample is every percentile");
  expect(percentile({}, 0.5) == 0, "an empty sample reads 0");
  expect(samples_beyond(100, 0.9) == 10, "p90 of 100 samples has 10 beyond it");
  expect(samples_beyond(99, 0.9) == 9, "p90 of 99 samples has only 9 beyond it");
  expect(min_samples_for(0.9) == 100, "p90 needs 100 samples");
  expect(min_samples_for(0.99) == 1000, "p99 needs 1,000 samples");
  expect(min_samples_for(0.75) == 40, "p75 needs 40 samples");
}

void zipf_determinism() {
  ZipfSampler a(24, 1.1, 42);
  ZipfSampler b(24, 1.1, 42);
  ZipfSampler c(24, 1.1, 43);
  bool same = true;
  bool differs = false;
  std::vector<int> counts(24, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t x = a.next();
    same = same && x == b.next();
    differs = differs || x != c.next();
    ++counts[x];
  }
  expect(same, "one seed gives one Zipf sequence");
  expect(differs, "another seed gives another sequence");
  // P(rank 0) / P(rank 1) = 2^1.1 = 2.14 for Zipf(1.1).
  const double ratio = static_cast<double>(counts[0]) / counts[1];
  expect(ratio > 1.9 && ratio < 2.4, "rank 0 is drawn about 2^1.1 times as often as rank 1");
  expect(counts[0] > counts[23] * 10, "the head dominates the tail");
}

void open_loop_from_due_time() {
  // A synchronous fake service: the callback runs on the generator thread,
  // and request 10's callback stalls for 100 ms.  Timing from the due time
  // must charge that stall to the requests queued behind it, and the
  // generator must report that it ran late.
  const auto run = [](bool stall) {
    const Submit submit = [stall](std::size_t i, Done done) {
      if (stall && i == 10) std::this_thread::sleep_for(std::chrono::milliseconds(100));
      done(true, Clock::now());
      return true;
    };
    return run_open_loop(500, 100, submit, 5.0);  // one request due every 2 ms
  };
  const OpenLoopResult smooth = run(false);
  const OpenLoopResult stalled = run(true);
  expect(smooth.completed == 100 && stalled.completed == 100, "every request completes");
  double later_smooth = 0;
  double later_stalled = 0;
  for (std::size_t k = 0; k < stalled.latency_ms.size(); ++k) {
    if (stalled.order[k] >= 11 && stalled.order[k] <= 20) later_stalled += stalled.latency_ms[k];
  }
  for (std::size_t k = 0; k < smooth.latency_ms.size(); ++k) {
    if (smooth.order[k] >= 11 && smooth.order[k] <= 20) later_smooth += smooth.latency_ms[k];
  }
  // Margins leave room for a host scheduling hiccup in either run.
  expect(later_stalled / 10 > later_smooth / 10 + 40,
         "a stalled callback raises the latency of the requests due after it");
  expect(percentile(stalled.late_ms, 0.99) > percentile(smooth.late_ms, 0.99) + 50,
         "the stall shows in gen.late_ms_p99");
  expect(rung_passes(smooth, 100), "the smooth run meets a 100 ms p99 limit");
}

void refused_requests_are_errors() {
  const Submit submit = [](std::size_t i, Done done) {
    if (i % 4 == 0) return false;  // refused: the callback never runs
    done(true, Clock::now());
    return true;
  };
  const OpenLoopResult result = run_open_loop(1000, 40, submit, 5.0);
  expect(result.sent == 40 && result.refused == 10 && result.completed == 30,
         "refused requests are counted, not timed");
  expect(std::fabs(error_rate(result.sent, result.refused + result.failed) - 0.25) < 1e-12,
         "refused requests count in error_rate");
  expect(!rung_passes(result, 100), "a rung with refusals fails");

  const Submit wrong = [](std::size_t i, Done done) {
    done(i != 3, Clock::now());
    return true;
  };
  const OpenLoopResult bad = run_open_loop(1000, 20, wrong, 5.0);
  expect(bad.failed == 1 && !rung_passes(bad, 100), "a wrong response fails the rung");
}

}  // namespace

int main() {
  percentile_rule();
  zipf_determinism();
  open_loop_from_due_time();
  refused_requests_are_errors();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
