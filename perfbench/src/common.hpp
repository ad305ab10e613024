// Shared machinery of the repository benchmark: sample statistics, the
// seeded Zipf sampler, the open-loop request generator, bench-side spans, and
// the process probes (peak RSS, bytes read).  Everything here is the
// benchmark's own code; it drives the program only through public entry
// points and never switches the program's observability on by itself.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chem/system.hpp"
#include "common/rng.hpp"

namespace perfbench {

namespace chem = ada::chem;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

// --- sample statistics -------------------------------------------------------

/// Nearest-rank percentile (p in (0, 1]) of an unsorted sample; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank percentile p of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// Smallest sample count for which percentile p has at least ten samples
/// beyond it (the rule every reported tail percentile obeys).
std::size_t min_samples_for(double p);

double median(std::vector<double> samples);

// --- Zipf sampler ------------------------------------------------------------

/// Zipf(s) over ranks [0, n): P(rank k) proportional to 1 / (k + 1)^s.  Draws
/// come only from the seeded generator, so a seed fixes the sequence.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s, std::uint64_t seed);
  std::size_t next();

 private:
  std::vector<double> cdf_;
  ada::Rng rng_;
};

// --- open-loop generator ------------------------------------------------------

/// Completion report of one open-loop request: `ok` false for a failed or
/// wrong response; `finished` is when the response reached the client.
using Done = std::function<void(bool ok, Clock::time_point finished)>;

/// Sends request `index`; returns false when the service refused it (then
/// `done` must never be called).  `done` may run on any thread, once.
using Submit = std::function<bool(std::size_t index, Done done)>;

struct OpenLoopResult {
  double rate = 0;                   // offered requests per second
  std::size_t sent = 0;
  std::size_t refused = 0;
  std::size_t failed = 0;            // failed or wrong responses
  std::size_t completed = 0;         // responses received (ok or not)
  std::size_t backlog_at_last_send = 0;
  std::vector<double> latency_ms;    // due send time -> response, per response
  std::vector<double> late_ms;       // actual send time - due send time, per request
  std::vector<std::size_t> order;    // request index of each latency sample
  bool drained = true;               // every accepted request completed
};

/// Offers `count` requests at a fixed `rate` from the calling thread.  The
/// i-th request is due at start + i / rate and is timed from that due time,
/// so a stall anywhere delays every later request's measured latency.
/// Waits up to `drain_timeout_s` after the last send for responses.
OpenLoopResult run_open_loop(double rate, std::size_t count, const Submit& submit,
                             double drain_timeout_s);

/// A rung passes when nothing was refused or failed, the backlog did not
/// grow (at the last send, at most max(8, rate x 100 ms) requests are still
/// outstanding), and p99 of the latency is within `p99_limit_ms`.
bool rung_passes(const OpenLoopResult& result, double p99_limit_ms);

/// Failed, refused and wrong operations over operations attempted.
double error_rate(std::uint64_t attempted, std::uint64_t failed);

// --- bench-side spans -----------------------------------------------------------

/// One timed public call made by the benchmark.
struct SpanRecord {
  std::uint64_t op_id = 0;  // the trace id the program's own spans share
  std::string name;
  double start_ms = 0;      // since the recorder's epoch
  double end_ms = 0;
};

/// Keeps the benchmark's spans in memory until the run ends.  Spans are
/// recorded only while tracing is on; timing is always taken.
class SpanRecorder {
 public:
  static SpanRecorder& global();
  void set_recording(bool on) { recording_.store(on); }
  bool recording() const { return recording_.load(); }
  void add(SpanRecord record);
  /// Record a span timed elsewhere (one that starts and ends on different
  /// threads).
  void add(std::uint64_t op_id, const char* name, Clock::time_point start, Clock::time_point end);
  std::vector<SpanRecord> records() const;

 private:
  Clock::time_point epoch_ = Clock::now();
  std::atomic<bool> recording_{false};  // read on service worker threads
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
};

/// Times one public call.  While tracing is on it also opens a program trace
/// span of the same name, so the program's spans under the call join one
/// trace (one id per operation).
class BenchSpan {
 public:
  explicit BenchSpan(const char* name);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

  /// Close the span and return its duration in ms (idempotent).
  double end();

 private:
  struct Trace;
  const char* name_;
  Clock::time_point start_;
  double ms_ = -1;
  std::unique_ptr<Trace> trace_;
};

// --- process probes -------------------------------------------------------------

/// Reset the kernel's peak-RSS mark so peak_rss_mib() covers what follows.
void reset_peak_rss();
double peak_rss_mib();
/// Bytes this process has read through read-type syscalls so far.
std::uint64_t bytes_read();

// --- inputs ---------------------------------------------------------------------

/// The paper-size GPCR system (43,520 atoms).  One molecule for every seed:
/// the seed varies the trajectories.
chem::System build_system();

/// `frames` coordinate frames of the seeded synthetic dynamics.
std::vector<std::vector<float>> generate_frames(const chem::System& system, std::uint32_t frames,
                                                std::uint64_t seed);

/// A v1 .xtc image of the frames; frame i carries step first_step + i.
std::vector<std::uint8_t> encode_xtc(const chem::System& system,
                                     const std::vector<std::vector<float>>& frames,
                                     std::uint32_t first_step);

// --- results ----------------------------------------------------------------------

/// What one measured phase produced.
struct Measurement {
  std::map<std::string, std::vector<double>> samples;  // ms unless the name says otherwise
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  // first few failure descriptions

  void fail(const std::string& why);
};

}  // namespace perfbench
