#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <string>
#include <thread>

#include "common/check.hpp"
#include "formats/xtc_file.hpp"
#include "obs/events.hpp"
#include "workload/gpcr_builder.hpp"
#include "workload/trajectory_gen.hpp"
#include "workload.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n - std::min(n, rank);
}

std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (samples_beyond(n, p) < 10) ++n;
  return n;
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

ZipfSampler::ZipfSampler(std::size_t n, double s, std::uint64_t seed) : rng_(seed) {
  double total = 0;
  cdf_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::next() {
  const double u = rng_.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

OpenLoopResult run_open_loop(double rate, std::size_t count, const Submit& submit,
                             double drain_timeout_s) {
  OpenLoopResult result;
  result.rate = rate;
  struct Shared {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t outstanding = 0;
    std::vector<double> latency_ms;
    std::vector<std::size_t> order;
    std::size_t failed = 0;
    std::size_t completed = 0;
  };
  auto shared = std::make_shared<Shared>();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  result.late_ms.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Clock::time_point due_at = due(i);
    std::this_thread::sleep_until(due_at);
    result.late_ms.push_back(std::max(0.0, ms_since(due_at)));
    {
      const std::lock_guard<std::mutex> lock(shared->mutex);
      ++shared->outstanding;
    }
    Done done = [shared, due_at, i](bool ok, Clock::time_point finished) {
      const std::lock_guard<std::mutex> lock(shared->mutex);
      shared->latency_ms.push_back(ms_between(due_at, finished));
      shared->order.push_back(i);
      ++shared->completed;
      if (!ok) ++shared->failed;
      --shared->outstanding;
      shared->cv.notify_all();
    };
    ++result.sent;
    if (!submit(i, std::move(done))) {
      ++result.refused;
      const std::lock_guard<std::mutex> lock(shared->mutex);
      --shared->outstanding;
    }
  }
  std::unique_lock<std::mutex> lock(shared->mutex);
  result.backlog_at_last_send = shared->outstanding;
  result.drained = shared->cv.wait_for(
      lock, std::chrono::duration<double>(drain_timeout_s),
      [&] { return shared->outstanding == 0; });
  result.latency_ms = shared->latency_ms;
  result.order = shared->order;
  result.failed = shared->failed;
  result.completed = shared->completed;
  return result;
}

bool rung_passes(const OpenLoopResult& result, double p99_limit_ms) {
  if (result.refused != 0 || result.failed != 0 || !result.drained) return false;
  const double backlog_limit = std::max(8.0, result.rate * 0.1);
  if (static_cast<double>(result.backlog_at_last_send) > backlog_limit) return false;
  return percentile(result.latency_ms, 0.99) <= p99_limit_ms;
}

double error_rate(std::uint64_t attempted, std::uint64_t failed) {
  return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
}

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::add(SpanRecord record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

void SpanRecorder::add(std::uint64_t op_id, const char* name, Clock::time_point start,
                       Clock::time_point end) {
  add(SpanRecord{op_id, name, ms_between(epoch_, start), ms_between(epoch_, end)});
}

std::vector<SpanRecord> SpanRecorder::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

struct BenchSpan::Trace {
  explicit Trace(const char* name) : span(name), op_id(ada::obs::current_context().trace_id) {}
  ada::obs::TraceSpan span;
  std::uint64_t op_id;
};

BenchSpan::BenchSpan(const char* name) : name_(name) {
  if (SpanRecorder::global().recording()) trace_ = std::make_unique<Trace>(name);
  start_ = Clock::now();
}

BenchSpan::~BenchSpan() { end(); }

double BenchSpan::end() {
  if (ms_ >= 0) return ms_;
  const Clock::time_point stop = Clock::now();
  ms_ = ms_between(start_, stop);
  if (trace_ != nullptr) {
    SpanRecorder& recorder = SpanRecorder::global();
    recorder.add(trace_->op_id, name_, start_, stop);
    trace_.reset();
  }
  return ms_;
}

namespace {

std::uint64_t proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stoull(line.substr(key.size()));
  }
  return 0;
}

}  // namespace

void reset_peak_rss() {
  // "5" resets the peak-RSS mark (VmHWM) to the current RSS.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mib() {
  return static_cast<double>(proc_field("/proc/self/status", "VmHWM:")) / 1024.0;
}

std::uint64_t bytes_read() { return proc_field("/proc/self/io", "rchar:"); }

chem::System build_system() {
  return ada::workload::GpcrSystemBuilder(ada::workload::GpcrSpec::paper_default()).build();
}

std::vector<std::vector<float>> generate_frames(const chem::System& system, std::uint32_t frames,
                                                std::uint64_t seed) {
  ada::workload::DynamicsSpec dynamics;
  dynamics.seed = seed;
  ada::workload::TrajectoryGenerator gen(system, dynamics);
  std::vector<std::vector<float>> out;
  out.reserve(frames);
  for (std::uint32_t f = 0; f < frames; ++f) {
    const auto coords = gen.next_frame();
    out.emplace_back(coords.begin(), coords.end());
  }
  return out;
}

std::vector<std::uint8_t> encode_xtc(const chem::System& system,
                                     const std::vector<std::vector<float>>& frames,
                                     std::uint32_t first_step) {
  ada::formats::XtcWriter writer;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto step = static_cast<std::uint32_t>(first_step + i);
    ADA_CHECK(writer.add_frame(step, 2.0f * static_cast<float>(step), system.box(), frames[i])
                  .is_ok());
  }
  return writer.take();
}

std::unique_ptr<ada::core::Ada> open_ada(const std::string& dir, ada::core::AdaConfig config) {
  config.placement = ada::core::PlacementPolicy::active_on_ssd(0, 1);
  auto mount = ada::plfs::PlfsMount::open({{"ssd", dir + "/ssd"}, {"hdd", dir + "/hdd"}});
  ADA_CHECK(mount.is_ok());
  return std::make_unique<ada::core::Ada>(std::move(mount).value(), std::move(config));
}

void Measurement::fail(const std::string& why) {
  ++failed;
  if (notes.size() < 8) notes.push_back(why);
}

}  // namespace perfbench
