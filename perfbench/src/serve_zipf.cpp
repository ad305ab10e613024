// serve-zipf: many VMD sessions replaying popular trajectories through one
// AdaService (3 workers, 2 tenants), open loop from one generator thread.
//
// The catalog is 24 requests over four 64-frame paper-size datasets (about
// 134 MB raw): the whole subset and both 32-frame blocks of each tag of
// each dataset.  Requests follow Zipf(1.1) over a fixed ranking of the
// catalog, alternate between the two tenants, and are due at a fixed rate.
// The cache holds the whole working set once warm: coalescing, admission,
// DRR scheduling, cache hits and copy-out do the work.
//
// The timed phase offers kReferenceRate for at least 1,000 requests (the
// serve_ms metrics), then binary-searches a fixed ladder of rates 5% apart
// for the highest rate whose p99 stays within 100 ms with nothing refused
// and no growing backlog (serve_goodput_rps).  Every response is compared
// with the direct Ada query's bytes.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <thread>

#include "ada/categorizer.hpp"
#include "serve/serve.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace core = ada::core;
namespace serve = ada::serve;

constexpr std::uint32_t kDatasets = 4;
constexpr std::uint32_t kFrames = 64;
constexpr std::uint32_t kBlock = 32;
// The cache splits its budget evenly over 8 shards chosen by dataset name,
// and one dataset's working set (whole subsets plus 32-frame blocks) is
// 67 MB.  4 GiB gives every shard room for all four datasets, so the whole
// 267 MB working set fits once warm whichever shards the names hash to.
constexpr std::uint64_t kCacheBytes = 4ull << 30;
constexpr unsigned kWorkers = 3;
constexpr double kZipfExponent = 1.1;
// Gated tail.  p99 is printed, not gated: on a shared host a vCPU
// descheduled for a few ms moves it several-fold between runs.
constexpr double kTail = 0.9;
constexpr double kP99 = 0.99;
constexpr double kP99LimitMs = 100;
// The open-loop rate the serve_ms metrics are measured at (req/s).
constexpr double kReferenceRate = 500;
// Goodput ladder: kLadderBase * kLadderStep^k req/s, k in [0, kLadderRungs),
// 100 to about 49,000 req/s.
constexpr double kLadderBase = 100;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 128;
constexpr double kProbeSeconds = 0.5;
const char* const kTenants[2] = {"vmd-a", "vmd-b"};
// Op ids of served requests, clear of the program's trace ids.
constexpr std::uint64_t kServeOpBase = 1ull << 48;

struct Entry {
  serve::Request request;
  std::shared_ptr<const std::vector<std::uint8_t>> expected;
};

class ServeZipf final : public Workload {
 public:
  explicit ServeZipf(Options options) : options_(std::move(options)) {}

  ~ServeZipf() override { service_.reset(); }

  double setup(const std::string& dir, double* categorize_ms) override {
    service_.reset();
    ada_.reset();
    dir_ = dir;
    system_ = build_system();
    const Clock::time_point categorize = Clock::now();
    labels_ = core::categorize_protein_misc(system_);
    *categorize_ms = ms_since(categorize);

    const Clock::time_point gen = Clock::now();
    std::vector<std::vector<std::uint8_t>> xtc(kDatasets);
    std::vector<std::thread> threads;
    for (std::uint32_t d = 0; d < kDatasets; ++d) {
      threads.emplace_back([&, d] {
        xtc[d] = encode_xtc(system_, generate_frames(system_, kFrames, options_.seed * 16 + d), 0);
      });
    }
    for (auto& t : threads) t.join();
    const double gen_ms = ms_since(gen);

    core::AdaConfig config;
    config.threads = 4;
    config.cache_bytes = kCacheBytes;
    ada_ = open_ada(dir + "/ada", config);
    for (std::uint32_t d = 0; d < kDatasets; ++d) {
      ADA_CHECK(ada_->ingest(system_, xtc[d], dataset(d)).is_ok());
    }
    serve::ServeConfig serve_config;
    serve_config.workers = kWorkers;
    service_ = std::make_unique<serve::AdaService>(*ada_, serve_config);
    return gen_ms;
  }

  void prepare(Measurement& m) override {
    // Expected bytes: the direct query through a cacheless middleware.
    const auto direct = open_ada(dir_ + "/ada", core::AdaConfig{});
    catalog_.clear();
    for (std::uint32_t d = 0; d < kDatasets; ++d) {
      for (const core::Tag& tag : {core::kProteinTag, core::kMiscTag}) {
        ++m.attempted;
        auto whole = direct->query(dataset(d), tag);
        if (!whole.is_ok()) {
          m.fail("direct query " + dataset(d) + " tag " + tag);
          continue;
        }
        auto image = std::make_shared<const std::vector<std::uint8_t>>(std::move(whole).value());
        Entry subset;
        subset.request.logical_name = dataset(d);
        subset.request.tag = tag;
        subset.expected = image;
        const std::size_t frame_bytes = (image->size() - 16) / kFrames;
        for (std::uint32_t b = 0; b < kFrames / kBlock; ++b) {
          Entry range = subset;
          range.request.kind = serve::RequestKind::kRange;
          range.request.range = core::FrameRange{b * kBlock, (b + 1) * kBlock, 1};
          // The block as a RAW image: the subset's header with the block's
          // frame count, then its frames.
          const std::size_t block_bytes = kBlock * frame_bytes;
          auto expected = std::make_shared<std::vector<std::uint8_t>>(16 + block_bytes);
          std::memcpy(expected->data(), image->data(), 12);
          const std::uint32_t frames = kBlock;
          std::memcpy(expected->data() + 12, &frames, 4);
          std::memcpy(expected->data() + 16, image->data() + 16 + b * block_bytes, block_bytes);
          range.expected = std::move(expected);
          catalog_.push_back(range);
        }
        catalog_.push_back(subset);
      }
    }
    // Popularity rank is catalog order -- block, block, whole subset per
    // (dataset, tag) -- the same for every seed, so every run offers the
    // same mix (about 3 range requests to 1 whole-subset request); the seed
    // draws the request sequence.
    verified_.assign(catalog_.size(), nullptr);
    zipf_ = std::make_unique<ZipfSampler>(catalog_.size(), kZipfExponent, options_.seed);
    // Warm-up: every entry once, so timing starts from a warm cache.
    for (std::size_t e = 0; e < catalog_.size(); ++e) {
      ++m.attempted;
      auto response = service_->execute(catalog_[e].request);
      if (!response.is_ok() || !check(e, response.value())) m.fail("warm-up request " + key(e));
    }
  }

  Measurement measure(double seconds, bool full) override {
    Measurement m;
    const double reference_seconds = full ? seconds * 0.6 : seconds;
    const auto count = static_cast<std::size_t>(
        std::max(static_cast<double>(min_samples_for(kP99)), kReferenceRate * reference_seconds));
    const serve::ServeStats before = service_->stats();
    const Probe reference = probe(kReferenceRate, count);
    const serve::ServeStats after = service_->stats();

    m.attempted += reference.result.sent;
    m.failed += reference.result.refused + reference.result.failed;
    if (reference.result.refused != 0) {
      m.notes.push_back(std::to_string(reference.result.refused) +
                        " requests refused at the reference rate");
    }
    if (reference.result.failed != 0) {
      m.notes.push_back(std::to_string(reference.result.failed) +
                        " failed or wrong responses at the reference rate");
    }
    if (!reference.result.drained) m.fail("responses still outstanding at the reference rate");
    m.samples["op"] = reference.result.latency_ms;
    m.samples["aux"] = reference.range_ms;
    m.samples["subset"] = reference.subset_ms;
    m.samples["late"] = reference.result.late_ms;

    const double completed = static_cast<double>(after.completed - before.completed);
    m.values["serve.coalesce_ratio"] =
        completed > 0 ? static_cast<double>(after.coalesced - before.coalesced) / completed : 0;
    m.values["serve.fills"] = static_cast<double>(after.fills - before.fills);
    m.values["serve.rejected"] = static_cast<double>(
        after.rejected_overload + after.rejected_quota - before.rejected_overload -
        before.rejected_quota);
    m.values["serve.drr_rounds"] = static_cast<double>(after.drr_rounds - before.drr_rounds);
    double queue_peak = 0;
    double inflight_peak = 0;
    for (const auto& [name, tenant] : after.tenants) {
      queue_peak = std::max(queue_peak, static_cast<double>(tenant.queue_peak));
      inflight_peak = std::max(inflight_peak, static_cast<double>(tenant.inflight_peak));
    }
    m.values["serve.queue_peak"] = queue_peak;
    m.values["serve.inflight_peak"] = inflight_peak;
    m.values["bytes_returned"] = reference.bytes;

    if (full) {
      // Binary search over the fixed ladder; refusals at a probed rung are
      // how overload shows, so only wrong or failed responses count as errors.
      int lo = -1;
      int hi = kLadderRungs;
      while (hi - lo > 1) {
        const int mid = (lo + hi) / 2;
        const double rate = rung(mid);
        const auto n = static_cast<std::size_t>(
            std::max(static_cast<double>(min_samples_for(kP99)), rate * kProbeSeconds));
        const Probe p = probe(rate, n);
        m.attempted += p.result.sent - p.result.refused;
        if (p.wrong != 0) {
          m.failed += p.wrong;
          m.notes.push_back(std::to_string(p.wrong) + " wrong responses at " +
                            std::to_string(rate) + " req/s");
        }
        (rung_passes(p.result, kP99LimitMs) ? lo : hi) = mid;
      }
      m.values["goodput_rps"] = lo >= 0 ? rung(lo) : 0;
    }
    return m;
  }

  std::string main_metric() const override { return "serve_ms"; }

  void end_to_end(const Measurement& m, std::vector<Metric>& gated,
                  std::vector<Metric>& named) const override {
    const auto& latency = m.samples.at("op");
    gated.push_back({"op_ms_p50", percentile(latency, 0.5), "ms"});
    gated.push_back({"op_ms_tail", percentile(latency, kTail), "ms"});
    gated.push_back({"aux_ms_p50", percentile(m.samples.at("aux"), 0.5), "ms"});
    gated.push_back({"rate", m.values.at("goodput_rps"), "1/s"});
    named.push_back({"serve_ms_p50", percentile(latency, 0.5), "ms"});
    named.push_back({"serve_ms_p90", percentile(latency, kTail), "ms"});
    named.push_back({"serve_ms_p99", percentile(latency, kP99), "ms"});
    named.push_back({"serve_samples", static_cast<double>(latency.size()), "count"});
    named.push_back({"serve_reference_rps", kReferenceRate, "req/s"});
    named.push_back({"serve_goodput_rps", m.values.at("goodput_rps"), "req/s"});
    named.push_back({"serve_range_ms_p50", percentile(m.samples.at("aux"), 0.5), "ms"});
    named.push_back({"serve_subset_ms_p50", percentile(m.samples.at("subset"), 0.5), "ms"});
  }

  void per_layer(const Measurement& m, std::map<std::string, double>& out) const override {
    for (const char* name : {"serve.coalesce_ratio", "serve.fills", "serve.rejected",
                             "serve.drr_rounds", "serve.queue_peak", "serve.inflight_peak"}) {
      out[name] = m.values.at(name);
    }
    out["gen.late_ms_p99"] = percentile(m.samples.at("late"), 0.99);
  }

  std::span<const std::uint8_t> crc_sample() const override {
    return catalog_.empty() ? std::span<const std::uint8_t>{} : *catalog_.front().expected;
  }

 private:
  struct Probe {
    OpenLoopResult result;
    std::vector<double> range_ms;
    std::vector<double> subset_ms;
    std::size_t wrong = 0;
    double bytes = 0;
  };

  static std::string dataset(std::uint32_t d) { return "set" + std::to_string(d) + ".xtc"; }
  static double rung(int k) { return kLadderBase * std::pow(kLadderStep, k); }

  std::string key(std::size_t e) const {
    const auto& r = catalog_[e].request;
    return r.logical_name + "/" + r.tag +
           (r.kind == serve::RequestKind::kRange ? "@" + std::to_string(r.range.begin) : "");
  }

  /// True when the response carries the expected bytes.  A whole-subset
  /// response that shares the image already verified for its entry (the
  /// cache's refcounted image) is the same immutable bytes.
  bool check(std::size_t e, const serve::Response& response) {
    if (response.image == nullptr) return false;
    {
      const std::lock_guard<std::mutex> lock(verified_mutex_);
      if (verified_[e] != nullptr && verified_[e] == response.image) return true;
    }
    const auto& expected = *catalog_[e].expected;
    const bool same = response.image->size() == expected.size() &&
                      std::memcmp(response.image->data(), expected.data(), expected.size()) == 0;
    if (same && catalog_[e].request.kind == serve::RequestKind::kSubset) {
      const std::lock_guard<std::mutex> lock(verified_mutex_);
      verified_[e] = response.image;
    }
    return same;
  }

  Probe probe(double rate, std::size_t count) {
    std::vector<std::size_t> picks(count);
    for (auto& pick : picks) pick = zipf_->next();
    Probe p;
    // Callbacks run on service workers; what they touch is shared-owned so a
    // response arriving after the drain timeout stays safe.
    struct Tally {
      std::atomic<std::size_t> wrong{0};
      std::atomic<std::uint64_t> bytes{0};
    };
    const auto tally = std::make_shared<Tally>();
    const Submit submit = [&](std::size_t i, Done done) {
      const std::size_t e = picks[i];
      serve::Request request = catalog_[e].request;
      request.tenant = kTenants[i % 2];
      const Clock::time_point sent = Clock::now();
      const std::uint64_t op = ++requests_;
      const auto status = service_->submit(
          std::move(request), [this, e, done, tally, sent, op](ada::Result<serve::Response> r) {
            const Clock::time_point finished = Clock::now();
            // The service does not carry the caller's trace context to its
            // workers, so a served request's span has an id of its own.
            if (SpanRecorder::global().recording()) {
              SpanRecorder::global().add(kServeOpBase + op, "bench.serve_request", sent, finished);
            }
            const bool ok = r.is_ok() && check(e, r.value());
            if (r.is_ok() && !ok) tally->wrong.fetch_add(1);
            if (ok) tally->bytes.fetch_add(r.value().image->size());
            done(ok, finished);
          });
      return status.is_ok();
    };
    p.result = run_open_loop(rate, count, submit, 30.0);
    // Let a backlog left by an overloaded rung drain before the next probe.
    for (;;) {
      const serve::ServeStats stats = service_->stats();
      if (stats.completed + stats.failed >= stats.accepted) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (std::size_t k = 0; k < p.result.latency_ms.size(); ++k) {
      const bool range =
          catalog_[picks[p.result.order[k]]].request.kind == serve::RequestKind::kRange;
      (range ? p.range_ms : p.subset_ms).push_back(p.result.latency_ms[k]);
    }
    p.wrong = tally->wrong.load();
    p.bytes = static_cast<double>(tally->bytes.load());
    return p;
  }

  Options options_;
  std::string dir_;
  chem::System system_;
  core::LabelMap labels_;
  std::unique_ptr<core::Ada> ada_;
  std::unique_ptr<serve::AdaService> service_;
  std::vector<Entry> catalog_;
  std::unique_ptr<ZipfSampler> zipf_;
  std::uint64_t requests_ = 0;
  std::mutex verified_mutex_;
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> verified_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_zipf(const Options& options) {
  return std::make_unique<ServeZipf>(options);
}

}  // namespace perfbench
