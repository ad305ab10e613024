// live-stream: a running simulation writing beside a live analysis.
//
// A producer streams frames on a fixed 4 ms-per-frame schedule with chunk 8
// (one flush every 32 ms), taking them from a pre-generated 64-frame window
// so the generator never paces it; retain_bytes caps the container, so
// retention drops run on most flushes.  A follower polls for the tail every
// 1 ms through an AdaService (one worker) over a second Ada on the same
// backends -- the ada-serve --follow path, so the serve layer's admission,
// queues and DRR lanes carry every poll.  tail lag is the time from a
// flushing add_frame returning (its chunk published) to the follower first
// holding those frames.  The follower checks every frame it receives (step
// and protein coordinates) and, after the stream seals, its reassembled
// tail against a one-shot range query of the retained frames.
#include <algorithm>
#include <cstring>
#include <deque>
#include <thread>

#include "ada/categorizer.hpp"
#include "formats/xtc_file.hpp"
#include "serve/serve.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace core = ada::core;
namespace serve = ada::serve;
constexpr std::uint32_t kWindow = 64;
constexpr std::uint32_t kChunk = 8;
constexpr auto kFramePeriod = std::chrono::milliseconds(4);
constexpr auto kPollPeriod = std::chrono::milliseconds(1);
constexpr std::uint64_t kRetainBytes = 32ull << 20;
constexpr std::size_t kMinFlushes = 100;
// Frames of tail the follower keeps for the final check: several times what
// retention keeps, so the retained window is always covered.
constexpr std::uint64_t kKeepFrames = 512;
constexpr double kTail = 0.9;

class LiveStream final : public Workload {
 public:
  explicit LiveStream(Options options) : options_(std::move(options)) {}

  double setup(const std::string& dir, double* categorize_ms) override {
    service_.reset();
    writer_.reset();
    follower_.reset();
    system_ = build_system();
    const Clock::time_point categorize = Clock::now();
    labels_ = core::categorize_protein_misc(system_);
    *categorize_ms = ms_since(categorize);
    const Clock::time_point gen = Clock::now();
    window_ = generate_frames(system_, kWindow, options_.seed);
    const double gen_ms = ms_since(gen);
    const chem::Selection& protein = labels_.groups.at(core::kProteinTag);
    expected_.clear();
    for (const auto& frame : window_) {
      expected_.push_back(ada::formats::extract_subset(frame, protein));
    }
    core::AdaConfig config;
    config.retain_bytes = kRetainBytes;
    writer_ = open_ada(dir + "/ada", config);
    follower_ = open_ada(dir + "/ada", core::AdaConfig{});
    serve::ServeConfig serve_config;
    serve_config.workers = 1;
    service_ = std::make_unique<serve::AdaService>(*follower_, serve_config);
    return gen_ms;
  }

  void prepare(Measurement&) override {}

  Measurement measure(double seconds, bool /*full*/) override {
    Measurement m;
    const std::string name = "live" + std::to_string(stream_++) + ".xtc";
    ++m.attempted;
    auto stream = writer_->begin_stream(labels_, name, kChunk);
    if (!stream.is_ok()) {
      m.fail("begin_stream: " + stream.error().to_string());
      return m;
    }

    const serve::ServeStats before = service_->stats();
    Follower follower{*this, name};
    std::thread follower_thread([&] { follower.run(); });

    // Producer: frame f is due at start + f * 4 ms.
    struct Flush {
      std::uint64_t watermark;
      Clock::time_point published;
    };
    std::vector<Flush> flushes;
    const Clock::time_point start = Clock::now();
    std::uint64_t watermark = 0;
    bool producer_ok = true;
    for (std::uint32_t f = 0;; ++f) {
      const bool done = ms_since(start) >= seconds * 1e3 && flushes.size() >= kMinFlushes;
      if (f % kChunk == 0 && done) break;
      std::this_thread::sleep_until(start + f * kFramePeriod);
      ++m.attempted;
      BenchSpan span("bench.add_frame");
      const auto status = stream.value().add_frame(f, 2.0f * static_cast<float>(f),
                                                   system_.box(), window_[f % kWindow]);
      const Clock::time_point returned = Clock::now();
      const double ms = span.end();
      if (!status.is_ok()) {
        m.fail("add_frame " + std::to_string(f) + ": " + status.error().to_string());
        producer_ok = false;
        break;
      }
      m.samples["add_frame"].push_back(ms);
      if (stream.value().sealed_frames() != watermark) {
        watermark = stream.value().sealed_frames();
        flushes.push_back({watermark, returned});
        m.samples["aux"].push_back(ms);
      }
    }
    const double produce_s = ms_since(start) / 1e3;
    ++m.attempted;
    const auto report = stream.value().finish();
    if (!report.is_ok()) m.fail("finish: " + report.error().to_string());
    if (!producer_ok || !report.is_ok()) follower.stop = true;
    follower_thread.join();
    const serve::ServeStats after = service_->stats();
    const double completed = static_cast<double>(after.completed - before.completed);
    m.values["serve.coalesce_ratio"] =
        completed > 0 ? static_cast<double>(after.coalesced - before.coalesced) / completed : 0;
    m.values["serve.fills"] = static_cast<double>(after.fills - before.fills);
    m.values["serve.rejected"] = static_cast<double>(
        after.rejected_overload + after.rejected_quota - before.rejected_overload -
        before.rejected_quota);
    m.values["serve.drr_rounds"] = static_cast<double>(after.drr_rounds - before.drr_rounds);
    for (const auto& [tenant_name, tenant] : after.tenants) {
      m.values["serve.queue_peak"] =
          std::max(m.values["serve.queue_peak"], static_cast<double>(tenant.queue_peak));
      m.values["serve.inflight_peak"] =
          std::max(m.values["serve.inflight_peak"], static_cast<double>(tenant.inflight_peak));
    }

    for (const std::string& note : follower.failures) m.fail(note);
    m.attempted += follower.polls;
    m.samples["data_poll"] = follower.data_poll_ms;
    m.samples["empty_poll"] = follower.empty_poll_ms;
    check_sealed(follower, name, m);

    // Lag per flush: publication to the follower's first poll at or past it.
    std::size_t k = 0;
    for (const Flush& flush : flushes) {
      while (k < follower.seen.size() && follower.seen[k].first < flush.watermark) ++k;
      if (k == follower.seen.size()) {
        m.fail("follower never reached frame " + std::to_string(flush.watermark));
        break;
      }
      m.samples["op"].push_back(std::max(0.0, ms_between(flush.published, follower.seen[k].second)));
    }
    m.values["flushes_per_s"] = static_cast<double>(flushes.size()) / produce_s;
    m.values["bytes_returned"] = follower.tailed_bytes;
    m.values["tailed_bytes"] = follower.tailed_bytes;
    if (!writer_->mount().remove_container(name).is_ok()) m.fail("remove " + name);
    return m;
  }

  std::string main_metric() const override { return "tail_lag_ms"; }

  void end_to_end(const Measurement& m, std::vector<Metric>& gated,
                  std::vector<Metric>& named) const override {
    const auto& lag = m.samples.at("op");
    gated.push_back({"op_ms_p50", percentile(lag, 0.5), "ms"});
    gated.push_back({"op_ms_tail", percentile(lag, kTail), "ms"});
    gated.push_back({"aux_ms_p50", percentile(m.samples.at("aux"), 0.5), "ms"});
    gated.push_back({"rate", m.values.at("flushes_per_s"), "1/s"});
    named.push_back({"tail_lag_ms_p50", percentile(lag, 0.5), "ms"});
    named.push_back({"tail_lag_ms_p90", percentile(lag, kTail), "ms"});
    named.push_back({"tail_lag_samples", static_cast<double>(lag.size()), "count"});
    named.push_back({"flush_add_frame_ms_p50", percentile(m.samples.at("aux"), 0.5), "ms"});
    named.push_back({"flushes_per_s", m.values.at("flushes_per_s"),
                     "1/s (schedule: 31.25)"});
  }

  void per_layer(const Measurement& m, std::map<std::string, double>& out) const override {
    const auto sample = [&](const char* name) {
      const auto it = m.samples.find(name);
      return it == m.samples.end() ? std::vector<double>{} : it->second;
    };
    out["stream.add_frame_ms_p90"] = percentile(sample("add_frame"), 0.9);
    out["stream.flush_stall_ms_p90"] = percentile(sample("aux"), 0.9);
    out["stream.data_poll_ms_p50"] = percentile(sample("data_poll"), 0.5);
    out["stream.empty_poll_ms_p50"] = percentile(sample("empty_poll"), 0.5);
    for (const char* name : {"serve.coalesce_ratio", "serve.fills", "serve.rejected",
                             "serve.drr_rounds", "serve.queue_peak", "serve.inflight_peak"}) {
      if (const auto it = m.values.find(name); it != m.values.end()) out[name] = it->second;
    }
  }

  std::span<const std::uint8_t> crc_sample() const override {
    if (expected_.empty()) return {};
    return {reinterpret_cast<const std::uint8_t*>(expected_.front().data()),
            expected_.front().size() * sizeof(float)};
  }

 private:
  /// The follower's loop and what it saw.  Runs on its own thread; the
  /// producer reads the results only after joining it.
  struct Follower {
    Follower(LiveStream& stream, std::string stream_name)
        : owner(stream), name(std::move(stream_name)) {}

    LiveStream& owner;
    std::string name;
    std::atomic<bool> stop{false};
    std::vector<std::pair<std::uint64_t, Clock::time_point>> seen;  // cursor after a data poll
    std::deque<std::pair<std::uint64_t, core::QueryCache::Image>> kept;  // first frame, image
    std::uint64_t kept_frames = 0;
    std::uint64_t polls = 0;
    double tailed_bytes = 0;
    std::vector<double> data_poll_ms;
    std::vector<double> empty_poll_ms;
    std::vector<std::string> failures;

    void run() {
      std::uint64_t cursor = 0;
      while (!stop) {
        ++polls;
        BenchSpan span("bench.tail_poll");
        serve::Request request;
        request.tenant = "follower";
        request.logical_name = name;
        request.tag = core::kProteinTag;
        request.kind = serve::RequestKind::kTail;
        request.from_frame = cursor;
        auto tail = owner.service_->execute(request);
        const Clock::time_point at = Clock::now();
        const double ms = span.end();
        if (!tail.is_ok()) {
          failures.push_back("tail poll from " + std::to_string(cursor) + ": " +
                             tail.error().to_string());
          return;
        }
        const serve::Response& chunk = tail.value();
        if (chunk.frames == 0) {
          empty_poll_ms.push_back(ms);
          if (chunk.sealed) return;
          std::this_thread::sleep_for(kPollPeriod);
          continue;
        }
        data_poll_ms.push_back(ms);
        if (chunk.from_frame != cursor || !owner.frames_match(chunk)) {
          failures.push_back("tail chunk at frame " + std::to_string(chunk.from_frame) +
                             " differs from the streamed frames");
          return;
        }
        cursor += chunk.frames;
        seen.emplace_back(cursor, at);
        tailed_bytes += static_cast<double>(chunk.image->size());
        kept_frames += chunk.frames;
        kept.emplace_back(chunk.from_frame, chunk.image);
        while (kept.size() > 1 && kept_frames - (kept.front().second->size() - 16) /
                                                    owner.frame_bytes() >= kKeepFrames) {
          kept_frames -= (kept.front().second->size() - 16) / owner.frame_bytes();
          kept.pop_front();
        }
      }
    }
  };

  std::size_t frame_bytes() const { return 44 + 12 * expected_.front().size() / 3; }

  /// Every frame of a tail chunk carries its global step and the protein
  /// coordinates of the window frame it was streamed from.
  bool frames_match(const serve::Response& chunk) const {
    const std::size_t fb = frame_bytes();
    if (chunk.image->size() != 16 + chunk.frames * fb) return false;
    for (std::uint64_t k = 0; k < chunk.frames; ++k) {
      const std::uint8_t* frame = chunk.image->data() + 16 + k * fb;
      const std::uint64_t g = chunk.from_frame + k;
      std::uint32_t step = 0;
      std::memcpy(&step, frame, 4);
      const auto& coords = expected_[g % kWindow];
      if (step != g || std::memcmp(frame + 44, coords.data(), coords.size() * sizeof(float)) != 0) {
        return false;
      }
    }
    return true;
  }

  /// After the seal: the follower's bytes for the retained frames equal a
  /// one-shot range query of them.
  void check_sealed(const Follower& follower, const std::string& name, Measurement& m) const {
    ++m.attempted;
    const auto progress = follower_->stream_progress(name);
    if (!progress.is_ok() || !progress.value().has_value()) {
      m.fail("stream_progress of " + name);
      return;
    }
    const std::uint64_t floor = progress.value()->floor_frames;
    const std::uint64_t sealed = progress.value()->sealed_frames;
    const auto oneshot = follower_->query(
        name, core::kProteinTag,
        core::FrameRange{static_cast<std::uint32_t>(floor), static_cast<std::uint32_t>(sealed), 1});
    if (!oneshot.is_ok()) {
      m.fail("one-shot query of " + name + ": " + oneshot.error().to_string());
      return;
    }
    const std::size_t fb = frame_bytes();
    std::vector<std::uint8_t> tail;
    for (const auto& [first, image] : follower.kept) {
      const std::uint64_t frames = (image->size() - 16) / fb;
      for (std::uint64_t k = 0; k < frames; ++k) {
        if (first + k < floor) continue;
        const auto* frame = image->data() + 16 + k * fb;
        tail.insert(tail.end(), frame, frame + fb);
      }
    }
    const auto& one = oneshot.value();
    if (one.size() != 16 + tail.size() || (sealed - floor) * fb != tail.size() ||
        !std::equal(tail.begin(), tail.end(), one.begin() + 16)) {
      m.fail("the follower's tail of " + name + " differs from the one-shot range query");
    }
  }

  Options options_;
  chem::System system_;
  core::LabelMap labels_;
  std::vector<std::vector<float>> window_;
  std::vector<std::vector<float>> expected_;
  std::unique_ptr<core::Ada> writer_;
  std::unique_ptr<core::Ada> follower_;
  std::unique_ptr<serve::AdaService> service_;  // over follower_, so declared after it
  int stream_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_live_stream(const Options& options) {
  return std::make_unique<LiveStream>(options);
}

}  // namespace perfbench
