// range-scrub: a viewer scrubbing through a long trajectory, closed loop,
// one client.
//
// Set-up ingests one 512-frame paper-size dataset (about 270 MB raw; four
// 128-frame phases generated and encoded on four threads, then one batch
// ingest).  The client sends seeded random 10-frame windows and stride-4
// selections over 64-frame spans, on both tags, with 32 MiB of query cache
// for the dataset -- far below the working set, so misses and evictions do
// the work.  Every result is compared with the matching slice of the
// whole-subset query, fetched once off the clock through a cacheless
// middleware.
#include <cstring>
#include <thread>

#include "ada/categorizer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace core = ada::core;
constexpr std::uint32_t kPhases = 4;
constexpr std::uint32_t kPhaseFrames = 128;
constexpr std::uint32_t kFrames = kPhases * kPhaseFrames;
constexpr std::uint32_t kWindow = 10;
constexpr std::uint32_t kStrideSpan = 64;
constexpr std::uint32_t kStride = 4;
// The cache splits its budget evenly over 8 shards chosen by dataset name,
// so the one dataset here gets 256 MiB / 8 = 32 MiB: room for a few 7-10 MB
// frame blocks of a 270 MB working set.
constexpr std::uint64_t kCacheBytes = 256ull << 20;
constexpr double kTail = 0.75;
const char* const kName = "scrub.xtc";

class RangeScrub final : public Workload {
 public:
  explicit RangeScrub(Options options)
      : options_(std::move(options)), rng_(options_.seed * 0x9e3779b97f4a7c15ull + 1) {}

  double setup(const std::string& dir, double* categorize_ms) override {
    ada_.reset();
    dir_ = dir;
    system_ = build_system();
    const Clock::time_point categorize = Clock::now();
    labels_ = core::categorize_protein_misc(system_);
    *categorize_ms = ms_since(categorize);

    const Clock::time_point gen = Clock::now();
    std::vector<std::vector<std::uint8_t>> phases(kPhases);
    std::vector<std::thread> threads;
    for (std::uint32_t p = 0; p < kPhases; ++p) {
      threads.emplace_back([&, p] {
        phases[p] = encode_xtc(
            system_, generate_frames(system_, kPhaseFrames, options_.seed * 16 + p),
            p * kPhaseFrames);
      });
    }
    for (auto& t : threads) t.join();
    std::vector<std::uint8_t> xtc;
    for (const auto& phase : phases) xtc.insert(xtc.end(), phase.begin(), phase.end());
    const double gen_ms = ms_since(gen);

    core::AdaConfig config;
    config.threads = 4;
    config.cache_bytes = kCacheBytes;
    ada_ = open_ada(dir + "/ada", config);
    const auto report = ada_->ingest(system_, xtc, kName);
    ADA_CHECK(report.is_ok());
    return gen_ms;
  }

  void prepare(Measurement& m) override {
    // The whole-subset reference, read without touching the measured cache.
    const auto reference = open_ada(dir_ + "/ada", core::AdaConfig{});
    for (const core::Tag& tag : {core::kProteinTag, core::kMiscTag}) {
      ++m.attempted;
      auto image = reference->query(kName, tag);
      if (!image.is_ok()) {
        m.fail("whole-subset query of tag " + tag + ": " + image.error().to_string());
        continue;
      }
      reference_[tag] = std::move(image).value();
    }
  }

  Measurement measure(double seconds, bool full) override {
    Measurement m;
    const std::size_t min_ops = full ? min_samples_for(kTail) : 1;
    const Clock::time_point start = Clock::now();
    double returned = 0;
    while ((ms_since(start) < seconds * 1e3 || m.samples["all"].size() < min_ops) &&
           ms_since(start) < 2 * seconds * 1e3) {
      // A fixed cycle of (tag, selection) kinds keeps every run's mix the
      // same: the two tags' extents differ in size, so a seeded mix would
      // move the median between them.  The seed places the selections.
      const std::uint64_t kind = query_++ % 4;
      const bool stride = kind == 1 || kind == 2;
      const core::Tag& tag = kind % 2 == 1 ? core::kMiscTag : core::kProteinTag;
      core::FrameRange range;
      if (stride) {
        range.begin = static_cast<std::uint32_t>(rng_.uniform_index(kFrames - kStrideSpan + 1));
        range.end = range.begin + kStrideSpan;
        range.stride = kStride;
      } else {
        range.begin = static_cast<std::uint32_t>(rng_.uniform_index(kFrames - kWindow + 1));
        range.end = range.begin + kWindow;
      }
      ++m.attempted;
      BenchSpan span("bench.range");
      const auto result = ada_->query(kName, tag, range);
      const double ms = span.end();
      if (!result.is_ok()) {
        m.fail("range query: " + result.error().to_string());
        continue;
      }
      if (!matches_reference(tag, range, result.value())) {
        m.fail("range [" + std::to_string(range.begin) + ", " + std::to_string(range.end) +
               ") stride " + std::to_string(range.stride) + " of tag " + tag +
               " differs from the whole-subset slice");
        continue;
      }
      returned += static_cast<double>(result.value().size());
      m.samples["all"].push_back(ms);
      m.samples[tag == core::kProteinTag ? "op" : "aux"].push_back(ms);
      m.samples[stride ? "stride" : "window"].push_back(ms);
    }
    m.values["elapsed_s"] = ms_since(start) / 1e3;
    m.values["bytes_returned"] = returned;
    m.values["range_bytes_returned"] = returned;
    return m;
  }

  std::string main_metric() const override { return "range_ms (tag p)"; }

  void end_to_end(const Measurement& m, std::vector<Metric>& gated,
                  std::vector<Metric>& named) const override {
    const auto& all = m.samples.at("all");
    const auto& protein = m.samples.at("op");
    const auto& misc = m.samples.at("aux");
    gated.push_back({"op_ms_p50", percentile(protein, 0.5), "ms"});
    gated.push_back({"op_ms_tail", percentile(all, kTail), "ms"});
    gated.push_back({"aux_ms_p50", percentile(misc, 0.5), "ms"});
    gated.push_back({"rate", static_cast<double>(all.size()) / m.values.at("elapsed_s"), "1/s"});
    named.push_back({"range_ms_p50", percentile(all, 0.5), "ms"});
    named.push_back({"range_ms_p75", percentile(all, kTail), "ms"});
    if (samples_beyond(all.size(), 0.9) >= 10) {
      named.push_back({"range_ms_p90", percentile(all, 0.9), "ms"});
    }
    named.push_back({"range_samples", static_cast<double>(all.size()), "count"});
    named.push_back({"range_p_ms_p50", percentile(protein, 0.5), "ms"});
    named.push_back({"range_m_ms_p50", percentile(misc, 0.5), "ms"});
    named.push_back({"window_ms_p50", percentile(m.samples.at("window"), 0.5), "ms"});
    named.push_back({"stride4_ms_p50", percentile(m.samples.at("stride"), 0.5), "ms"});
  }

  void per_layer(const Measurement& m, std::map<std::string, double>& out) const override {
    const auto& ops = m.samples.at("all");
    double total = 0;
    for (const double ms : ops) total += ms;
    out["range.call_ms"] = ops.empty() ? 0 : total / static_cast<double>(ops.size());
  }

  std::span<const std::uint8_t> crc_sample() const override {
    const auto it = reference_.find(core::kProteinTag);
    return it == reference_.end() ? std::span<const std::uint8_t>{} : it->second;
  }

 private:
  bool matches_reference(const core::Tag& tag, const core::FrameRange& range,
                         const std::vector<std::uint8_t>& out) const {
    const auto it = reference_.find(tag);
    if (it == reference_.end()) return false;
    const std::vector<std::uint8_t>& ref = it->second;
    const std::size_t atoms = labels_.groups.at(tag).count();
    const std::size_t frame_bytes = 44 + 12 * atoms;
    const std::size_t picked = (range.end - range.begin + range.stride - 1) / range.stride;
    if (out.size() != 16 + picked * frame_bytes || ref.size() != 16 + kFrames * frame_bytes) {
      return false;
    }
    std::uint32_t header_frames = 0;
    std::memcpy(&header_frames, out.data() + 12, 4);
    if (std::memcmp(out.data(), ref.data(), 12) != 0 || header_frames != picked) return false;
    for (std::size_t k = 0; k < picked; ++k) {
      const std::size_t g = range.begin + k * range.stride;
      if (std::memcmp(out.data() + 16 + k * frame_bytes, ref.data() + 16 + g * frame_bytes,
                      frame_bytes) != 0) {
        return false;
      }
    }
    return true;
  }

  Options options_;
  ada::Rng rng_;
  std::uint64_t query_ = 0;
  std::string dir_;
  chem::System system_;
  core::LabelMap labels_;
  std::unique_ptr<core::Ada> ada_;
  std::map<core::Tag, std::vector<std::uint8_t>> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_range_scrub(const Options& options) {
  return std::make_unique<RangeScrub>(options);
}

}  // namespace perfbench
