// paper-load: the paper's own experiment (Fig. 7b turnaround, Fig. 8 CPU
// bursts), closed loop, one client, cache off.
//
// Each cycle ingests the 64-frame paper-size trajectory under a fresh name
// (frame-parallel pre-processing on the shared pool, 4 threads counting the
// caller), then alternates ADA loads (mol new, mol addfile ... tag p, render
// frame 0 in a fresh MolSession) with traditional loads (mol new, mol
// addfile of the host .xtc -- decode every frame -- filter the protein
// atoms, render frame 0).  The previous cycle's container is removed off the
// clock.  Every ADA load's frames are compared with the traditional path's
// decoded-and-filtered protein coordinates.
#include <cstring>

#include "ada/categorizer.hpp"
#include "common/binary_io.hpp"
#include "formats/pdb.hpp"
#include "formats/raw_traj.hpp"
#include "formats/xtc_file.hpp"
#include "vmd/mol.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace core = ada::core;
constexpr std::uint32_t kFrames = 64;
constexpr int kPairsPerCycle = 4;
constexpr double kTail = 0.75;

class PaperLoad final : public Workload {
 public:
  explicit PaperLoad(Options options) : options_(std::move(options)) {}

  double setup(const std::string& dir, double* categorize_ms) override {
    ada_.reset();
    system_ = build_system();
    const Clock::time_point categorize = Clock::now();
    labels_ = core::categorize_protein_misc(system_);
    *categorize_ms = ms_since(categorize);
    const Clock::time_point gen = Clock::now();
    const auto frames = generate_frames(system_, kFrames, options_.seed);
    xtc_ = encode_xtc(system_, frames, 0);
    const double gen_ms = ms_since(gen);
    pdb_ = ada::formats::write_pdb(system_);
    host_xtc_ = dir + "/host.xtc";
    ADA_CHECK(ada::write_file(host_xtc_, xtc_).is_ok());
    core::AdaConfig config;
    config.threads = 4;
    ada_ = open_ada(dir + "/ada", config);

    protein_ = labels_.groups.at(core::kProteinTag);
    ada::formats::RawTrajWriter subset(static_cast<std::uint32_t>(protein_.count()));
    for (std::uint32_t f = 0; f < kFrames; ++f) {
      ADA_CHECK(subset
                    .add_frame(f, 2.0f * static_cast<float>(f), system_.box(),
                               ada::formats::extract_subset(frames[f], protein_))
                    .is_ok());
    }
    subset_image_ = subset.finish();
    return gen_ms;
  }

  void prepare(Measurement&) override {}

  Measurement measure(double seconds, bool full) override {
    Measurement m;
    const std::size_t min_loads = full ? min_samples_for(kTail) : 1;
    const Clock::time_point start = Clock::now();
    double decompress_ms = 0;
    std::map<std::string, double> phase_ms;
    double bytes_returned = 0;
    double trad_bytes_read = 0;
    while ((ms_since(start) < seconds * 1e3 || m.samples["op"].size() < min_loads) &&
           ms_since(start) < 2 * seconds * 1e3) {
      const std::string name = "cycle" + std::to_string(cycle_++) + ".xtc";
      ++m.attempted;
      {
        BenchSpan span("bench.ingest");
        const auto report = ada_->ingest(system_, xtc_, name);
        const double ms = span.end();
        if (!report.is_ok()) {
          m.fail("ingest " + name + ": " + report.error().to_string());
          continue;
        }
        m.samples["ingest"].push_back(ms);
      }
      for (int pair = 0; pair < kPairsPerCycle; ++pair) {
        m.attempted += 2;
        ada::vmd::MolSession ada_session(ada_.get());
        BenchSpan ada_span("bench.ada_load");
        const bool ada_ok = ada_session.mol_new_text(pdb_).is_ok() &&
                            ada_session.mol_addfile("/mnt/" + name, core::kProteinTag).is_ok() &&
                            ada_session.render(0).is_ok();
        const double ada_ms = ada_span.end();

        ada::vmd::MolSession trad_session;
        std::vector<std::vector<float>> filtered;
        BenchSpan trad_span("bench.trad_load");
        bool trad_ok = trad_session.mol_new_text(pdb_).is_ok() &&
                       trad_session.mol_addfile(host_xtc_).is_ok();
        if (trad_ok) {
          const auto& store = trad_session.frames();
          filtered.reserve(store.frame_count());
          for (std::size_t f = 0; f < store.frame_count(); ++f) {
            filtered.push_back(ada::formats::extract_subset(store.frame(f).coords, protein_));
          }
          trad_ok = trad_session.render(0).is_ok();
        }
        const double trad_ms = trad_span.end();

        if (!ada_ok) m.fail("ADA load of " + name);
        if (!trad_ok) m.fail("traditional load of " + name);
        if (!ada_ok || !trad_ok) continue;
        if (!same_frames(ada_session, filtered)) {
          m.fail("ADA tag-p frames of " + name + " differ from the decoded-and-filtered frames");
          continue;
        }
        m.samples["op"].push_back(ada_ms);
        m.samples["aux"].push_back(trad_ms);
        for (const char* phase : {"structure", "read", "frames", "render"}) {
          const std::string stack =
              std::string(phase) == "render" ? "vmd;render" : std::string("vmd;load;") + phase;
          phase_ms[phase] += ada_session.profiler().seconds_under(stack) * 1e3;
        }
        decompress_ms += trad_session.profiler().seconds_under("vmd;load;decompress") * 1e3;
        ada_store_mb_ = ada_session.frames().bytes() / 1e6;
        trad_store_mb_ = trad_session.frames().bytes() / 1e6;
        bytes_returned += static_cast<double>(subset_image_.size());
        trad_bytes_read += static_cast<double>(xtc_.size());
      }
      // Off the clock: the container of this cycle goes away.
      if (!ada_->mount().remove_container(name).is_ok()) m.fail("remove " + name);
    }
    const double loads = static_cast<double>(m.samples["op"].size());
    if (loads > 0) {
      for (const auto& [phase, total] : phase_ms) m.values["vmd." + phase + "_ms"] = total / loads;
      m.values["vmd.decompress_ms"] = decompress_ms / loads;
    }
    m.values["vmd.decompress_total_ms"] = decompress_ms;
    m.values["vmd.frame_store_mb"] = ada_store_mb_;
    m.values["bytes_returned"] = bytes_returned;
    m.values["foreign_read_bytes"] = trad_bytes_read;
    return m;
  }

  std::string main_metric() const override { return "load_ms"; }

  void end_to_end(const Measurement& m, std::vector<Metric>& gated,
                  std::vector<Metric>& named) const override {
    const auto& loads = m.samples.at("op");
    const auto& trad = m.samples.at("aux");
    const double ingest_ms = median(m.samples.at("ingest"));
    gated.push_back({"op_ms_p50", percentile(loads, 0.5), "ms"});
    gated.push_back({"op_ms_tail", percentile(loads, kTail), "ms"});
    gated.push_back({"aux_ms_p50", percentile(trad, 0.5), "ms"});
    gated.push_back({"rate", 1e3 / ingest_ms, "1/s"});

    const double load_p50 = percentile(loads, 0.5);
    const double trad_p50 = percentile(trad, 0.5);
    named.push_back({"ingest_mb_s", static_cast<double>(xtc_.size()) / 1e6 / (ingest_ms / 1e3),
                     "MB/s"});
    named.push_back({"load_ms_p50", load_p50, "ms"});
    named.push_back({"load_ms_p75", percentile(loads, kTail), "ms"});
    if (samples_beyond(loads.size(), 0.9) >= 10) {
      named.push_back({"load_ms_p90", percentile(loads, 0.9), "ms"});
    }
    named.push_back({"load_samples", static_cast<double>(loads.size()), "count"});
    named.push_back({"trad_load_ms_p50", trad_p50, "ms"});
    // Informational comparison with the paper, not gated.
    named.push_back({"info.load_speedup", trad_p50 / load_p50, "x (paper Fig. 7b: up to 13.4)"});
    named.push_back({"info.tag_p_over_decoded_bytes",
                     static_cast<double>(subset_image_.size()) /
                         (trad_store_mb_ * 1e6 + 16.0),
                     "ratio (paper Table 2: 139/327 MB = 0.425)"});
    named.push_back({"info.frame_store_mb_ada", ada_store_mb_, "MB"});
    named.push_back({"info.frame_store_mb_trad", trad_store_mb_, "MB"});
  }

  void per_layer(const Measurement& m, std::map<std::string, double>& out) const override {
    for (const char* key : {"vmd.structure_ms", "vmd.read_ms", "vmd.frames_ms", "vmd.render_ms",
                            "vmd.decompress_ms", "vmd.frame_store_mb"}) {
      if (const auto it = m.values.find(key); it != m.values.end()) out[key] = it->second;
    }
  }

  std::span<const std::uint8_t> crc_sample() const override { return subset_image_; }

 private:
  static bool same_frames(const ada::vmd::MolSession& session,
                          const std::vector<std::vector<float>>& filtered) {
    const auto& store = session.frames();
    if (store.frame_count() != filtered.size() || filtered.size() != kFrames) return false;
    for (std::size_t f = 0; f < filtered.size(); ++f) {
      const auto& coords = store.frame(f).coords;
      if (coords.size() != filtered[f].size() ||
          std::memcmp(coords.data(), filtered[f].data(), coords.size() * sizeof(float)) != 0) {
        return false;
      }
    }
    return true;
  }

  Options options_;
  chem::System system_;
  core::LabelMap labels_;
  chem::Selection protein_;
  std::string pdb_;
  std::vector<std::uint8_t> xtc_;
  std::vector<std::uint8_t> subset_image_;
  std::string host_xtc_;
  std::unique_ptr<core::Ada> ada_;
  int cycle_ = 0;
  double ada_store_mb_ = 0;
  double trad_store_mb_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_load(const Options& options) {
  return std::make_unique<PaperLoad>(options);
}

}  // namespace perfbench
