// The interface every benchmark workload implements, and the metric record
// main.cpp prints.
//
// Each workload reports the same end-to-end metric names so every run of
// every workload prints the full set; what the names mean per workload is
// documented in perfbench/README.md:
//
//   op_ms_p50, op_ms_tail  the workload's user-facing operation (a VMD load,
//                          a range query, a served request, a tail lag)
//   aux_ms_p50             its second timed path (the traditional load, a
//                          stride-4 selection, a range request, a flushing
//                          add_frame)
//   rate                   its throughput (ingests, queries, goodput or
//                          flushes per second)
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ada/middleware.hpp"
#include "common.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;        // scratch directory for this run's data
  std::string trace_dir;  // where a traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One complete set-up into `dir` (a fresh directory): generate the
  /// inputs and ingest the datasets.  Replaces any earlier set-up.  Returns
  /// the ms spent generating inputs; `categorize_ms` receives the ms of the
  /// categorizer call.
  virtual double setup(const std::string& dir, double* categorize_ms) = 0;

  /// Off-clock work between set-up and the timed phase: references for the
  /// output checks, cache warm-up.
  virtual void prepare(Measurement& m) = 0;

  /// One timed phase of about `seconds`, extended until the tail percentile
  /// has enough samples.  `full` is false for the shortened phases of a
  /// traced run, which skip work that feeds no per-layer metric.
  virtual Measurement measure(double seconds, bool full) = 0;

  /// Name of the main latency metric (its p50 is op_ms_p50).
  virtual std::string main_metric() const = 0;

  /// The workload's end-to-end metrics beyond setup_s and peak_rss_mb, and
  /// the named metrics printed beside them.
  virtual void end_to_end(const Measurement& m, std::vector<Metric>& gated,
                          std::vector<Metric>& named) const = 0;

  /// Per-layer values only the workload can compute (bench spans, the
  /// VMD profiler, service stats).  Program-wide counters are added by the
  /// caller.
  virtual void per_layer(const Measurement& m, std::map<std::string, double>& out) const = 0;

  /// Bytes of one of the workload's own subsets, for the checksum probe.
  virtual std::span<const std::uint8_t> crc_sample() const = 0;
};

std::unique_ptr<Workload> make_paper_load(const Options& options);
std::unique_ptr<Workload> make_range_scrub(const Options& options);
std::unique_ptr<Workload> make_serve_zipf(const Options& options);
std::unique_ptr<Workload> make_live_stream(const Options& options);

/// A middleware over two backends (ssd, hdd) under `dir`, protein on the
/// ssd -- the paper's active-on-SSD placement.
std::unique_ptr<ada::core::Ada> open_ada(const std::string& dir, ada::core::AdaConfig config);

}  // namespace perfbench
