// perfbench: the repository benchmark.
//
//   perfbench --workload <paper-load|range-scrub|serve-zipf|live-stream>
//             --seed <n> --seconds <s> --trace <0|1> --dir <scratch dir>
//             [--trace-dir <dir>]
//
// One workload per process.  The run sets up its inputs kSetups times
// (setup_s is the median), prepares the output checks off the clock, and
// then times the workload with the program's observability off.  With
// --trace 1 the timed phase is split: an untraced part gives the baseline
// for the tracing overhead, and a traced part (obs counters, span trees and
// the event ring on) gives every per-layer metric.  The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "workload.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

constexpr int kSetups = 3;
// Share of --seconds the untraced baseline of a traced run gets.
constexpr double kTraceBaselineShare = 0.4;

// Every per-layer metric, in BENCHMARK.json order.  Each traced run prints
// all of them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"setup.gen_ms", "ms"},
    {"codec.decode_ms", "ms"},
    {"codec.decode_mb_s", "MB/s"},
    {"vmd.decompress_ms", "ms"},
    {"categorize_ms", "ms"},
    {"split_ms", "ms"},
    {"merge_ms", "ms"},
    {"pool.tasks", "count"},
    {"pool.steal", "count"},
    {"pool.busy_ms", "ms"},
    {"plfs.append_ms", "ms"},
    {"plfs.index_write_ms", "ms"},
    {"plfs.append.calls", "count"},
    {"plfs.bytes_written_per_xtc_byte", "ratio"},
    {"crc32c.mb_s", "MB/s"},
    {"crc.bytes_verified_per_byte_returned", "ratio"},
    {"retrieve_ms", "ms"},
    {"plfs.read_ms", "ms"},
    {"read.bytes_per_byte_returned", "ratio"},
    {"retrieve.sg.extents", "count"},
    {"range.frames_read_per_frame_returned", "ratio"},
    {"query.range.fallback", "count"},
    {"range.call_ms", "ms"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions", "count"},
    {"cache.duplicate_fills", "count"},
    {"cache.lookup_ms", "ms"},
    {"cache.fill_ms", "ms"},
    {"stream.add_frame_ms_p90", "ms"},
    {"stream.flush_stall_ms_p90", "ms"},
    {"stream.data_poll_ms_p50", "ms"},
    {"stream.empty_poll_ms_p50", "ms"},
    {"stream.polls_per_chunk", "ratio"},
    {"stream.bytes_read_per_byte_tailed", "ratio"},
    {"serve.coalesce_ratio", "ratio"},
    {"serve.fills", "count"},
    {"serve.rejected", "count"},
    {"serve.drr_rounds", "count"},
    {"serve.queue_peak", "count"},
    {"serve.inflight_peak", "count"},
    {"gen.late_ms_p99", "ms"},
    {"vmd.structure_ms", "ms"},
    {"vmd.read_ms", "ms"},
    {"vmd.frames_ms", "ms"},
    {"vmd.render_ms", "ms"},
    {"vmd.frame_store_mb", "MB"},
    {"trace.overhead_ms", "ms"},
};

struct Args {
  Options options;
  bool ok = true;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      args.ok = false;
      break;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.options.seed = std::strtoull(value.c_str(), &end, 10);
      args.ok = args.ok && end != nullptr && *end == '\0';
    } else if (flag == "--seconds") {
      args.options.seconds = std::strtod(value.c_str(), &end);
      args.ok = args.ok && end != nullptr && *end == '\0' && args.options.seconds > 0;
    } else if (flag == "--trace") {
      args.ok = args.ok && (value == "0" || value == "1");
      args.options.trace = value == "1";
    } else if (flag == "--dir") {
      args.options.dir = value;
      have_dir = true;
    } else if (flag == "--trace-dir") {
      args.options.trace_dir = value;
    } else {
      args.ok = false;
    }
  }
  args.ok = args.ok && have_workload && have_dir;
  return args;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "paper-load") return make_paper_load(options);
  if (options.workload == "range-scrub") return make_range_scrub(options);
  if (options.workload == "serve-zipf") return make_serve_zipf(options);
  if (options.workload == "live-stream") return make_live_stream(options);
  return nullptr;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) value = 0;
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string json_escape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

double safe_ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- program-side (obs) per-layer numbers ------------------------------------

struct SpanTotals {
  std::uint64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
};

std::map<std::string, SpanTotals> span_totals(const ada::obs::Snapshot& snapshot) {
  std::map<std::string, SpanTotals> out;
  for (const auto& span : snapshot.spans) {
    SpanTotals& t = out[span.name];
    t.calls += span.calls;
    t.total_ms += static_cast<double>(span.total_ns) / 1e6;
    t.self_ms += static_cast<double>(span.self_ns) / 1e6;
  }
  return out;
}

/// Per-name totals over the event ring's begin/end pairs.  A span's self
/// time is its duration minus the union of its children's intervals
/// (children may run on other threads and overlap).
struct EventSpan {
  const char* name = "";
  std::uint64_t parent = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

std::map<std::string, SpanTotals> event_totals(const std::vector<ada::obs::RawEvent>& events) {
  std::map<std::uint64_t, EventSpan> spans;
  for (const auto& e : events) {
    if (e.lane != 0) continue;
    if (e.phase == ada::obs::RawEvent::Phase::kBegin) {
      EventSpan& s = spans[e.span_id];
      s.name = e.name;
      s.parent = e.parent_span;
      s.begin = e.ts_ns;
    } else if (e.phase == ada::obs::RawEvent::Phase::kEnd) {
      auto it = spans.find(e.span_id);
      if (it != spans.end()) it->second.end = e.ts_ns;
    }
  }
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>> children;
  for (const auto& [id, s] : spans) {
    if (s.end >= s.begin && s.end != 0 && s.parent != 0) {
      children[s.parent].emplace_back(s.begin, s.end);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (const auto& [id, s] : spans) {
    if (s.end == 0 || s.end < s.begin) continue;  // still open or torn by wraparound
    SpanTotals& t = out[s.name];
    const double total = static_cast<double>(s.end - s.begin) / 1e6;
    double covered = 0;
    if (auto it = children.find(id); it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      for (auto [a, b] : intervals) {
        a = std::max(a, s.begin);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (a > hi) {
          covered += static_cast<double>(hi - lo);
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += static_cast<double>(hi - lo);
    }
    ++t.calls;
    t.total_ms += total;
    t.self_ms += std::max(0.0, total - covered / 1e6);
  }
  return out;
}

std::map<std::string, double> program_layers(const ada::obs::Snapshot& snapshot,
                                             const std::map<std::string, SpanTotals>& events,
                                             const Measurement& m, std::uint64_t read_bytes) {
  const auto spans = span_totals(snapshot);
  const auto counter = [&](const std::string& name) {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto span = [&](const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const auto event_mean = [&](const std::string& name) {
    const auto it = events.find(name);
    return it == events.end() ? 0.0
                              : safe_ratio(it->second.total_ms,
                                           static_cast<double>(it->second.calls));
  };
  const auto value = [&](const std::string& name) {
    const auto it = m.values.find(name);
    return it == m.values.end() ? 0.0 : it->second;
  };
  const auto mean_ms = [&](const SpanTotals& t) {
    return safe_ratio(t.total_ms, static_cast<double>(t.calls));
  };

  std::map<std::string, double> out;
  const double ingests = counter("ingest.calls");
  const SpanTotals decode = span("decode");
  out["codec.decode_ms"] = mean_ms(decode);
  // Trajectory decode also runs in the traditional VMD load, which has no
  // program span: its profiler time joins the decode span time.
  out["codec.decode_mb_s"] =
      safe_ratio(counter("codec.decode.bytes_in") / 1e6,
                 (decode.total_ms + value("vmd.decompress_total_ms")) / 1e3);
  out["split_ms"] = safe_ratio(span("split").total_ms, ingests);
  out["merge_ms"] = safe_ratio(span("merge").total_ms, ingests);
  out["pool.tasks"] = counter("pool.tasks");
  out["pool.steal"] = counter("pool.steal");
  out["pool.busy_ms"] = counter("pool.busy_ns") / 1e6;
  out["plfs.append_ms"] = mean_ms(span("plfs_append"));
  // The dispatcher's own time around its PLFS appends: label file, index
  // and stream-state writes (the program has no separate index-write span).
  const SpanTotals dispatch = span("dispatch");
  out["plfs.index_write_ms"] = safe_ratio(dispatch.self_ms, static_cast<double>(dispatch.calls));
  out["plfs.append.calls"] = counter("plfs.append.calls");
  out["plfs.bytes_written_per_xtc_byte"] =
      safe_ratio(counter("plfs.append.bytes"), counter("ingest.bytes_in"));
  // Every extent byte a query reads is CRC-verified before use, so the bytes
  // the process read are the bytes verified (index reads are a few KB).
  // Reads that are not the program's (the traditional path reading its
  // host .xtc) are taken out first.
  const double read = std::max(0.0, static_cast<double>(read_bytes) - value("foreign_read_bytes"));
  const double returned = value("bytes_returned");
  out["read.bytes_per_byte_returned"] = safe_ratio(read, returned);
  if (m.values.count("range_bytes_returned") != 0) {
    out["range.frames_read_per_frame_returned"] = safe_ratio(read, value("range_bytes_returned"));
  }
  if (m.values.count("tailed_bytes") != 0) {
    out["stream.bytes_read_per_byte_tailed"] = safe_ratio(read, value("tailed_bytes"));
  }
  out["crc.bytes_verified_per_byte_returned"] = out["read.bytes_per_byte_returned"];
  out["retrieve_ms"] = mean_ms(span("retrieve"));
  out["plfs.read_ms"] = event_mean("plfs_read");
  out["retrieve.sg.extents"] = counter("retrieve.sg.extents");
  out["query.range.fallback"] = counter("query.range.fallback");
  const double hits = counter("cache.hits");
  const double misses = counter("cache.misses");
  out["cache.hit_ratio"] = safe_ratio(hits, hits + misses);
  out["cache.evictions"] = counter("cache.evictions");
  out["cache.duplicate_fills"] = counter("cache.duplicate_fills");
  out["cache.lookup_ms"] = event_mean("cache_lookup");
  out["cache.fill_ms"] = event_mean("cache_fill");
  out["stream.polls_per_chunk"] =
      safe_ratio(counter("stream.tail_polls"), counter("stream.chunks"));
  return out;
}

double crc_mb_s(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return 0;
  bytes = bytes.first(std::min<std::size_t>(bytes.size(), std::size_t{16} << 20));
  static volatile std::uint32_t sink = 0;  // keeps the checksum from being elided
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    sink = ada::crc32c(bytes.data(), bytes.size());
    rates.push_back(static_cast<double>(bytes.size()) / 1e6 / (ms_since(start) / 1e3));
  }
  return median(rates);
}

void write_trace_files(const Options& options, const std::map<std::string, SpanTotals>& events) {
  if (options.trace_dir.empty()) return;
  std::error_code ec;
  fs::create_directories(options.trace_dir, ec);
  const std::string stem = options.trace_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  {
    std::ofstream chrome(stem + ".chrome.json");
    chrome << ada::obs::capture_chrome_json();
  }
  std::ofstream spans(stem + ".spans.jsonl");
  for (const SpanRecord& r : SpanRecorder::global().records()) {
    spans << "{\"op\":" << r.op_id << ",\"name\":\"" << json_escape(r.name)
          << "\",\"start_ms\":" << json_number(r.start_ms)
          << ",\"end_ms\":" << json_number(r.end_ms) << "}\n";
  }
  for (const auto& [name, t] : events) {
    spans << "{\"layer\":\"" << json_escape(name) << "\",\"calls\":" << t.calls
          << ",\"total_ms\":" << json_number(t.total_ms)
          << ",\"self_ms\":" << json_number(t.self_ms) << "}\n";
  }
}

void print_self_times(const std::map<std::string, SpanTotals>& events) {
  std::vector<std::pair<std::string, SpanTotals>> rows(events.begin(), events.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.self_ms > b.second.self_ms; });
  std::printf("  %-22s %8s %12s %12s\n", "span (traced phase)", "calls", "total_ms", "self_ms");
  for (const auto& [name, t] : rows) {
    std::printf("  %-22s %8llu %12.2f %12.2f\n", name.c_str(),
                static_cast<unsigned long long>(t.calls), t.total_ms, t.self_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.ok) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--dir <scratch dir> [--trace-dir <dir>]\n");
    return 2;
  }
  const Options& options = args.options;
  std::unique_ptr<Workload> workload = make_workload(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  // --- set-up, several times; the last one is kept --------------------------
  std::vector<double> setup_s;
  std::vector<double> gen_ms;
  std::vector<double> categorize_ms;
  for (int k = 0; k < kSetups; ++k) {
    const std::string dir = options.dir + "/setup" + std::to_string(k);
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    double categorize = 0;
    const Clock::time_point start = Clock::now();
    gen_ms.push_back(workload->setup(dir, &categorize));
    setup_s.push_back(ms_since(start) / 1e3);
    categorize_ms.push_back(categorize);
    if (k > 0) fs::remove_all(options.dir + "/setup" + std::to_string(k - 1), ec);
  }
  Measurement prep;
  workload->prepare(prep);

  // The timed phase runs with the program's observability off.
  if (ada::obs::enabled() || ada::obs::trace_enabled()) {
    std::fprintf(stderr, "observability is on before the timed phase\n");
    return 3;
  }

  std::vector<Metric> metrics;
  Measurement m;
  std::vector<Metric> named;
  if (!options.trace) {
    reset_peak_rss();
    m = workload->measure(options.seconds, true);
    const double peak = peak_rss_mib();
    metrics.push_back({"setup_s", median(setup_s), "s"});
    std::vector<Metric> gated;
    workload->end_to_end(m, gated, named);
    metrics.insert(metrics.end(), gated.begin(), gated.end());
    metrics.push_back({"peak_rss_mb", peak, "MiB"});
  } else {
    Measurement baseline = workload->measure(options.seconds * kTraceBaselineShare, false);
    ada::obs::set_default_ring_capacity(std::size_t{1} << 16);
    ada::obs::reset_all();
    ada::obs::reset_events();
    SpanRecorder::global().set_recording(true);
    ada::obs::set_enabled(true);
    ada::obs::set_trace_enabled(true);
    const std::uint64_t read_before = bytes_read();
    m = workload->measure(options.seconds * (1 - kTraceBaselineShare), false);
    const std::uint64_t read_bytes = bytes_read() - read_before;
    ada::obs::set_trace_enabled(false);
    ada::obs::set_enabled(false);
    SpanRecorder::global().set_recording(false);

    const auto snapshot = ada::obs::capture();
    const auto events = event_totals(ada::obs::snapshot_events());
    std::map<std::string, double> layers = program_layers(snapshot, events, m, read_bytes);
    workload->per_layer(m, layers);
    layers["setup.gen_ms"] = median(gen_ms);
    layers["categorize_ms"] = median(categorize_ms);
    layers["crc32c.mb_s"] = crc_mb_s(workload->crc_sample());
    const double traced = percentile(m.samples["op"], 0.5);
    const double untraced = percentile(baseline.samples["op"], 0.5);
    layers["trace.overhead_ms"] = traced - untraced;
    m.attempted += baseline.attempted;
    m.failed += baseline.failed;
    m.notes.insert(m.notes.end(), baseline.notes.begin(), baseline.notes.end());

    std::printf("tracing overhead (%s p50): traced %.3f ms - untraced %.3f ms = %+.3f ms\n",
                workload->main_metric().c_str(), traced, untraced, traced - untraced);
    std::printf("ring events dropped: %llu\n",
                static_cast<unsigned long long>(ada::obs::events_dropped()));
    print_self_times(events);
    write_trace_files(options, events);
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = layers.find(name);
      metrics.push_back({name, it == layers.end() ? 0.0 : it->second, unit});
    }
  }
  m.attempted += prep.attempted;
  m.failed += prep.failed;
  m.notes.insert(m.notes.end(), prep.notes.begin(), prep.notes.end());

  const bool correct = m.failed == 0 && m.attempted > 0;
  for (const std::string& note : m.notes) std::printf("check failed: %s\n", note.c_str());
  for (const Metric& metric : named) {
    std::printf("%-28s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("%-28s %14.6f fraction (%llu of %llu)\n", "error_rate",
              error_rate(m.attempted, m.failed), static_cast<unsigned long long>(m.failed),
              static_cast<unsigned long long>(m.attempted));
  for (const Metric& metric : metrics) {
    std::printf("%-28s %14.4f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << m.attempted
       << ", \"failed\": " << m.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << json_number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}
