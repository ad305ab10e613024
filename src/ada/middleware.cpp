#include "ada/middleware.hpp"

#include <algorithm>
#include <numeric>

#include "ada/label_store.hpp"
#include "common/binary_io.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "formats/raw_traj.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/warn.hpp"

namespace ada::core {

Ada::Ada(plfs::PlfsMount mount, AdaConfig config)
    : mount_(std::move(mount)),
      config_(std::move(config)),
      dispatcher_(mount_, config_.placement, config_.frame_tables) {
  target_apps_upper_.reserve(config_.target_apps.size());
  for (const std::string& app : config_.target_apps) target_apps_upper_.push_back(to_upper(app));
  target_extensions_upper_.reserve(config_.target_extensions.size());
  for (const std::string& extension : config_.target_extensions) {
    target_extensions_upper_.push_back(to_upper(extension));
  }
  if (config_.cache_bytes != 0) cache_ = std::make_unique<QueryCache>(config_.cache_bytes);
}

bool Ada::should_intercept(const std::string& path, const std::string& app_id) const {
  const std::string app = to_upper(app_id);
  if (std::find(target_apps_upper_.begin(), target_apps_upper_.end(), app) ==
      target_apps_upper_.end()) {
    return false;
  }
  // Extension of the basename only: "/runs.2026/traj" has none, and the dot
  // in the directory component must never be parsed as one.
  const std::string extension = to_upper(path_extension(path));
  if (extension.empty()) return false;
  return std::find(target_extensions_upper_.begin(), target_extensions_upper_.end(), extension) !=
         target_extensions_upper_.end();
}

Result<IngestReport> Ada::ingest(const chem::System& structure,
                                 std::span<const std::uint8_t> xtc_image,
                                 const std::string& logical_name) {
  return ingest_with_labels(categorize_protein_misc(structure), xtc_image, logical_name);
}

Result<IngestReport> Ada::ingest_with_labels(const LabelMap& labels,
                                             std::span<const std::uint8_t> xtc_image,
                                             const std::string& logical_name) {
  const obs::ScopedTimer span("ingest");
  const obs::TraceSpan trace("ingest", logical_name);
  ADA_OBS_COUNT("ingest.calls", 1);
  ADA_OBS_COUNT("ingest.bytes_in", xtc_image.size());
  obs::trace_counter("ingest.bytes_in", xtc_image.size());
  if (!labels.is_partition()) {
    return invalid_argument("label map does not partition the atom range");
  }

  // Re-ingesting a live dataset must never append duplicate subsets (and a
  // second label file) onto its container.  Without overwrite, fail up front
  // -- before any decompression work; with it, stage the replacement in a
  // sibling container and swap it in atomically once fully written, so
  // concurrent queries see the old dataset or the new one, never a mix.
  std::string target = logical_name;
  const bool replacing = mount_.container_exists(logical_name);
  if (replacing) {
    if (!config_.overwrite) {
      return already_exists("dataset " + logical_name +
                            " already exists (set AdaConfig::overwrite to replace it)");
    }
    target = logical_name + ".overwrite.tmp";
    if (mount_.container_exists(target)) {
      ADA_RETURN_IF_ERROR(mount_.remove_container(target));  // crash leftover
    }
  }

  auto result = ingest_into(labels, xtc_image, target);
  if (replacing) {
    if (!result.is_ok()) {
      if (mount_.container_exists(target)) (void)mount_.remove_container(target);
      return result;
    }
    result.value().logical_name = logical_name;  // the dataset, not the staging name
    const Status swapped = mount_.replace_container(target, logical_name);
    if (!swapped.is_ok()) {
      if (mount_.container_exists(target)) (void)mount_.remove_container(target);
      return swapped.error();
    }
  }
  // The mutation generation already fences stale entries; the explicit drop
  // frees their memory immediately.
  if (result.is_ok() && cache_ != nullptr) cache_->invalidate(logical_name);
  return result;
}

Result<IngestReport> Ada::ingest_into(const LabelMap& labels,
                                      std::span<const std::uint8_t> xtc_image,
                                      const std::string& container_name) {
  DataPreProcessor preprocessor(labels);
  IngestReport report;
  report.logical_name = container_name;
  ADA_ASSIGN_OR_RETURN(const auto subsets,
                       preprocessor.split(xtc_image, &report.preprocess, config_.threads));

  ADA_RETURN_IF_ERROR(dispatcher_.dispatch(container_name, subsets));
  for (const auto& [tag, bytes] : subsets) {
    report.backend_of_tag[tag] = dispatcher_.policy().backend_for(tag);
  }

  // Persist the label file inside the container (reserved label) so that
  // later sessions -- and the indexer -- can resolve tags without the .pdb.
  const std::string label_text = encode_label_file(labels);
  ADA_RETURN_IF_ERROR(
      dispatcher_
          .dispatch_one(container_name, kLabelFileTag,
                        std::span(reinterpret_cast<const std::uint8_t*>(label_text.data()),
                                  label_text.size()))
          .status());

  if (config_.keep_original) {
    ADA_RETURN_IF_ERROR(
        dispatcher_.dispatch_one(container_name, kOriginalTag, xtc_image).status());
  }
  return report;
}

std::vector<Result<IngestReport>> Ada::ingest_batch(const chem::System& structure,
                                                    const std::vector<Phase>& phases,
                                                    unsigned threads) {
  // The label map is shared read-only across phases (one structure).
  const LabelMap labels = categorize_protein_misc(structure);
  std::vector<Result<IngestReport>> results(
      phases.size(), Result<IngestReport>(internal_error("not executed")));

  // Duplicate names would race on the same container: reject up front.
  // Sort a name index so the check is O(n log n), not the n^2 nested scan.
  std::vector<std::size_t> by_name(phases.size());
  std::iota(by_name.begin(), by_name.end(), std::size_t{0});
  std::sort(by_name.begin(), by_name.end(), [&](std::size_t a, std::size_t b) {
    return phases[a].logical_name < phases[b].logical_name;
  });
  for (std::size_t k = 1; k < by_name.size(); ++k) {
    if (phases[by_name[k - 1]].logical_name == phases[by_name[k]].logical_name) {
      const auto error =
          invalid_argument("duplicate phase name: " + phases[by_name[k]].logical_name);
      for (auto& r : results) r = error;
      return results;
    }
  }

  std::vector<std::function<void()>> tasks;
  tasks.reserve(phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    tasks.push_back([this, &labels, &phases, &results, i] {
      // Each task touches only its own container directory; the mount's
      // file operations on distinct containers are independent.
      results[i] = ingest_with_labels(labels, phases[i].xtc_image, phases[i].logical_name);
    });
  }
  parallel_run(std::move(tasks), threads != 0 ? threads : config_.threads);
  return results;
}

Result<IngestStream> Ada::begin_stream(const LabelMap& labels, const std::string& logical_name,
                                       std::uint32_t chunk_frames) {
  return IngestStream::begin(dispatcher_, labels, logical_name, chunk_frames, config_.threads,
                             config_.retain_bytes);
}

void Ada::count_query_bytes(const Tag& tag, std::size_t bytes) const {
  if (!obs::enabled()) return;
  static obs::Counter& total = obs::Registry::global().counter("query.bytes_out");
  total.add(bytes);
  obs::Counter* per_tag = nullptr;
  {
    // Registry handles are stable for the life of the process, so each
    // tag pays the "query.bytes_out.<tag>" string build exactly once.
    const std::lock_guard<std::mutex> lock(query_counter_mutex_);
    auto it = query_bytes_counters_.find(tag);
    if (it == query_bytes_counters_.end()) {
      it = query_bytes_counters_
               .emplace(tag, &obs::Registry::global().counter("query.bytes_out." + tag))
               .first;
    }
    per_tag = it->second;
  }
  per_tag->add(bytes);
}

struct FrameSpan {
  std::uint64_t begin = 0;
  std::uint64_t end = std::numeric_limits<std::uint64_t>::max();  // exclusive
  std::uint64_t stride = 1;

  // Global frame indices selected out of `total` frames.
  std::vector<std::uint64_t> select(std::uint64_t total) const {
    std::vector<std::uint64_t> picked;
    for (std::uint64_t g = begin; g < std::min(end, total); g += stride) picked.push_back(g);
    return picked;
  }
};

namespace {

// Frames per cached range block -- the index's checksum block, so a block
// fill reads and verifies exactly one block of a batch extent.  Large enough
// to amortize per-entry cache bookkeeping, small enough that a sparse
// stride never drags whole subsets into the budget.
using plfs::kFrameBlock;

// Cache-key tag for frame block `b` holding global frames [lo, hi).  '\x01'
// cannot appear in a label (the label file is line-oriented text), so block
// entries never collide with whole-subset entries; both carry the logical
// name, so invalidation and generation fencing cover them identically.  A
// *partial* block -- the growing open tail of a live stream, or a block
// straddling the retention floor -- also keys on its frame count ('\x02'),
// so a grown tail block misses and re-fills instead of hitting the shorter
// cached image; floor moves bump the rewrite generation, which fences the
// rest.
std::string block_key(const Tag& tag, std::uint64_t b, std::uint64_t lo, std::uint64_t hi) {
  std::string key = tag + '\x01' + std::to_string(b);
  if (lo != b * kFrameBlock || hi != (b + 1) * kFrameBlock) {
    key += '\x02' + std::to_string(hi - lo);
  }
  return key;
}

// True iff the extent is one canonical RawTrajWriter image -- a 16-byte
// header followed by fixed-size frames placed exactly where its frame table
// says.  `frame_bytes` accumulates the uniform frame size across extents
// (0 = not yet known).  Anything else (legacy records without tables,
// concatenated segments, lying tables) routes the query down the
// slice-the-full-subset fallback, so a malformed table can never cause an
// out-of-bounds slice.
bool canonical_extent(const DatasetLocation& location, std::uint64_t& frame_bytes) {
  if (!location.has_frame_table) return false;
  const auto& table = location.frame_offsets;
  if (table.empty()) return location.bytes == 16;  // header-only extent, zero frames
  if (table.front() != 16) return false;
  std::uint64_t span = 0;
  for (std::size_t i = 1; i < table.size(); ++i) {
    if (table[i] <= table[i - 1]) return false;
    const std::uint64_t gap = table[i] - table[i - 1];
    if (span == 0) {
      span = gap;
    } else if (gap != span) {
      return false;
    }
  }
  if (table.back() >= location.bytes) return false;
  const std::uint64_t last = location.bytes - table.back();
  if (span == 0) span = last;  // single-frame extent
  if (last != span) return false;
  if (span < 44 || (span - 44) % 12 != 0) return false;  // RAW frame shape
  if ((span - 44) / 12 > std::numeric_limits<std::uint32_t>::max()) return false;
  if (location.bytes != 16 + table.size() * span) return false;
  if (frame_bytes == 0) frame_bytes = span;
  return frame_bytes == span;
}

// The RAW header (magic | atoms | frames) of a range result.
void append_raw_header(std::vector<std::uint8_t>& out, std::uint32_t atoms,
                       std::uint32_t frames) {
  ByteWriter header;
  header.put_bytes(formats::kRawMagic);
  header.put_u32_le(atoms);
  header.put_u32_le(frames);
  const auto& bytes = header.bytes();
  out.insert(out.end(), bytes.begin(), bytes.end());
}

// Extents concatenated in location order; a single extent is moved, not
// copied.
std::vector<std::uint8_t> concat(std::vector<std::vector<std::uint8_t>> extents) {
  if (extents.size() == 1) return std::move(extents.front());
  std::size_t total = 0;
  for (const auto& extent : extents) total += extent.size();
  std::vector<std::uint8_t> out;
  out.reserve(total);
  for (const auto& extent : extents) out.insert(out.end(), extent.begin(), extent.end());
  return out;
}

// Fallback slicer: cut the selected frames out of a full (possibly
// concatenated) subset image.  Byte-identical to the fast path by
// construction -- both emit header + verbatim frame records.
Result<std::vector<std::uint8_t>> slice_raw_frames(std::span<const std::uint8_t> image,
                                                   const FrameSpan& frames) {
  ADA_ASSIGN_OR_RETURN(const auto cat, formats::RawTrajCatReader::open(image));
  ADA_ASSIGN_OR_RETURN(const auto offsets, formats::scan_raw_frame_offsets(image));
  const std::uint64_t frame_bytes = formats::raw_frame_bytes(cat.atom_count());
  const auto picked = frames.select(offsets.size());
  std::vector<std::uint8_t> out;
  out.reserve(16 + picked.size() * frame_bytes);
  append_raw_header(out, cat.atom_count(), static_cast<std::uint32_t>(picked.size()));
  for (const std::uint64_t g : picked) {
    if (offsets[g] + frame_bytes > image.size()) {
      return corrupt_data("frame " + std::to_string(g) + " overruns the subset image");
    }
    const auto* frame = image.data() + offsets[g];
    out.insert(out.end(), frame, frame + frame_bytes);
  }
  return out;
}

}  // namespace

Result<Ada::Planned> Ada::read(const std::string& logical_name, const Tag& tag,
                               const FrameSpan* frames) const {
  const obs::ScopedTimer span("query");
  const obs::TraceSpan trace(frames == nullptr ? "query" : "query_range", tag);
  ADA_OBS_COUNT("query.calls", 1);
  if (tag == kLabelFileTag || tag == kOriginalTag) {
    return invalid_argument("tag '" + tag + "' is reserved");
  }
  auto planned = frames == nullptr ? read_subset(logical_name, tag, nullptr)
                                   : read_frames(logical_name, tag, *frames);
  if (planned.is_ok()) count_query_bytes(tag, planned.value().bytes().size());
  return planned;
}

Result<std::vector<std::vector<std::uint8_t>>> Ada::fetch(
    std::span<const DatasetLocation> locations, std::span<const ExtentRead> reads,
    const Tag& tag) const {
  const obs::ScopedTimer retrieve_span("retrieve");
  const obs::TraceSpan retrieve_trace("retrieve", tag);
  const obs::TraceSpan read_trace("plfs_read", tag);
  return IoRetriever(mount_, RetrieveOptions{config_.read_threads, config_.read_queue_depth})
      .fetch(locations, reads);
}

Result<Ada::Planned> Ada::read_subset(const std::string& logical_name, const Tag& tag,
                                      const std::vector<DatasetLocation>* located) const {
  // The generation is observed BEFORE any read: a write racing the fetch
  // below leaves the filled entry detectably stale instead of poisoning
  // later lookups with bytes from the middle of a mutation.  The fill guard
  // makes the miss single-flight: concurrent cold misses of the same key
  // wait for this read instead of each paying their own (it resolves after
  // the insert below, or on the error return).
  std::uint64_t generation = 0;
  QueryCache::FillGuard fill_guard;
  if (cache_ != nullptr) {
    generation = mount_.mutation_generation(logical_name);
    const obs::TraceSpan lookup_trace("cache_lookup", tag);
    QueryCache::Image hit = cache_->lookup_or_fill(logical_name, tag, generation, &fill_guard);
    if (hit != nullptr) return Planned{std::move(hit), {}};
  }
  std::vector<DatasetLocation> own;
  if (located == nullptr) {
    ADA_ASSIGN_OR_RETURN(own, Indexer(mount_).locate(logical_name, tag));
    located = &own;
  }
  ADA_ASSIGN_OR_RETURN(auto extents, fetch(*located, whole_reads(located->size()), tag));
  std::vector<std::uint8_t> bytes = concat(std::move(extents));
  if (cache_ == nullptr) return Planned{nullptr, std::move(bytes)};
  // Fill only from this CRC-verified read: a faulted read errors out above
  // and never lands here.  insert() returns the image now cached under the
  // key -- the incumbent if a concurrent fill won, so every racer shares
  // one allocation.
  const obs::TraceSpan fill_trace("cache_fill", tag);
  return Planned{cache_->insert(logical_name, tag, generation, std::move(bytes)), {}};
}

Result<Ada::Planned> Ada::read_frames(const std::string& logical_name, const Tag& tag,
                                      const FrameSpan& range) const {
  ADA_OBS_COUNT("query.range.calls", 1);
  if (range.stride == 0) return invalid_argument("frame stride must be positive");

  // Fencing: frame blocks validate against the *rewrite* generation, which
  // only history-rewriting writes advance (retention, repair, overwrite).  A
  // streaming chunk flush bumps the mutation clock but not this one, so
  // sealed-prefix blocks stay hittable across flushes -- the flush extends
  // the readable prefix instead of invalidating it.  Observed BEFORE any
  // read, so a racing rewrite leaves filled blocks detectably stale.
  const std::uint64_t block_generation =
      cache_ != nullptr ? mount_.rewrite_generation(logical_name) : 0;

  ADA_ASSIGN_OR_RETURN(const auto locations, Indexer(mount_).locate(logical_name, tag));

  // Global frame numbering: streamed extents carry their own frame span
  // (frame_base, clamped to the sealed watermark by the indexer); batch
  // extents number implicitly from 0.  A mixed container, a span gap, or a
  // span/table disagreement routes to the fallback slicer.
  const bool streamed = !locations.empty() && locations.front().has_frame_base;
  const std::uint64_t base_frame = streamed ? locations.front().frame_base : 0;
  if (range.begin < base_frame) {
    return out_of_range("frame " + std::to_string(range.begin) +
                        " is below the retention floor (" + std::to_string(base_frame) + ")");
  }

  std::uint64_t frame_bytes = 0;
  std::uint64_t total_frames = base_frame;
  std::vector<std::uint64_t> first_frame(locations.size(), 0);
  bool fast = true;
  for (std::size_t i = 0; i < locations.size() && fast; ++i) {
    first_frame[i] = total_frames;
    if (locations[i].has_frame_base != streamed ||
        (streamed && (locations[i].frame_base != total_frames ||
                      locations[i].frame_count != locations[i].frame_offsets.size()))) {
      fast = false;
      break;
    }
    fast = canonical_extent(locations[i], frame_bytes);
    total_frames += locations[i].frame_offsets.size();
  }
  if (!fast || total_frames == base_frame) {
    // Fallback covers containers ingested without frame tables and any
    // non-canonical extent: read the whole subset (through the subset cache
    // when armed; otherwise the locations above are the whole read plan) and
    // slice.  A zero-frame dataset also lands here -- the atom count then
    // comes from the stored RAW header, which the index cannot supply.
    ADA_OBS_COUNT("query.range.fallback", 1);
    ADA_ASSIGN_OR_RETURN(const Planned full,
                         read_subset(logical_name, tag, cache_ != nullptr ? nullptr : &locations));
    // The full image of a retained stream starts at the floor, not frame 0:
    // shift the selection into the image's local numbering.
    FrameSpan local = range;
    local.begin -= base_frame;
    local.end = range.end > base_frame ? range.end - base_frame : 0;
    ADA_ASSIGN_OR_RETURN(auto sliced, slice_raw_frames(full.bytes(), local));
    return Planned{nullptr, std::move(sliced)};
  }

  const auto picked = range.select(total_frames);
  // Owning extent of global frame `g`: last extent whose first frame is
  // <= g (ties from zero-frame extents resolve to the later, owning one).
  const auto extent_of = [&](std::uint64_t g) {
    return static_cast<std::size_t>(
        std::upper_bound(first_frame.begin(), first_frame.end(), g) - first_frame.begin() - 1);
  };

  // Plan.  With the cache armed, every block the selection touches is
  // looked up whole and, on a miss, claimed single-flight: a concurrent
  // query touching the same block waits for our insert instead of reading
  // the same extents again.  Claims are taken in ascending block order, so
  // two queries can never wait on each other's blocks in a cycle.  A missed
  // block's fill needs every frame in it.  Without the cache no block is
  // assembled: only the selected frames are needed.  A needed frame costs
  // the checksum block holding it (one read per run of adjacent blocks), or
  // the whole extent when its record has no block list.
  struct Block {
    std::uint64_t lo = 0;  // first frame, clamped to the retention floor
    std::uint64_t hi = 0;  // one past the last, clamped to the sealed prefix
    std::string key;
    QueryCache::Image image;
    QueryCache::FillGuard claim;
  };
  std::map<std::uint64_t, Block> blocks;
  std::vector<ExtentRead> needed;  // ascending by (location, first_block)
  // Extent and checksum block (0 for an extent read whole) of frame `g`.
  const auto block_of = [&](std::uint64_t g) {
    const std::size_t e = extent_of(g);
    const bool whole = locations[e].block_crcs.empty();
    return std::pair(e, whole ? std::size_t{0}
                              : static_cast<std::size_t>((g - first_frame[e]) / kFrameBlock));
  };
  const auto need = [&](std::uint64_t g) {
    const auto [e, k] = block_of(g);
    if (!needed.empty() && needed.back().location == e) {
      ExtentRead& run = needed.back();
      if (run.whole() || k < run.end_block) return;  // already covered
      if (k == run.end_block) {
        ++run.end_block;
        return;
      }
    }
    needed.push_back(locations[e].block_crcs.empty() ? ExtentRead{e, 0, 0}
                                                     : ExtentRead{e, k, k + 1});
  };
  for (const std::uint64_t g : picked) {
    if (cache_ == nullptr) {
      need(g);
      continue;
    }
    const std::uint64_t b = g / kFrameBlock;
    if (!blocks.empty() && blocks.rbegin()->first == b) continue;
    Block& block = blocks[b];
    block.lo = std::max(b * kFrameBlock, base_frame);
    block.hi = std::min((b + 1) * kFrameBlock, total_frames);
    block.key = block_key(tag, b, block.lo, block.hi);
    {
      const obs::TraceSpan lookup_trace("cache_lookup", tag);
      block.image = cache_->lookup_or_fill(logical_name, block.key, block_generation, &block.claim);
    }
    if (block.image == nullptr) {
      for (std::uint64_t f = block.lo; f < block.hi; ++f) need(f);
    }
  }

  // Fetch: one verified pread per planned read, serial or scatter-gather.
  std::vector<std::vector<std::uint8_t>> images;
  if (!needed.empty()) {
    ADA_ASSIGN_OR_RETURN(images, fetch(locations, needed, tag));
  }
  const auto frame_in_extent = [&](std::uint64_t g) {
    const auto [e, k] = block_of(g);
    // The read holding the frame: the last one starting at or before it.
    const auto it = std::prev(std::upper_bound(
        needed.begin(), needed.end(), std::pair(e, k), [](const auto& key, const ExtentRead& r) {
          return key < std::pair(r.location, r.first_block);
        }));
    // canonical_extent proved offset + frame_bytes <= extent length, and a
    // block run ends on a frame boundary.
    return images[static_cast<std::size_t>(it - needed.begin())].data() +
           (locations[e].frame_offsets[g - first_frame[e]] - it->extent_offset(locations[e]));
  };

  // Fill every missed block from the verified extents, releasing its claim
  // as soon as its insert lands rather than at return.
  for (auto& [b, block] : blocks) {
    if (block.image != nullptr) continue;
    std::vector<std::uint8_t> bytes;
    bytes.reserve((block.hi - block.lo) * frame_bytes);
    for (std::uint64_t f = block.lo; f < block.hi; ++f) {
      const std::uint8_t* frame = frame_in_extent(f);
      bytes.insert(bytes.end(), frame, frame + frame_bytes);
    }
    const obs::TraceSpan fill_trace("cache_fill", tag);
    block.image = cache_->insert(logical_name, block.key, block_generation, std::move(bytes));
    block.claim.reset();
  }

  // Assemble one canonical RAW segment.  When the selection is every frame
  // of the one extent read whole (an uncached tail poll of one stream
  // chunk) and that extent's stored header is the canonical one, the
  // extent already is the segment (canonical_extent): return it, not a copy.
  std::vector<std::uint8_t> out;
  append_raw_header(out, static_cast<std::uint32_t>((frame_bytes - 44) / 12),
                    static_cast<std::uint32_t>(picked.size()));
  if (cache_ == nullptr && needed.size() == 1 && needed.front().whole() &&
      picked.size() == locations[needed.front().location].frame_offsets.size() &&
      std::equal(out.begin(), out.end(), images.front().begin())) {
    return Planned{nullptr, std::move(images.front())};
  }
  out.reserve(16 + picked.size() * frame_bytes);
  for (const std::uint64_t g : picked) {
    const std::uint8_t* frame = nullptr;
    if (cache_ == nullptr) {
      frame = frame_in_extent(g);
    } else {
      const Block& block = blocks.at(g / kFrameBlock);
      frame = block.image->data() + (g - block.lo) * frame_bytes;
    }
    out.insert(out.end(), frame, frame + frame_bytes);
  }
  return Planned{nullptr, std::move(out)};
}

Result<std::vector<std::pair<Tag, Result<Ada::Planned>>>> Ada::read_every_tag(
    const std::string& logical_name) const {
  // Only an unreadable index is fatal: with no tag list there is nothing to
  // serve or degrade to.
  ADA_ASSIGN_OR_RETURN(const auto tag_list, tags(logical_name));
  std::vector<std::pair<Tag, Result<Planned>>> plans;
  plans.reserve(tag_list.size());
  for (const Tag& tag : tag_list) plans.emplace_back(tag, internal_error("not executed"));
  // With read_threads > 1 the per-tag plans run concurrently on the shared
  // pool (each keeps its own extent-level fan-out; nested run_batch is
  // deadlock-free because the caller participates).  Results stay in tag
  // order either way.
  std::vector<std::function<void()>> work;
  work.reserve(plans.size());
  for (auto& plan : plans) {
    work.push_back([this, &logical_name, &plan] {
      plan.second = read(logical_name, plan.first, nullptr);
    });
  }
  parallel_run(std::move(work), std::max(1u, config_.read_threads));
  return plans;
}

Result<std::vector<std::uint8_t>> Ada::query(const std::string& logical_name,
                                             const Tag& tag) const {
  ADA_ASSIGN_OR_RETURN(Planned planned, read(logical_name, tag, nullptr));
  return std::move(planned).take();
}

Result<QueryCache::Image> Ada::query_image(const std::string& logical_name,
                                           const Tag& tag) const {
  ADA_ASSIGN_OR_RETURN(Planned planned, read(logical_name, tag, nullptr));
  return std::move(planned).share();
}

Result<std::vector<std::uint8_t>> Ada::query(const std::string& logical_name, const Tag& tag,
                                             const FrameRange& range) const {
  const FrameSpan frames{range.begin, range.end, range.stride};
  ADA_ASSIGN_OR_RETURN(Planned planned, read(logical_name, tag, &frames));
  return std::move(planned).take();
}

Result<Ada::TailChunk> Ada::query_tail(const std::string& logical_name, const Tag& tag,
                                       std::uint64_t from_frame) const {
  const obs::ScopedTimer span("query");
  const obs::TraceSpan trace("query_tail", tag);
  ADA_OBS_COUNT("stream.tail_polls", 1);
  ADA_ASSIGN_OR_RETURN(const auto state, mount_.read_stream_state(logical_name));
  TailChunk chunk;
  chunk.from_frame = from_frame;
  // A batch container (no stream state) is already sealed: the rest of it
  // is one chunk, and a poll from past its end comes back empty.
  chunk.sealed = !state.has_value() || state->sealed;
  FrameSpan frames{from_frame};
  if (state.has_value()) {
    if (from_frame < state->floor_frames) {
      return out_of_range("tail frame " + std::to_string(from_frame) +
                          " is below the retention floor (" +
                          std::to_string(state->floor_frames) + ")");
    }
    if (from_frame >= state->sealed_frames) return chunk;  // nothing new yet
    // The watermark observed above bounds the read; a flush racing us only
    // means the next poll has more to serve.
    frames.end = state->sealed_frames;
  }
  ADA_ASSIGN_OR_RETURN(Planned planned, read(logical_name, tag, &frames));
  chunk.image = std::move(planned).take();
  ADA_ASSIGN_OR_RETURN(const auto raw, formats::RawTrajReader::open(chunk.image));
  chunk.frames = raw.frame_count();
  if (chunk.frames == 0) chunk.image.clear();
  return chunk;
}

Result<std::optional<plfs::StreamState>> Ada::stream_progress(
    const std::string& logical_name) const {
  return mount_.read_stream_state(logical_name);
}

std::vector<std::uint8_t> Ada::PartialQuery::concat() const {
  std::vector<std::uint8_t> out;
  std::size_t total = 0;
  for (const auto& [tag, bytes] : subsets) total += bytes.size();
  out.reserve(total);
  for (const auto& [tag, bytes] : subsets) out.insert(out.end(), bytes.begin(), bytes.end());
  return out;
}

Result<Ada::PartialQuery> Ada::query_degraded(const std::string& logical_name) const {
  const obs::ScopedTimer span("query");
  const obs::TraceSpan trace("query_degraded", logical_name);
  ADA_OBS_COUNT("query.degraded.calls", 1);
  ADA_ASSIGN_OR_RETURN(auto plans, read_every_tag(logical_name));
  PartialQuery out;
  for (auto& [tag, plan] : plans) {
    if (plan.is_ok()) {
      out.subsets.emplace(tag, std::move(plan).value().take());
      continue;
    }
    ADA_OBS_COUNT("query.degraded.failed_tags", 1);
    obs::warn(obs::WarnSeverity::kWarn, "degraded-read",
              logical_name + "/" + tag + ": " + plan.error().to_string());
    out.failed.push_back(TagFailure{tag, plan.error()});
  }
  if (out.partial()) ADA_OBS_COUNT("query.degraded.partial", 1);
  return out;
}

Result<std::vector<std::uint8_t>> Ada::query_all(const std::string& logical_name) const {
  ADA_ASSIGN_OR_RETURN(const auto plans, read_every_tag(logical_name));
  std::size_t total = 0;
  for (const auto& [tag, plan] : plans) {
    if (!plan.is_ok()) return plan.error();  // first failure in tag order wins
    total += plan.value().bytes().size();
  }
  std::vector<std::uint8_t> out;
  out.reserve(total);
  for (const auto& [tag, plan] : plans) {
    const auto bytes = plan.value().bytes();
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

Result<LabelMap> Ada::labels(const std::string& logical_name) const {
  ADA_ASSIGN_OR_RETURN(const auto locations, Indexer(mount_).locate(logical_name, kLabelFileTag));
  ADA_ASSIGN_OR_RETURN(auto extents,
                       IoRetriever(mount_).fetch(locations, whole_reads(locations.size())));
  const auto bytes = concat(std::move(extents));
  return decode_label_file(std::string(bytes.begin(), bytes.end()));
}

Result<std::vector<Tag>> Ada::tags(const std::string& logical_name) const {
  return Indexer(mount_).tags(logical_name);
}

Result<std::uint64_t> Ada::subset_bytes(const std::string& logical_name, const Tag& tag) const {
  return mount_.label_size(logical_name, tag);
}

}  // namespace ada::core
