// Ada: the middleware facade -- the paper's primary contribution, assembled.
//
// Sits between the application (VMD) and the underlying file systems:
//
//   ingest (write path):  should_intercept -> categorize (.pdb) -> label ->
//                          decompress + split (.xtc) -> dispatch to backends
//   query  (read path):   indexer (tag -> dropping paths) -> retriever ->
//                          decompressed subset, ready to render
//
// Everything here operates on real bytes through the PLFS mount; timing
// belongs to the platform simulator.
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ada/categorizer.hpp"
#include "codec/coord_codec.hpp"
#include "ada/dispatcher.hpp"
#include "ada/indexer.hpp"
#include "ada/ingest_stream.hpp"
#include "ada/preprocessor.hpp"
#include "ada/query_cache.hpp"
#include "ada/tag.hpp"
#include "chem/system.hpp"
#include "common/result.hpp"
#include "obs/metrics.hpp"
#include "plfs/plfs.hpp"

namespace ada::core {

/// Middleware configuration.
struct AdaConfig {
  /// Applications whose files ADA traps (paper Section 3.4: "ADA checks if a
  /// file to be written is generated by a target application").
  std::vector<std::string> target_apps = {"vmd"};

  /// File extensions ADA understands; others pass through untouched.
  std::vector<std::string> target_extensions = {".xtc", ".pdb"};

  /// Tag -> backend routing for the dispatcher.
  PlacementPolicy placement;

  /// Keep the original compressed image in the container (provenance).
  bool keep_original = false;

  /// Concurrency budget for ingest-time pre-processing.  1 (the default)
  /// keeps the paper's serial storage-node decode; 0 uses every worker of
  /// the shared thread pool; N > 1 caps frame-parallel decode at N
  /// concurrent workers.  File-level (ingest_batch) and frame-level
  /// parallelism draw from the same persistent pool, so the budget
  /// composes instead of multiplying threads.
  unsigned threads = 1;

  /// Byte budget of the query-side subset cache (ada/query_cache.hpp).
  /// 0 (the default) disables caching entirely: every query re-reads and
  /// re-verifies its extents, byte-identical to the pre-cache read path.
  std::uint64_t cache_bytes = 0;

  /// Allow ingest of a `logical_name` that already exists: the replacement
  /// is staged in a temporary container and swapped in atomically, and any
  /// cached subsets of the old dataset are invalidated.  When false (the
  /// default) such an ingest fails with kAlreadyExists instead of piling
  /// duplicate subsets onto the live container.
  bool overwrite = false;

  /// Coordinate codec version for trajectories written on ADA's behalf
  /// (tools and benches build their formats::XtcWriter from this; the read
  /// path decodes either version transparently).  kV1 keeps the stream
  /// byte-compatible with pre-v2 consumers; kV2 adds inter-frame prediction.
  codec::CodecVersion codec = codec::CodecVersion::kV1;

  /// Populate a per-extent frame table (byte offset of every RAW frame) in
  /// the PLFS index at ingest, enabling the frame-range query fast path.
  /// Disabling reproduces pre-frame-table containers byte for byte; range
  /// queries then fall back to whole-subset retrieval plus slicing.
  bool frame_tables = true;

  /// Concurrent extent reads per query (scatter-gather retrieval,
  /// docs/performance.md).  0 (the default) or 1 fetches a query's planned
  /// extents one at a time on the calling thread; N > 1 fans per-extent
  /// read + CRC-verify tasks onto the shared thread pool, assembled in
  /// logical order, and runs the per-tag plans of query_all() and
  /// query_degraded() concurrently.  The bytes served are the same.
  unsigned read_threads = 0;

  /// Per-backend admission window for parallel reads: at most this many
  /// extent reads in flight against any one backend (0 = unbounded).
  /// Ignored on the serial path.
  unsigned read_queue_depth = 4;

  /// Windowed retention budget for streaming ingest (0 = keep everything).
  /// When the live sealed chunks of a stream exceed this many bytes, the
  /// oldest chunks are dropped and the retention floor rises; queries below
  /// the floor return kOutOfRange.  Batch ingest ignores it.
  std::uint64_t retain_bytes = 0;
};

/// Frame selection for range queries: logical frames `begin`,
/// `begin + stride`, ... in [begin, min(end, frame_count)).  The default
/// selects every frame; an empty or off-the-end range yields a valid RAW
/// image with zero frames.
struct FrameRange {
  std::uint32_t begin = 0;
  std::uint32_t end = std::numeric_limits<std::uint32_t>::max();  // exclusive
  std::uint32_t stride = 1;
};

/// The read planner's frame selection: FrameRange widened to 64-bit frame
/// numbers, so a tail cursor past 2^32 frames keeps its value (defined in
/// middleware.cpp).
struct FrameSpan;

/// What ingest() did (sizes feed the performance model and the benches).
struct IngestReport {
  std::string logical_name;
  PreprocessStats preprocess;
  std::map<Tag, std::uint32_t> backend_of_tag;  // where each subset landed
};

class Ada {
 public:
  Ada(plfs::PlfsMount mount, AdaConfig config);

  /// Write-path trap decision.
  bool should_intercept(const std::string& path, const std::string& app_id) const;

  /// Full ingest of a (.pdb, .xtc) pair under `logical_name`, using the
  /// protein/MISC categorization the paper deploys for GPCR.
  Result<IngestReport> ingest(const chem::System& structure,
                              std::span<const std::uint8_t> xtc_image,
                              const std::string& logical_name);

  /// Ingest with a caller-provided label map (fine-grained tags or a
  /// config-schema categorization).
  Result<IngestReport> ingest_with_labels(const LabelMap& labels,
                                          std::span<const std::uint8_t> xtc_image,
                                          const std::string& logical_name);

  /// Streaming ingest: frames arrive one at a time (running simulations);
  /// see ada/ingest_stream.hpp for durability semantics.
  Result<IngestStream> begin_stream(const LabelMap& labels, const std::string& logical_name,
                                    std::uint32_t chunk_frames = 64);

  /// One trajectory phase of a batch ingest.
  struct Phase {
    std::string logical_name;
    std::span<const std::uint8_t> xtc_image;
  };

  /// Ingest several trajectory phases guided by one structure (paper
  /// Section 2.1: "one .pdb file can guide multiple .xtc files, which
  /// represent different atom motion phases").  Phases are pre-processed in
  /// parallel on the shared thread pool; results are in input order.  Fails
  /// fast on duplicate names; per-phase failures are reported per phase.
  /// `threads` == 0 defers to the config's budget (AdaConfig::threads).
  std::vector<Result<IngestReport>> ingest_batch(const chem::System& structure,
                                                 const std::vector<Phase>& phases,
                                                 unsigned threads = 0);

  /// Read-path query: the decompressed RAW subset image for `tag`
  /// ($ mol addfile /mnt/bar.xtc tag p).
  Result<std::vector<std::uint8_t>> query(const std::string& logical_name, const Tag& tag) const;

  /// Every user subset of a dataset concatenated in tag order (the ADA(all)
  /// retrieval the paper benchmarks; the VFS untagged read).  Fails with the
  /// first lost tag's error in tag order -- query_degraded() is the variant
  /// that serves survivors.
  Result<std::vector<std::uint8_t>> query_all(const std::string& logical_name) const;

  /// query(), but returning the refcounted cache image instead of a copy:
  /// N concurrent holders of the same subset share one allocation (the
  /// serve layer's coalescing path).  Byte-identical to query(); with the
  /// cache disabled the freshly read bytes are wrapped without copying.
  Result<QueryCache::Image> query_image(const std::string& logical_name, const Tag& tag) const;

  /// Frame-range query: a canonical single-segment RAW image holding exactly
  /// the frames `range` selects, byte-identical to slicing those frames out
  /// of the full-subset query.  When every extent carries a frame table the
  /// read touches only the extents the selection needs -- only their
  /// 32-frame checksum blocks that hold selected frames, where the index
  /// has a block list -- and caches fetched frame blocks (when the cache is
  /// armed); otherwise it falls back to the whole-subset read path and
  /// slices.
  Result<std::vector<std::uint8_t>> query(const std::string& logical_name, const Tag& tag,
                                          const FrameRange& range) const;

  /// One batch of newly sealed frames returned by query_tail().
  struct TailChunk {
    std::uint64_t from_frame = 0;     // global index of the first frame served
    std::uint64_t frames = 0;         // frames in `image` (0 = nothing new yet)
    bool sealed = false;              // stream finished: no more data will come
    std::vector<std::uint8_t> image;  // canonical RAW image (empty iff frames == 0)
  };

  /// Tail query for live streams: the frames sealed since `from_frame`
  /// ([from_frame, watermark)), plus whether the stream has sealed.  Callers
  /// poll until `sealed && frames == 0`.  On a batch container (no stream
  /// state) everything is already sealed: one chunk with the remaining
  /// frames, `sealed` true.  `from_frame` below the retention floor is
  /// kOutOfRange; a stream with no sealed frames yet returns an empty chunk.
  Result<TailChunk> query_tail(const std::string& logical_name, const Tag& tag,
                               std::uint64_t from_frame) const;

  /// The container's live-stream state: nullopt for batch containers,
  /// kCorruptData if the state file is torn (fsck repairs it).
  Result<std::optional<plfs::StreamState>> stream_progress(const std::string& logical_name) const;

  /// One tag that could not be served in a degraded query.
  struct TagFailure {
    Tag tag;
    Error error;
  };

  /// Degraded-query result: the subsets that survived plus a typed failure
  /// per lost tag.  Callers MUST consult `failed` (or partial()) before
  /// treating the data as complete -- a partial result is always flagged,
  /// never silently truncated.
  struct PartialQuery {
    std::map<Tag, std::vector<std::uint8_t>> subsets;  // surviving tags, in tag order
    std::vector<TagFailure> failed;

    bool partial() const noexcept { return !failed.empty(); }

    /// Surviving bytes concatenated in tag order (the degraded analogue of
    /// the VFS whole-dataset read).
    std::vector<std::uint8_t> concat() const;
  };

  /// Query every tag of a dataset, returning the survivors when some tags
  /// are unreadable after retries (a down backend, a quarantined extent).
  /// Fails outright only when the tag list itself cannot be resolved.
  Result<PartialQuery> query_degraded(const std::string& logical_name) const;

  /// The label map persisted at ingest.
  Result<LabelMap> labels(const std::string& logical_name) const;

  /// Tags available in a container.
  Result<std::vector<Tag>> tags(const std::string& logical_name) const;

  /// Subset size in bytes without fetching it (indexer only).
  Result<std::uint64_t> subset_bytes(const std::string& logical_name, const Tag& tag) const;

  bool has_dataset(const std::string& logical_name) const {
    return mount_.container_exists(logical_name);
  }

  plfs::PlfsMount& mount() noexcept { return mount_; }
  const AdaConfig& config() const noexcept { return config_; }

  /// The query-side subset cache, or null when AdaConfig::cache_bytes == 0.
  const QueryCache* query_cache() const noexcept { return cache_.get(); }

 private:
  /// Full ingest of a labeled image into container `container_name` (the
  /// dataset itself, or the staging container of an overwrite).
  Result<IngestReport> ingest_into(const LabelMap& labels,
                                   std::span<const std::uint8_t> xtc_image,
                                   const std::string& container_name);

  /// query.bytes_out accounting (total + per-tag cached counter handles).
  void count_query_bytes(const Tag& tag, std::size_t bytes) const;

  /// What the read planner hands back: a shared image (cache-resident) or
  /// bytes this call alone owns (a fresh uncached read).  Entry points that
  /// return a std::vector move owned bytes out and copy only shared ones.
  struct Planned {
    QueryCache::Image shared;
    std::vector<std::uint8_t> owned;

    std::span<const std::uint8_t> bytes() const {
      return shared != nullptr ? std::span<const std::uint8_t>(*shared) : owned;
    }
    std::vector<std::uint8_t> take() && {
      if (shared != nullptr) return *shared;
      return std::move(owned);
    }
    QueryCache::Image share() && {
      if (shared != nullptr) return std::move(shared);
      return std::make_shared<const std::vector<std::uint8_t>>(std::move(owned));
    }
  };

  /// The read planner behind every query entry point: locate -> plan extent
  /// and block reads -> fetch (serial, or scatter-gather when read_threads
  /// > 1) -> verify -> assemble.  `frames` null reads the whole subset (the
  /// stored extents verbatim, each verified by its extent CRC, cached as one
  /// entry under the mutation generation); otherwise one canonical RAW
  /// segment of the selected frames, assembled from the checksum blocks that
  /// hold them (cached as 32-frame blocks under the rewrite generation).
  Result<Planned> read(const std::string& logical_name, const Tag& tag,
                       const FrameSpan* frames) const;
  Result<Planned> read_subset(const std::string& logical_name, const Tag& tag,
                              const std::vector<DatasetLocation>* located) const;
  Result<Planned> read_frames(const std::string& logical_name, const Tag& tag,
                              const FrameSpan& frames) const;
  /// The planner's fetch stage: each planned read as a separate verified
  /// image.
  Result<std::vector<std::vector<std::uint8_t>>> fetch(std::span<const DatasetLocation> locations,
                                                       std::span<const ExtentRead> reads,
                                                       const Tag& tag) const;
  /// read() for every user tag, in tag order, each with its own outcome;
  /// only an unreadable tag list fails the whole call.
  Result<std::vector<std::pair<Tag, Result<Planned>>>> read_every_tag(
      const std::string& logical_name) const;

  plfs::PlfsMount mount_;
  AdaConfig config_;
  IoDispatcher dispatcher_;
  mutable std::unique_ptr<QueryCache> cache_;  // lookups mutate LRU order
  // Trap lists normalized to upper case once at construction;
  // should_intercept sits on the write path of every file operation.
  std::vector<std::string> target_apps_upper_;
  std::vector<std::string> target_extensions_upper_;
  // Per-tag query.bytes_out counter handles, resolved once per tag instead
  // of building a registry key string per query.
  mutable std::mutex query_counter_mutex_;
  mutable std::map<Tag, obs::Counter*> query_bytes_counters_;
};

}  // namespace ada::core
