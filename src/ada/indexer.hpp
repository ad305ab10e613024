// Indexer + I/O retriever: the read half of the I/O determinator.
//
// "When users send data queries for certain groups of datasets, the indexer
//  uses tags from the queries to look for paths of datasets on the
//  underlying file systems and passes them to the I/O retriever.  The I/O
//  retriever then raises I/O requests ... and obtains the requested data."
//  (paper Section 3.2)
#pragma once

#include <span>
#include <string>
#include <vector>

#include "ada/tag.hpp"
#include "common/result.hpp"
#include "plfs/plfs.hpp"

namespace ada::core {

/// The indexer's answer: where a tagged subset lives.
struct DatasetLocation {
  std::uint32_t backend = 0;
  std::string backend_name;
  std::string host_path;   // resolvable host path of the dropping
  std::uint64_t bytes = 0;
  std::uint64_t physical_offset = 0;  // extent offset inside the dropping
  std::uint32_t crc32c = 0;           // stored extent checksum
  bool has_crc = false;               // false for legacy v1 index records
  /// Byte offset of each decoded frame inside the extent (valid iff
  /// `has_frame_table`): the index-side half of frame-range addressing.
  std::vector<std::uint64_t> frame_offsets;
  bool has_frame_table = false;  // false for records ingested without tables
  /// Global frame span [frame_base, frame_base + frame_count) of this extent
  /// (valid iff `has_frame_base`; streaming ingest).  locate() has already
  /// clamped the location list to the sealed-frame watermark.
  std::uint64_t frame_base = 0;
  std::uint32_t frame_count = 0;
  bool has_frame_base = false;
  /// Checksum blocks (v3 index; empty for records without a block list):
  /// block k covers extent bytes [block_bounds[k], block_bounds[k + 1]) and
  /// is verified against block_crcs[k] (plfs::block_bounds).
  std::vector<std::uint64_t> block_bounds;
  std::vector<std::uint32_t> block_crcs;
};

/// One contiguous read of a located extent: the whole extent (verified by
/// its extent CRC), or the run of its checksum blocks [first_block,
/// end_block) (each verified by its block CRC).
struct ExtentRead {
  std::size_t location = 0;  // index into the fetched location list
  std::size_t first_block = 0;
  std::size_t end_block = 0;  // 0: the whole extent

  bool whole() const noexcept { return end_block == 0; }
  /// Offset of the read's first byte inside the extent.
  std::uint64_t extent_offset(const DatasetLocation& extent) const {
    return whole() ? 0 : extent.block_bounds[first_block];
  }
};

/// One whole-extent read of each of `count` located extents, in order.
inline std::vector<ExtentRead> whole_reads(std::size_t count) {
  std::vector<ExtentRead> reads(count);
  for (std::size_t i = 0; i < count; ++i) reads[i].location = i;
  return reads;
}

class Indexer {
 public:
  explicit Indexer(const plfs::PlfsMount& mount) : mount_(mount) {}

  /// Locations of every dropping carrying `tag` in logical order.
  Result<std::vector<DatasetLocation>> locate(const std::string& logical_name,
                                              const Tag& tag) const;

  /// All user tags present in a container (reserved labels filtered out).
  Result<std::vector<Tag>> tags(const std::string& logical_name) const;

 private:
  const plfs::PlfsMount& mount_;
};

/// Scatter-gather retrieval knobs (docs/performance.md, "Scatter-gather
/// retrieval").
struct RetrieveOptions {
  /// Extent reads in flight per fetch.  0 or 1 reads the extents one at a
  /// time on the calling thread; N > 1 fans per-extent read+verify tasks
  /// onto the shared thread pool so transfer of one extent overlaps
  /// verification of another.
  unsigned threads = 0;

  /// Per-backend admission window for the parallel path: at most this many
  /// extent reads in flight against any one backend (0 = unbounded).  Keeps
  /// a wide fan-out from swamping a single server while other backends idle.
  unsigned queue_depth = 4;

  bool parallel() const noexcept { return threads > 1; }
};

class IoRetriever {
 public:
  explicit IoRetriever(const plfs::PlfsMount& mount, RetrieveOptions options = {})
      : mount_(mount), options_(options) {}

  /// The one fetch: the bytes of each read, as separate images in read
  /// order.  Every read goes through the mount's extent reader
  /// (plfs::PlfsMount::read_extent: a pread of exactly the span, retried,
  /// CRC32C-verified -- a mismatch is a typed kCorruptData error, never
  /// silently served bytes).  With options().parallel() the reads are
  /// scatter-gather; either way the first failure in read order is the one
  /// returned.
  Result<std::vector<std::vector<std::uint8_t>>> fetch(
      std::span<const DatasetLocation> locations, std::span<const ExtentRead> reads) const;

 private:
  Result<std::vector<std::uint8_t>> read(const DatasetLocation& location,
                                         const ExtentRead& read) const;

  const plfs::PlfsMount& mount_;
  RetrieveOptions options_;
};

}  // namespace ada::core
