// PLFS container structures: index records and their on-disk encoding.
//
// Following PLFS (Bent et al., SC'09), a logical file is a *container*: a
// same-named directory on every backend file system, holding data
// "droppings" plus an index that maps logical extents to (backend, dropping,
// physical offset).  ADA's I/O dispatcher leans on exactly this: each
// dropping carries the label of the data subset it stores, so a tag query
// resolves to the droppings with that label.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace ada::plfs {

/// Frames per checksum block (index v3) and per cached frame-range block:
/// a range read fetches and verifies only the blocks its frames fall in.
inline constexpr std::uint64_t kFrameBlock = 32;

/// One logical extent of a container.
struct IndexRecord {
  /// flags bits (v2 index format).
  static constexpr std::uint8_t kHasChecksum = 0x01;
  /// Record carries a per-extent frame table (frame-granular addressing).
  static constexpr std::uint8_t kHasFrameTable = 0x02;
  /// Record carries a global frame span (streaming ingest: the extent holds
  /// frames [frame_base, frame_base + frame_count) of the subset's frame
  /// axis).  Readers clamp to the container's sealed-frame watermark
  /// (StreamState) using exactly this span.
  static constexpr std::uint8_t kHasFrameBase = 0x04;
  /// Record carries one CRC32C per kFrameBlock-frame block (v3 index
  /// format; see block_bounds for the byte span each covers).
  static constexpr std::uint8_t kHasBlockChecksums = 0x08;

  std::uint64_t logical_offset = 0;  // position in the logical file
  std::uint64_t length = 0;
  std::uint32_t backend = 0;         // which backend holds the dropping
  std::string label;                 // data-subset tag ("p", "m", ... or "")
  std::string dropping;              // dropping file name within the container dir
  std::uint64_t physical_offset = 0; // offset inside the dropping file
  std::uint32_t crc32c = 0;          // extent checksum (valid iff kHasChecksum)
  std::uint8_t flags = 0;
  /// Byte offset of each decoded frame relative to the extent start, in
  /// frame order (valid iff kHasFrameTable).  Lets a range query read only
  /// the extents and slices it needs instead of the whole subset.
  std::vector<std::uint64_t> frame_offsets;

  bool has_checksum() const noexcept { return (flags & kHasChecksum) != 0; }
  void set_checksum(std::uint32_t crc) noexcept {
    crc32c = crc;
    flags |= kHasChecksum;
  }

  bool has_frame_table() const noexcept { return (flags & kHasFrameTable) != 0; }
  void set_frame_table(std::vector<std::uint64_t> offsets) {
    frame_offsets = std::move(offsets);
    flags |= kHasFrameTable;
  }

  /// Global frame index of the extent's first frame (valid iff
  /// kHasFrameBase), plus the number of frames the extent holds.  Written by
  /// the streaming ingest so the sealed prefix is computable from the index
  /// alone, whatever order a racing reader saw index and stream state in.
  std::uint64_t frame_base = 0;
  std::uint32_t frame_count = 0;

  bool has_frame_base() const noexcept { return (flags & kHasFrameBase) != 0; }
  void set_frame_base(std::uint64_t base, std::uint32_t count) noexcept {
    frame_base = base;
    frame_count = count;
    flags |= kHasFrameBase;
  }

  /// Per-block checksums (valid iff kHasBlockChecksums): block_crcs[k]
  /// covers bytes [block_bounds[k], block_bounds[k + 1]) of the extent.
  std::vector<std::uint32_t> block_crcs;

  bool has_block_checksums() const noexcept { return (flags & kHasBlockChecksums) != 0; }
  void set_block_checksums(std::vector<std::uint32_t> crcs) {
    block_crcs = std::move(crcs);
    flags |= kHasBlockChecksums;
  }

  friend bool operator==(const IndexRecord&, const IndexRecord&) = default;
};

/// Byte boundaries (relative to the extent start) of the checksum blocks of
/// an extent of `length` bytes with frame table `frame_offsets`: block 0
/// starts at 0 (it carries the RAW header), block k at frame 32k, and the
/// last ends at `length`.  Empty when the extent needs no block list -- 32
/// frames or fewer, which its extent CRC already covers -- or the table is
/// not strictly increasing inside the extent.
std::vector<std::uint64_t> block_bounds(std::span<const std::uint64_t> frame_offsets,
                                        std::uint64_t length);

/// CRC32C of each checksum block of `extent` (see block_bounds); empty when
/// the extent needs none.
std::vector<std::uint32_t> block_checksums(std::span<const std::uint8_t> extent,
                                           std::span<const std::uint64_t> frame_offsets);

/// Serialize an index to its on-disk image (little-endian, magic-prefixed).
/// Writes the v3 format ("PLFSIDX3"): v2's per-record CRC32C + flags byte,
/// plus the block checksum list of records flagged kHasBlockChecksums.
std::vector<std::uint8_t> encode_index(const std::vector<IndexRecord>& records);

/// Parse an on-disk index image.  Accepts v3 ("PLFSIDX3"), v2 ("PLFSIDX2")
/// and legacy v1 ("PLFSIDX1") images; v1 records decode with no checksum
/// (readers then skip verification for those extents), v1/v2 records with
/// no block checksums (readers verify the whole extent).  A block list whose
/// length is not one per kFrameBlock frames of the record's frame table is
/// kCorruptData; whether the table's offsets partition the extent is left
/// to readers and fsck, so one lying table cannot hide the other records.
Result<std::vector<IndexRecord>> decode_index(std::span<const std::uint8_t> image);

/// Live-stream publication state of a container ("stream.plfs", next to the
/// index on backend 0, replaced atomically on every chunk flush).
///
/// The *sealed-frame watermark* `sealed_frames` is the publication point:
/// global frames [floor_frames, sealed_frames) are durable on every tag and
/// safe to serve; anything at or beyond the watermark is the open tail --
/// possibly mid-flush, possibly missing on some tags -- and must stay
/// invisible to readers.  The watermark only moves forward (monotone), the
/// floor only rises (windowed retention dropping the oldest chunks), and
/// `sealed` flips to true exactly once when the stream finishes.  Containers
/// written by batch ingest have no stream state at all; readers then treat
/// every indexed extent as sealed (the pre-streaming behavior, bit for bit).
struct StreamState {
  bool sealed = false;
  std::uint64_t sealed_frames = 0;   // watermark: frames below this are readable
  std::uint64_t sealed_chunks = 0;   // chunks fully published
  std::uint64_t floor_frames = 0;    // retention floor: frames below this are gone
  std::uint64_t retention_drops = 0; // chunks dropped by windowed retention

  friend bool operator==(const StreamState&, const StreamState&) = default;
};

/// Serialize stream state ("ADASTRM1" magic, little-endian fields, trailing
/// CRC32C over everything before it -- a torn or bit-flipped state file is
/// detected, never trusted).
std::vector<std::uint8_t> encode_stream_state(const StreamState& state);

/// Parse an on-disk stream-state image; kCorruptData on bad magic, short or
/// oversized image, or CRC mismatch.
Result<StreamState> decode_stream_state(std::span<const std::uint8_t> image);

/// Logical file size implied by an index (max extent end).
std::uint64_t logical_size(const std::vector<IndexRecord>& records);

/// True if extents tile [0, logical_size) exactly once (no holes/overlap).
bool is_complete(const std::vector<IndexRecord>& records);

}  // namespace ada::plfs
