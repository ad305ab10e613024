// Container verification and repair (fsck for the PLFS layer).
//
// A streaming ingest that crashes between chunk flushes, a backend that
// loses a disk, or a stray file dropped into a container directory all leave
// the container inconsistent.  verify_container() diagnoses; repair()
// restores the strongest consistent state (drops index records whose
// droppings are gone, removes orphan files) without touching intact data.
#pragma once

#include <string>
#include <vector>

#include "common/result.hpp"
#include "plfs/plfs.hpp"

namespace ada::plfs {

struct VerifyReport {
  /// Index records whose dropping file is missing or shorter than the
  /// record's extent.
  std::vector<IndexRecord> broken_records;

  /// Index records whose dropping bytes exist at full length but fail the
  /// stored CRC32C (silent corruption: bit flip, torn rewrite).
  std::vector<IndexRecord> checksum_bad_records;

  /// Checksum blocks (v3 index) that fail their stored CRC32C: block
  /// `block` of `dropping` covers the record's bytes [block_bounds[block],
  /// block_bounds[block + 1]).  Each one's record is also listed in
  /// checksum_bad_records; range reads of the other blocks still succeed.
  struct BadBlock {
    std::uint32_t backend = 0;
    std::string dropping;
    std::size_t block = 0;
  };
  std::vector<BadBlock> bad_blocks;

  /// Files inside container directories that no index record references.
  /// (backend id, file name)
  std::vector<std::pair<std::uint32_t, std::string>> orphan_droppings;

  /// Streamed extents above the sealed-frame watermark: the open tail of an
  /// interrupted stream.  Possibly mid-write, so they are exempt from the
  /// broken/checksum classification; repair quarantines them and seals the
  /// stream.  The sealed prefix below the watermark is untouched.
  std::vector<IndexRecord> open_tail_records;

  /// Stream state present and not sealed (a live stream, or a crash before
  /// finish()).  Informational: an open stream with no other findings is
  /// consistent -- do not run repair on a container still being written.
  bool stream_open = false;

  /// Stream state file present but undecodable (torn write, bit flip).
  /// Repair reconstructs a conservative watermark from the index and seals.
  bool stream_state_corrupt = false;

  /// True when the logical extents tile [0, size) without holes/overlap.
  bool extents_complete = false;

  bool clean() const noexcept {
    return broken_records.empty() && checksum_bad_records.empty() &&
           orphan_droppings.empty() && open_tail_records.empty() &&
           !stream_state_corrupt && extents_complete;
  }
};

/// Diagnose one container.  Fails only if the index itself is unreadable.
Result<VerifyReport> verify_container(const PlfsMount& mount, const std::string& logical_name);

struct RepairActions {
  std::size_t records_dropped = 0;
  std::size_t orphans_removed = 0;
  /// Checksum-bad droppings set aside as "<name>.quarantined" (kept on disk
  /// for forensics, never deleted or served) and dropped from the index.
  std::size_t extents_quarantined = 0;
  /// Open-tail records quarantined + dropped while sealing an interrupted
  /// stream (the sealed prefix below the watermark is untouched).
  std::size_t tail_records_dropped = 0;
};

/// Repair in place: rewrite the index without broken records, quarantine
/// checksum-bad droppings, and delete orphan droppings.  Data whose
/// droppings are intact is never modified.  Extent completeness is *not*
/// restored (lost extents stay lost) -- the report tells the caller what is
/// gone.
///
/// Interrupted streams: when the report carries open-tail records or a
/// corrupt stream state, repair quarantines the tail droppings, drops their
/// records, and *seals* the stream at the watermark (reconstructed from the
/// index -- min across tags of each tag's covered frame end -- if the state
/// file is corrupt).  Only run repair on streams known to be dead; sealing a
/// live stream ends it.
Result<RepairActions> repair_container(PlfsMount& mount, const std::string& logical_name);

}  // namespace ada::plfs
