#include "plfs/container.hpp"

#include <algorithm>
#include <cstring>

#include "common/binary_io.hpp"
#include "common/crc32c.hpp"

namespace ada::plfs {

namespace {
constexpr std::uint8_t kIndexMagicV1[8] = {'P', 'L', 'F', 'S', 'I', 'D', 'X', '1'};
constexpr std::uint8_t kIndexMagicV2[8] = {'P', 'L', 'F', 'S', 'I', 'D', 'X', '2'};
constexpr std::uint8_t kIndexMagicV3[8] = {'P', 'L', 'F', 'S', 'I', 'D', 'X', '3'};
constexpr std::uint8_t kStreamMagic[8] = {'A', 'D', 'A', 'S', 'T', 'R', 'M', '1'};
}

std::vector<std::uint64_t> block_bounds(std::span<const std::uint64_t> frame_offsets,
                                        std::uint64_t length) {
  if (frame_offsets.size() <= kFrameBlock) return {};
  for (std::size_t i = 0; i < frame_offsets.size(); ++i) {
    if (frame_offsets[i] >= length || (i > 0 && frame_offsets[i] <= frame_offsets[i - 1])) {
      return {};
    }
  }
  std::vector<std::uint64_t> bounds{0};
  for (std::size_t f = kFrameBlock; f < frame_offsets.size(); f += kFrameBlock) {
    bounds.push_back(frame_offsets[f]);
  }
  bounds.push_back(length);
  return bounds;
}

std::vector<std::uint32_t> block_checksums(std::span<const std::uint8_t> extent,
                                           std::span<const std::uint64_t> frame_offsets) {
  const auto bounds = block_bounds(frame_offsets, extent.size());
  std::vector<std::uint32_t> crcs;
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    crcs.push_back(crc32c(extent.data() + bounds[k], bounds[k + 1] - bounds[k]));
  }
  return crcs;
}

std::vector<std::uint8_t> encode_index(const std::vector<IndexRecord>& records) {
  ByteWriter w;
  w.put_bytes(kIndexMagicV3);
  w.put_u32_le(static_cast<std::uint32_t>(records.size()));
  for (const IndexRecord& r : records) {
    w.put_u64_le(r.logical_offset);
    w.put_u64_le(r.length);
    w.put_u32_le(r.backend);
    w.put_string_le(r.label);
    w.put_string_le(r.dropping);
    w.put_u64_le(r.physical_offset);
    w.put_u32_le(r.crc32c);
    w.put_u8(r.flags);
    if (r.has_frame_table()) {
      w.put_u32_le(static_cast<std::uint32_t>(r.frame_offsets.size()));
      for (const std::uint64_t off : r.frame_offsets) w.put_u64_le(off);
    }
    if (r.has_frame_base()) {
      w.put_u64_le(r.frame_base);
      w.put_u32_le(r.frame_count);
    }
    if (r.has_block_checksums()) {
      w.put_u32_le(static_cast<std::uint32_t>(r.block_crcs.size()));
      for (const std::uint32_t crc : r.block_crcs) w.put_u32_le(crc);
    }
  }
  return w.take();
}

Result<std::vector<IndexRecord>> decode_index(std::span<const std::uint8_t> image) {
  int version = 1;
  if (image.size() >= 12 && std::memcmp(image.data(), kIndexMagicV3, 8) == 0) {
    version = 3;
  } else if (image.size() >= 12 && std::memcmp(image.data(), kIndexMagicV2, 8) == 0) {
    version = 2;
  } else if (image.size() < 12 || std::memcmp(image.data(), kIndexMagicV1, 8) != 0) {
    return corrupt_data("bad plfs index magic");
  }
  ByteReader r(image.subspan(8));
  ADA_ASSIGN_OR_RETURN(const std::uint32_t count, r.get_u32_le());
  std::vector<IndexRecord> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    IndexRecord record;
    ADA_ASSIGN_OR_RETURN(record.logical_offset, r.get_u64_le());
    ADA_ASSIGN_OR_RETURN(record.length, r.get_u64_le());
    ADA_ASSIGN_OR_RETURN(record.backend, r.get_u32_le());
    ADA_ASSIGN_OR_RETURN(record.label, r.get_string_le());
    ADA_ASSIGN_OR_RETURN(record.dropping, r.get_string_le());
    ADA_ASSIGN_OR_RETURN(record.physical_offset, r.get_u64_le());
    if (version >= 2) {
      ADA_ASSIGN_OR_RETURN(record.crc32c, r.get_u32_le());
      ADA_ASSIGN_OR_RETURN(record.flags, r.get_u8());
      if (version == 2) {
        record.flags = static_cast<std::uint8_t>(record.flags & ~IndexRecord::kHasBlockChecksums);
      }
      if (record.has_frame_table()) {
        ADA_ASSIGN_OR_RETURN(const std::uint32_t frames, r.get_u32_le());
        // Bound the allocation by the bytes actually present: a lying count
        // must fail cheaply, not reserve gigabytes.
        if (frames > r.remaining() / 8) {
          return corrupt_data("frame table count exceeds index size");
        }
        record.frame_offsets.reserve(frames);
        for (std::uint32_t f = 0; f < frames; ++f) {
          std::uint64_t off = 0;
          ADA_ASSIGN_OR_RETURN(off, r.get_u64_le());
          record.frame_offsets.push_back(off);
        }
      }
      if (record.has_frame_base()) {
        ADA_ASSIGN_OR_RETURN(record.frame_base, r.get_u64_le());
        ADA_ASSIGN_OR_RETURN(record.frame_count, r.get_u32_le());
      }
      if (record.has_block_checksums()) {
        ADA_ASSIGN_OR_RETURN(const std::uint32_t blocks, r.get_u32_le());
        // One CRC per kFrameBlock frames of the table, none for a table that
        // fits one block.  Only the count is checked here: a table that does
        // not partition the extent still decodes, readers verify its record
        // whole, and fsck flags that one record as broken.
        const std::size_t frames = record.frame_offsets.size();
        const std::size_t expected = frames > kFrameBlock ? (frames - 1) / kFrameBlock + 1 : 0;
        if (blocks != expected || blocks > r.remaining() / 4) {
          return corrupt_data("block checksum count disagrees with the frame table");
        }
        record.block_crcs.resize(blocks);
        for (std::uint32_t& crc : record.block_crcs) {
          ADA_ASSIGN_OR_RETURN(crc, r.get_u32_le());
        }
      }
    }
    records.push_back(std::move(record));
  }
  if (!r.at_end()) return corrupt_data("trailing bytes after plfs index records");
  return records;
}

std::vector<std::uint8_t> encode_stream_state(const StreamState& state) {
  ByteWriter w;
  w.put_bytes(kStreamMagic);
  w.put_u8(state.sealed ? 1 : 0);
  w.put_u64_le(state.sealed_frames);
  w.put_u64_le(state.sealed_chunks);
  w.put_u64_le(state.floor_frames);
  w.put_u64_le(state.retention_drops);
  std::vector<std::uint8_t> image = w.take();
  const std::uint32_t crc = crc32c(image);
  ByteWriter tail;
  tail.put_u32_le(crc);
  const std::vector<std::uint8_t> tail_bytes = tail.take();
  image.insert(image.end(), tail_bytes.begin(), tail_bytes.end());
  return image;
}

Result<StreamState> decode_stream_state(std::span<const std::uint8_t> image) {
  // magic(8) + sealed(1) + 4 x u64(32) + crc(4)
  constexpr std::size_t kStateBytes = 8 + 1 + 4 * 8 + 4;
  if (image.size() != kStateBytes) return corrupt_data("bad stream state size");
  if (std::memcmp(image.data(), kStreamMagic, 8) != 0) {
    return corrupt_data("bad stream state magic");
  }
  ByteReader r(image.subspan(8, kStateBytes - 8 - 4));
  StreamState state;
  std::uint8_t sealed = 0;
  ADA_ASSIGN_OR_RETURN(sealed, r.get_u8());
  if (sealed > 1) return corrupt_data("bad stream state sealed flag");
  state.sealed = sealed != 0;
  ADA_ASSIGN_OR_RETURN(state.sealed_frames, r.get_u64_le());
  ADA_ASSIGN_OR_RETURN(state.sealed_chunks, r.get_u64_le());
  ADA_ASSIGN_OR_RETURN(state.floor_frames, r.get_u64_le());
  ADA_ASSIGN_OR_RETURN(state.retention_drops, r.get_u64_le());
  ByteReader crc_r(image.subspan(kStateBytes - 4));
  ADA_ASSIGN_OR_RETURN(const std::uint32_t stored_crc, crc_r.get_u32_le());
  if (stored_crc != crc32c(image.data(), kStateBytes - 4)) {
    return corrupt_data("stream state crc mismatch");
  }
  if (state.floor_frames > state.sealed_frames) {
    return corrupt_data("stream state floor above watermark");
  }
  return state;
}

std::uint64_t logical_size(const std::vector<IndexRecord>& records) {
  std::uint64_t end = 0;
  for (const IndexRecord& r : records) end = std::max(end, r.logical_offset + r.length);
  return end;
}

bool is_complete(const std::vector<IndexRecord>& records) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  extents.reserve(records.size());
  for (const IndexRecord& r : records) {
    if (r.length > 0) extents.emplace_back(r.logical_offset, r.logical_offset + r.length);
  }
  std::sort(extents.begin(), extents.end());
  std::uint64_t cursor = 0;
  for (const auto& [begin, end] : extents) {
    if (begin != cursor) return false;  // hole or overlap
    cursor = end;
  }
  return true;
}

}  // namespace ada::plfs
