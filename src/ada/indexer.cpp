#include "ada/indexer.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/admission.hpp"
#include "common/thread_pool.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace ada::core {

Result<std::vector<DatasetLocation>> Indexer::locate(const std::string& logical_name,
                                                     const Tag& tag) const {
  ADA_ASSIGN_OR_RETURN(auto records, mount_.read_index(logical_name));
  std::erase_if(records, [&](const plfs::IndexRecord& r) { return r.label != tag; });
  // Live-streamed containers publish a sealed-frame watermark; only extents
  // entirely below it are safe to serve (the open tail may be mid-flush on
  // some tags).  The clamp works in ANY index/state read interleaving:
  // records carry their own global frame span, so a newer index read against
  // an older watermark simply hides the not-yet-published tail.  A corrupt
  // state file is an error -- never silently "everything sealed".
  ADA_ASSIGN_OR_RETURN(const auto state, mount_.read_stream_state(logical_name));
  if (state.has_value()) {
    std::erase_if(records, [&](const plfs::IndexRecord& r) {
      return r.has_frame_base() && r.frame_base + r.frame_count > state->sealed_frames;
    });
  }
  if (records.empty()) {
    return not_found("no subset tagged '" + tag + "' in " + logical_name);
  }
  std::sort(records.begin(), records.end(),
            [](const plfs::IndexRecord& a, const plfs::IndexRecord& b) {
              return a.logical_offset < b.logical_offset;
            });
  std::vector<DatasetLocation> out;
  out.reserve(records.size());
  for (plfs::IndexRecord& record : records) {
    DatasetLocation location;
    location.backend = record.backend;
    location.backend_name = mount_.backend(record.backend).name;
    location.host_path =
        mount_.backend(record.backend).host_root + "/" + logical_name + "/" + record.dropping;
    location.bytes = record.length;
    location.physical_offset = record.physical_offset;
    location.crc32c = record.crc32c;
    location.has_crc = record.has_checksum();
    location.has_frame_table = record.has_frame_table();
    location.frame_offsets = std::move(record.frame_offsets);
    location.has_frame_base = record.has_frame_base();
    location.frame_base = record.frame_base;
    location.frame_count = record.frame_count;
    if (record.has_block_checksums()) {
      // A table that does not partition the extent has no usable blocks:
      // the record then reads whole, under its extent CRC.
      auto bounds = plfs::block_bounds(location.frame_offsets, record.length);
      if (bounds.size() == record.block_crcs.size() + 1) {
        location.block_bounds = std::move(bounds);
        location.block_crcs = std::move(record.block_crcs);
      }
    }
    out.push_back(std::move(location));
  }
  return out;
}

Result<std::vector<Tag>> Indexer::tags(const std::string& logical_name) const {
  ADA_ASSIGN_OR_RETURN(const auto records, mount_.read_index(logical_name));
  std::vector<Tag> out;
  for (const plfs::IndexRecord& record : records) {
    if (record.label == kLabelFileTag || record.label == kOriginalTag) continue;
    if (std::find(out.begin(), out.end(), record.label) == out.end()) out.push_back(record.label);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<std::uint8_t>> IoRetriever::read(const DatasetLocation& location,
                                                    const ExtentRead& read) const {
  if (read.whole()) {
    const std::uint64_t bounds[] = {location.physical_offset,
                                    location.physical_offset + location.bytes};
    return mount_.read_extent(location.host_path, bounds,
                              location.has_crc ? std::span(&location.crc32c, 1)
                                               : std::span<const std::uint32_t>());
  }
  std::vector<std::uint64_t> bounds;
  bounds.reserve(read.end_block - read.first_block + 1);
  for (std::size_t k = read.first_block; k <= read.end_block; ++k) {
    bounds.push_back(location.physical_offset + location.block_bounds[k]);
  }
  return mount_.read_extent(
      location.host_path, bounds,
      std::span(location.block_crcs).subspan(read.first_block, read.end_block - read.first_block));
}

Result<std::vector<std::vector<std::uint8_t>>> IoRetriever::fetch(
    std::span<const DatasetLocation> locations, std::span<const ExtentRead> reads) const {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(reads.size());
  if (!options_.parallel() || reads.size() <= 1) {
    for (const ExtentRead& r : reads) {
      ADA_ASSIGN_OR_RETURN(auto extent, read(locations[r.location], r));
      out.push_back(std::move(extent));
    }
    return out;
  }

  ADA_OBS_COUNT("retrieve.sg.calls", 1);
  ADA_OBS_COUNT("retrieve.sg.extents", reads.size());

  // Group extents by owning backend (locality: within a backend, reads stay
  // in logical order -- sequential on a spinning server), then interleave
  // the groups round-robin so the pool's in-order task claim spreads across
  // backends instead of queueing behind one server's admission window.
  std::uint32_t backends = 0;
  for (const ExtentRead& r : reads) {
    backends = std::max(backends, locations[r.location].backend + 1);
  }
  std::vector<std::vector<std::size_t>> by_backend(backends);
  for (std::size_t i = 0; i < reads.size(); ++i) {
    by_backend[locations[reads[i].location].backend].push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(reads.size());
  for (std::size_t round = 0; order.size() < reads.size(); ++round) {
    for (const auto& group : by_backend) {
      if (round < group.size()) order.push_back(group[round]);
    }
  }

  // Per-backend admission window: a query may keep at most queue_depth
  // extent reads in flight against any one backend.  A task holds exactly
  // one slot while it reads, so blocked acquires always wait on running
  // tasks and the batch drains (common/admission.hpp).
  AdmissionWindow window(backends, options_.queue_depth);
  std::vector<Result<std::vector<std::uint8_t>>> results(
      reads.size(),
      Result<std::vector<std::uint8_t>>(internal_error("extent read not executed")));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(order.size());
  for (const std::size_t index : order) {
    tasks.push_back([this, &locations, &reads, &results, &window, index] {
      const DatasetLocation& location = locations[reads[index].location];
      const std::uint64_t waits = window.acquire(location.backend);
      if (waits != 0) ADA_OBS_COUNT("retrieve.sg.admission_waits", waits);
      {
        // Read + CRC verify pipelined on the worker: while this extent
        // transfers, siblings verify, so transfer overlaps decode.
        const obs::TraceSpan span("sg_extent", location.backend_name);
        results[index] = read(location, reads[index]);
      }
      window.release(location.backend);
    });
  }
  ThreadPool::shared().run_batch(std::move(tasks), options_.threads);

  // First failure in *logical* order wins -- the same error the serial loop
  // would have stopped on.
  std::uint64_t bytes = 0;
  for (auto& result : results) {
    if (!result.is_ok()) return result.error();
    bytes += result.value().size();
    out.push_back(std::move(result).value());
  }
  ADA_OBS_COUNT("retrieve.sg.bytes", bytes);
  return out;
}

}  // namespace ada::core
