// Tests for the PLFS container layer: index codec (v1/v2/v3), container
// lifecycle, multi-backend droppings, label reads, extent checksums, and the
// fault-injected retry paths.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/binary_io.hpp"
#include "common/crc32c.hpp"
#include "common/faults.hpp"
#include "plfs/container.hpp"
#include "plfs/plfs.hpp"
#include "test_util.hpp"

namespace ada::plfs {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// --- index codec -----------------------------------------------------------------

TEST(IndexCodecTest, RoundTrip) {
  std::vector<IndexRecord> records = {
      {0, 100, 0, "p", "dropping.p.0", 0},
      {100, 50, 1, "m", "dropping.m.1", 0},
      {150, 7, 0, "", "dropping.data.2", 32},
  };
  const auto image = encode_index(records);
  const auto decoded = decode_index(image).value();
  EXPECT_EQ(decoded, records);
}

TEST(IndexCodecTest, EmptyIndex) {
  const auto image = encode_index({});
  EXPECT_TRUE(decode_index(image).value().empty());
}

TEST(IndexCodecTest, BadMagicRejected) {
  auto image = encode_index({});
  image[0] = 'X';
  EXPECT_FALSE(decode_index(image).is_ok());
}

TEST(IndexCodecTest, TrailingGarbageRejected) {
  auto image = encode_index({{0, 1, 0, "p", "d", 0}});
  image.push_back(0xff);
  EXPECT_FALSE(decode_index(image).is_ok());
}

TEST(IndexCodecTest, TruncationRejected) {
  const auto image = encode_index({{0, 1, 0, "p", "d", 0}});
  EXPECT_FALSE(decode_index(std::span(image).subspan(0, image.size() - 3)).is_ok());
}

TEST(IndexCodecTest, LogicalSizeAndCompleteness) {
  std::vector<IndexRecord> records = {{0, 100, 0, "p", "a", 0}, {100, 50, 1, "m", "b", 0}};
  EXPECT_EQ(logical_size(records), 150u);
  EXPECT_TRUE(is_complete(records));
  records.push_back({200, 10, 0, "p", "c", 0});  // hole at [150,200)
  EXPECT_FALSE(is_complete(records));
  std::vector<IndexRecord> overlapping = {{0, 100, 0, "p", "a", 0}, {50, 100, 1, "m", "b", 0}};
  EXPECT_FALSE(is_complete(overlapping));
}

TEST(IndexCodecTest, V2RoundTripsChecksums) {
  IndexRecord checked = {0, 5, 0, "p", "d0", 0};
  checked.set_checksum(0xDEADBEEF);
  const IndexRecord unchecked = {5, 3, 1, "m", "d1", 0};  // no checksum flag
  const auto decoded = decode_index(encode_index({checked, unchecked})).value();
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_TRUE(decoded[0].has_checksum());
  EXPECT_EQ(decoded[0].crc32c, 0xDEADBEEFu);
  EXPECT_FALSE(decoded[1].has_checksum());
}

TEST(IndexCodecTest, LegacyV1ImageDecodesWithoutChecksums) {
  // Hand-build a "PLFSIDX1" image: the pre-checksum record layout.
  ByteWriter w;
  const std::uint8_t magic[8] = {'P', 'L', 'F', 'S', 'I', 'D', 'X', '1'};
  w.put_bytes(magic);
  w.put_u32_le(1);
  w.put_u64_le(0);          // logical_offset
  w.put_u64_le(11);         // length
  w.put_u32_le(1);          // backend
  w.put_string_le("p");     // label
  w.put_string_le("d.p.0"); // dropping
  w.put_u64_le(0);          // physical_offset
  const auto decoded = decode_index(w.take()).value();
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].length, 11u);
  EXPECT_EQ(decoded[0].dropping, "d.p.0");
  EXPECT_FALSE(decoded[0].has_checksum()) << "v1 records carry no checksum";
}

// Frame table of an extent of `frames` equal frames after a 16-byte header.
std::vector<std::uint64_t> uniform_table(std::size_t frames, std::uint64_t frame_bytes) {
  std::vector<std::uint64_t> table(frames);
  for (std::size_t f = 0; f < frames; ++f) table[f] = 16 + f * frame_bytes;
  return table;
}

TEST(IndexCodecTest, BlockBoundsFollowTheFrameTable) {
  // 70 frames of 10 bytes: blocks [0, 336), [336, 656), [656, 716).
  const auto table = uniform_table(70, 10);
  EXPECT_EQ(block_bounds(table, 716), (std::vector<std::uint64_t>{0, 336, 656, 716}));
  // 32 frames or fewer: the extent CRC covers it, no block list.
  EXPECT_TRUE(block_bounds(uniform_table(32, 10), 336).empty());
  // 33 frames: the 33rd frame is a block of its own.
  EXPECT_EQ(block_bounds(uniform_table(33, 10), 346), (std::vector<std::uint64_t>{0, 336, 346}));
  // A table that is not strictly increasing inside the extent gets none.
  auto lying = table;
  lying[40] = lying[39];
  EXPECT_TRUE(block_bounds(lying, 716).empty());
  EXPECT_TRUE(block_bounds(table, 700).empty());  // last frame offset past the end
}

TEST(IndexCodecTest, V3RoundTripsBlockChecksums) {
  std::vector<std::uint8_t> extent(716);
  for (std::size_t i = 0; i < extent.size(); ++i) extent[i] = static_cast<std::uint8_t>(i * 7);
  const auto table = uniform_table(70, 10);
  IndexRecord record = {0, extent.size(), 0, "p", "d0", 0};
  record.set_checksum(crc32c(extent));
  record.set_frame_table(table);
  record.set_block_checksums(block_checksums(extent, table));
  ASSERT_EQ(record.block_crcs.size(), 3u);
  EXPECT_EQ(record.block_crcs[1], crc32c(extent.data() + 336, 320));
  const auto image = encode_index({record});
  EXPECT_EQ(std::string(image.begin(), image.begin() + 8), "PLFSIDX3");
  const auto decoded = decode_index(image).value();
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], record);
}

TEST(IndexCodecTest, BlockListDisagreeingWithFrameTableRejected) {
  IndexRecord record = {0, 716, 0, "p", "d0", 0};
  record.set_frame_table(uniform_table(70, 10));
  record.set_block_checksums({1, 2});  // three blocks expected
  const auto decoded = decode_index(encode_index({record}));
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.error().code(), ErrorCode::kCorruptData);
}

TEST(IndexCodecTest, LyingFrameTableWithBlockListStillDecodes) {
  // The table no longer partitions the extent, but the block count matches
  // its frame count: the index decodes (fsck flags the record, readers fall
  // back to the whole extent) instead of failing every record with it.
  IndexRecord record = {0, 716, 0, "p", "d0", 0};
  auto table = uniform_table(70, 10);
  table[40] = table[39];
  record.set_frame_table(table);
  record.set_block_checksums({1, 2, 3});
  EXPECT_TRUE(block_bounds(table, 716).empty());
  const auto decoded = decode_index(encode_index({record}));
  ASSERT_TRUE(decoded.is_ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value()[0], record);
}

// --- mount ------------------------------------------------------------------------

class PlfsMountTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = ada::test::unique_temp_dir("plfs_test_");
    fs::remove_all(root_);
    mount_ = std::make_unique<PlfsMount>(
        PlfsMount::open({{"ssd-fs", root_ + "/mnt1"}, {"hdd-fs", root_ + "/mnt2"}}).value());
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string root_;
  std::unique_ptr<PlfsMount> mount_;
};

TEST_F(PlfsMountTest, OpenCreatesBackendRoots) {
  EXPECT_TRUE(fs::is_directory(root_ + "/mnt1"));
  EXPECT_TRUE(fs::is_directory(root_ + "/mnt2"));
  EXPECT_EQ(mount_->backend_count(), 2u);
}

TEST_F(PlfsMountTest, OpenRejectsEmptyBackendList) {
  EXPECT_FALSE(PlfsMount::open({}).is_ok());
}

TEST_F(PlfsMountTest, ContainerLifecycle) {
  EXPECT_FALSE(mount_->container_exists("bar"));
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  EXPECT_TRUE(mount_->container_exists("bar"));
  // Container directories exist on both backends (paper Fig. 6 layout).
  EXPECT_TRUE(fs::is_directory(root_ + "/mnt1/bar"));
  EXPECT_TRUE(fs::is_directory(root_ + "/mnt2/bar"));
  // Double create is AlreadyExists.
  const Status again = mount_->create_container("bar");
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kAlreadyExists);
  ASSERT_TRUE(mount_->remove_container("bar").is_ok());
  EXPECT_FALSE(mount_->container_exists("bar"));
}

TEST_F(PlfsMountTest, BadLogicalNamesRejected) {
  EXPECT_FALSE(mount_->create_container("").is_ok());
  EXPECT_FALSE(mount_->create_container("a/b").is_ok());
  EXPECT_FALSE(mount_->create_container("..").is_ok());
}

TEST_F(PlfsMountTest, AppendPlacesDroppingOnChosenBackend) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const auto r1 = mount_->append("bar", "p", 0, bytes_of("protein-data")).value();
  const auto r2 = mount_->append("bar", "m", 1, bytes_of("misc")).value();
  EXPECT_EQ(r1.logical_offset, 0u);
  EXPECT_EQ(r2.logical_offset, 12u);
  EXPECT_TRUE(fs::exists(root_ + "/mnt1/bar/" + r1.dropping));
  EXPECT_TRUE(fs::exists(root_ + "/mnt2/bar/" + r2.dropping));
  EXPECT_FALSE(fs::exists(root_ + "/mnt2/bar/" + r1.dropping));
}

TEST_F(PlfsMountTest, ReadLogicalReassemblesAcrossBackends) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  ASSERT_TRUE(mount_->append("bar", "p", 0, bytes_of("hello ")).is_ok());
  ASSERT_TRUE(mount_->append("bar", "m", 1, bytes_of("plfs ")).is_ok());
  ASSERT_TRUE(mount_->append("bar", "p", 0, bytes_of("world")).is_ok());
  const auto logical = mount_->read_logical("bar").value();
  EXPECT_EQ(std::string(logical.begin(), logical.end()), "hello plfs world");
}

TEST_F(PlfsMountTest, ReadLabelFiltersSubsets) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  ASSERT_TRUE(mount_->append("bar", "p", 0, bytes_of("AAA")).is_ok());
  ASSERT_TRUE(mount_->append("bar", "m", 1, bytes_of("BBB")).is_ok());
  ASSERT_TRUE(mount_->append("bar", "p", 0, bytes_of("CCC")).is_ok());
  const auto p = mount_->read_label("bar", "p").value();
  EXPECT_EQ(std::string(p.begin(), p.end()), "AAACCC");
  const auto m = mount_->read_label("bar", "m").value();
  EXPECT_EQ(std::string(m.begin(), m.end()), "BBB");
  EXPECT_TRUE(mount_->read_label("bar", "zzz").value().empty());
}

TEST_F(PlfsMountTest, LabelSize) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  ASSERT_TRUE(mount_->append("bar", "p", 0, bytes_of("12345")).is_ok());
  ASSERT_TRUE(mount_->append("bar", "p", 1, bytes_of("678")).is_ok());
  EXPECT_EQ(mount_->label_size("bar", "p").value(), 8u);
  EXPECT_EQ(mount_->label_size("bar", "m").value(), 0u);
}

TEST_F(PlfsMountTest, AppendToMissingContainerFails) {
  EXPECT_FALSE(mount_->append("nope", "p", 0, bytes_of("x")).is_ok());
}

TEST_F(PlfsMountTest, AppendToBadBackendFails) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  EXPECT_FALSE(mount_->append("bar", "p", 7, bytes_of("x")).is_ok());
}

TEST_F(PlfsMountTest, ListContainers) {
  ASSERT_TRUE(mount_->create_container("zeta").is_ok());
  ASSERT_TRUE(mount_->create_container("alpha").is_ok());
  const auto names = mount_->list_containers().value();
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "zeta"}));
}

TEST_F(PlfsMountTest, MissingDroppingDetectedOnRead) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const auto record = mount_->append("bar", "p", 0, bytes_of("payload")).value();
  fs::remove(root_ + "/mnt1/bar/" + record.dropping);
  EXPECT_FALSE(mount_->read_logical("bar").is_ok());
}

TEST_F(PlfsMountTest, EmptyContainerReadsEmpty) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  EXPECT_TRUE(mount_->read_logical("bar").value().empty());
  EXPECT_TRUE(mount_->read_index("bar").value().empty());
}

// --- extent checksums --------------------------------------------------------------

TEST_F(PlfsMountTest, AppendStoresExtentChecksum) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const auto payload = bytes_of("checksummed payload");
  ASSERT_TRUE(mount_->append("bar", "p", 0, payload).is_ok());
  const auto records = mount_->read_index("bar").value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].has_checksum());
  EXPECT_EQ(records[0].crc32c, crc32c(payload.data(), payload.size()));
}

TEST_F(PlfsMountTest, BitFlipOnDiskCaughtByRead) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const auto record = mount_->append("bar", "p", 0, bytes_of("precious bytes")).value();
  const std::string path = root_ + "/mnt1/bar/" + record.dropping;
  auto bytes = read_file(path).value();
  bytes[3] ^= 0x08;  // length unchanged: only the checksum can see this
  ASSERT_TRUE(write_file(path, bytes).is_ok());

  const auto read = mount_->read_label("bar", "p");
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.error().code(), ErrorCode::kCorruptData);
  EXPECT_FALSE(mount_->read_logical("bar").is_ok());
}

// A 70-frame synthetic extent (16-byte header, 10-byte frames) appended with
// its frame table: three checksum blocks.
struct BlockedExtent {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint64_t> table;
  IndexRecord record;
};

BlockedExtent append_blocked(PlfsMount& mount) {
  BlockedExtent out;
  out.table = uniform_table(70, 10);
  out.bytes.resize(716);
  for (std::size_t i = 0; i < out.bytes.size(); ++i) {
    out.bytes[i] = static_cast<std::uint8_t>(i * 31 + 5);
  }
  EXPECT_TRUE(mount.create_container("bar").is_ok());
  out.record = mount.append("bar", "p", 0, out.bytes, &out.table).value();
  return out;
}

TEST_F(PlfsMountTest, AppendWithFrameTableStoresBlockChecksums) {
  const auto extent = append_blocked(*mount_);
  const auto records = mount_->read_index("bar").value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].has_block_checksums());
  EXPECT_EQ(records[0].block_crcs, block_checksums(extent.bytes, extent.table));
  EXPECT_EQ(records[0].crc32c, crc32c(extent.bytes));

  // An extent of one block needs no list: its extent CRC covers it.
  const auto small = uniform_table(32, 10);
  const std::vector<std::uint8_t> bytes(336, 0x5A);
  EXPECT_FALSE(mount_->append("bar", "p", 0, bytes, &small).value().has_block_checksums());
}

TEST_F(PlfsMountTest, BlockReadVerifiesOnlyTheBlocksItReads) {
  const auto extent = append_blocked(*mount_);
  const std::string path = root_ + "/mnt1/bar/" + extent.record.dropping;
  auto on_disk = read_file(path).value();
  on_disk[700] ^= 0x10;  // inside block 2, [656, 716)
  ASSERT_TRUE(write_file(path, on_disk).is_ok());

  const std::uint64_t first_two[] = {0, 336, 656};
  const auto good = mount_->read_extent(path, first_two,
                                        std::span(extent.record.block_crcs).subspan(0, 2));
  ASSERT_TRUE(good.is_ok()) << good.error().to_string();
  EXPECT_EQ(good.value(),
            std::vector<std::uint8_t>(extent.bytes.begin(), extent.bytes.begin() + 656));

  const std::uint64_t last[] = {656, 716};
  const auto bad = mount_->read_extent(path, last,
                                       std::span(extent.record.block_crcs).subspan(2, 1));
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.error().code(), ErrorCode::kCorruptData);
  // The whole extent fails its extent CRC too.
  EXPECT_FALSE(mount_->read_label("bar", "p").is_ok());
}

TEST_F(PlfsMountTest, ReadExtentReadsExactlyTheSpan) {
  const auto extent = append_blocked(*mount_);
  const std::string path = root_ + "/mnt1/bar/" + extent.record.dropping;
  const std::uint64_t middle[] = {336, 656};
  const auto read = mount_->read_extent(path, middle, {});
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value(),
            std::vector<std::uint8_t>(extent.bytes.begin() + 336, extent.bytes.begin() + 656));
  // A span past the end of the dropping is corruption, not a short read.
  const std::uint64_t beyond[] = {656, 717};
  const auto short_read = mount_->read_extent(path, beyond, {});
  ASSERT_FALSE(short_read.is_ok());
  EXPECT_EQ(short_read.error().code(), ErrorCode::kCorruptData);
  // So is a descending (wrapped) span.
  const std::uint64_t wrapped[] = {656, 336};
  EXPECT_EQ(mount_->read_extent(path, wrapped, {}).error().code(), ErrorCode::kCorruptData);
}

// --- fault injection + retries -----------------------------------------------------

TEST_F(PlfsMountTest, TornWriteReportsSuccessButReadCatchesIt) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  // The torn write itself MUST report success -- that is the failure mode
  // being modeled (silent short write).  The read side is the detector.
  const fault::ScopedFault torn("plfs.write_dropping", fault::Schedule::torn_write(0.5, 1));
  ASSERT_TRUE(mount_->append("bar", "p", 0, bytes_of("0123456789abcdef")).is_ok());
  const auto read = mount_->read_label("bar", "p");
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.error().code(), ErrorCode::kCorruptData);
}

TEST_F(PlfsMountTest, CorruptReadNeverServesBadBytes) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const auto payload = bytes_of("the one true payload");
  ASSERT_TRUE(mount_->append("bar", "p", 0, payload).is_ok());
  // An in-flight corruption on every read attempt: the checksum must turn
  // it into a typed error, not silently different bytes.
  const fault::ScopedFault corrupt("plfs.read_dropping",
                                   []() {
                                     fault::Schedule s = fault::Schedule::corrupt_read(1);
                                     s.trigger = fault::Schedule::Trigger::kAlways;
                                     return s;
                                   }());
  const auto read = mount_->read_label("bar", "p");
  ASSERT_FALSE(read.is_ok());
  EXPECT_EQ(read.error().code(), ErrorCode::kCorruptData);
}

TEST_F(PlfsMountTest, WriteRetriesThroughTransientFault) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  const fault::ScopedFault flaky("plfs.write_dropping", fault::Schedule::fail_nth(1));
  ASSERT_TRUE(mount_->append("bar", "p", 0, bytes_of("survives a retry")).is_ok());
  EXPECT_EQ(fault::Injector::global().hits("plfs.write_dropping"), 2u);
  const auto p = mount_->read_label("bar", "p").value();
  EXPECT_EQ(std::string(p.begin(), p.end()), "survives a retry");
}

TEST_F(PlfsMountTest, ReadRetriesThroughTransientFault) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  ASSERT_TRUE(mount_->append("bar", "p", 0, bytes_of("flaky read")).is_ok());
  const fault::ScopedFault flaky("plfs.read_dropping", fault::Schedule::fail_nth(1));
  const auto p = mount_->read_label("bar", "p").value();
  EXPECT_EQ(std::string(p.begin(), p.end()), "flaky read");
  EXPECT_EQ(fault::Injector::global().fired("plfs.read_dropping"), 1u);
}

TEST_F(PlfsMountTest, RetryExhaustionSurfacesTypedError) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  RetryPolicy fast;
  fast.max_attempts = 2;
  fast.initial_backoff_s = 1e-4;
  mount_->set_retry_policy(fast);
  const fault::ScopedFault down("plfs.write_dropping", fault::Schedule::down_window(1, 100));
  const auto result = mount_->append("bar", "p", 0, bytes_of("never lands"));
  ASSERT_FALSE(result.is_ok());
  // down: windows inject kUnavailable (a down server) -- transient, so the
  // retry loop runs to exhaustion and surfaces the last injected error.
  EXPECT_EQ(result.error().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(fault::Injector::global().hits("plfs.write_dropping"), 2u);
}

TEST_F(PlfsMountTest, FailedIndexWriteLeavesOldIndexIntact) {
  ASSERT_TRUE(mount_->create_container("bar").is_ok());
  ASSERT_TRUE(mount_->append("bar", "p", 0, bytes_of("first")).is_ok());
  {
    // Crash-before-rename on the next index update: the append fails, the
    // previous index generation stays readable (atomic tmp+rename).
    const fault::ScopedFault crash("plfs.write_index", fault::Schedule::fail_nth(1));
    EXPECT_FALSE(mount_->append("bar", "m", 1, bytes_of("second")).is_ok());
  }
  const auto records = mount_->read_index("bar").value();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].label, "p");
  const auto p = mount_->read_label("bar", "p").value();
  EXPECT_EQ(std::string(p.begin(), p.end()), "first");
}

}  // namespace
}  // namespace ada::plfs
