#include "data/dataset.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.hpp"
#include "data/splitter.hpp"

namespace ipa::data {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ipa-ds-" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static std::vector<Record> make_records(std::size_t n, std::uint64_t seed = 42) {
    Rng rng(seed);
    std::vector<Record> records;
    records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      Record record(i);
      record.set("energy", rng.uniform(0.0, 500.0));
      record.set("ntrk", static_cast<std::int64_t>(rng.uniform_u64(0, 40)));
      if (i % 3 == 0) record.set("tag", "signal");
      // Variable-size payload exercises byte-balanced splitting.
      Value::RealVec p4(2 + rng.uniform_u64(0, 6));
      for (double& x : p4) x = rng.normal(0, 10);
      record.set("p4", std::move(p4));
      records.push_back(std::move(record));
    }
    return records;
  }

  std::filesystem::path dir_;
};

TEST_F(DatasetTest, WriteReadRoundTrip) {
  const auto records = make_records(100);
  ASSERT_TRUE(write_dataset(path("a.ipd"), "test-a", records, {{"experiment", "LC"}}).is_ok());

  auto reader = DatasetReader::open(path("a.ipd"));
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  EXPECT_EQ(reader->info().name, "test-a");
  EXPECT_EQ(reader->info().metadata.at("experiment"), "LC");
  EXPECT_EQ(reader->size(), 100u);

  auto back = read_all(path("a.ipd"));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, records);
}

TEST_F(DatasetTest, EmptyDatasetRoundTrip) {
  ASSERT_TRUE(write_dataset(path("empty.ipd"), "empty", {}).is_ok());
  auto reader = DatasetReader::open(path("empty.ipd"));
  ASSERT_TRUE(reader.is_ok());
  EXPECT_EQ(reader->size(), 0u);
  EXPECT_EQ(reader->next().status().code(), StatusCode::kOutOfRange);
}

TEST_F(DatasetTest, RandomAccessMatchesSequential) {
  const auto records = make_records(1000);
  ASSERT_TRUE(write_dataset(path("b.ipd"), "test-b", records).is_ok());
  auto reader = DatasetReader::open(path("b.ipd"));
  ASSERT_TRUE(reader.is_ok());

  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t i = rng.uniform_u64(0, 999);
    auto record = reader->read(i);
    ASSERT_TRUE(record.is_ok()) << "record " << i;
    EXPECT_EQ(*record, records[static_cast<std::size_t>(i)]);
  }
}

TEST_F(DatasetTest, SeekAndSequentialInterleave) {
  const auto records = make_records(300);
  ASSERT_TRUE(write_dataset(path("c.ipd"), "test-c", records).is_ok());
  auto reader = DatasetReader::open(path("c.ipd"));
  ASSERT_TRUE(reader.is_ok());

  ASSERT_TRUE(reader->seek(250).is_ok());
  EXPECT_EQ(reader->position(), 250u);
  EXPECT_EQ(reader->next().value(), records[250]);
  EXPECT_EQ(reader->next().value(), records[251]);
  ASSERT_TRUE(reader->seek(0).is_ok());
  EXPECT_EQ(reader->next().value(), records[0]);
}

TEST_F(DatasetTest, SeekPastEndRejected) {
  ASSERT_TRUE(write_dataset(path("d.ipd"), "d", make_records(10)).is_ok());
  auto reader = DatasetReader::open(path("d.ipd"));
  ASSERT_TRUE(reader.is_ok());
  EXPECT_TRUE(reader->seek(10).is_ok());  // at-end is legal
  EXPECT_EQ(reader->next().status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(reader->seek(11).code(), StatusCode::kOutOfRange);
}

TEST_F(DatasetTest, IntegrityCheckPassesOnCleanFile) {
  ASSERT_TRUE(write_dataset(path("e.ipd"), "e", make_records(200)).is_ok());
  auto reader = DatasetReader::open(path("e.ipd"));
  ASSERT_TRUE(reader.is_ok());
  EXPECT_TRUE(reader->verify_integrity().is_ok());
  // Position is restored after the integrity scan.
  EXPECT_EQ(reader->position(), 0u);
}

TEST_F(DatasetTest, IntegrityCheckCatchesBitFlip) {
  ASSERT_TRUE(write_dataset(path("f.ipd"), "f", make_records(200)).is_ok());
  // Flip one byte in the middle of the record section.
  {
    std::FILE* fp = std::fopen(path("f.ipd").c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, 200, SEEK_SET);
    int c = std::fgetc(fp);
    std::fseek(fp, 200, SEEK_SET);
    std::fputc(c ^ 0x01, fp);
    std::fclose(fp);
  }
  auto reader = DatasetReader::open(path("f.ipd"));
  // Open may succeed (header intact); the CRC scan must fail.
  if (reader.is_ok()) {
    EXPECT_EQ(reader->verify_integrity().code(), StatusCode::kDataLoss);
  }
}

TEST_F(DatasetTest, IntegrityCheckCatchesBitFlipInsideAWordStride) {
  // The CRC folds 8-byte words from the start of the record region: flip a
  // byte at each position inside one word, and the region's last byte.
  ASSERT_TRUE(write_dataset(path("w.ipd"), "w", make_records(200)).is_ok());
  std::uint64_t data_begin = 0;
  std::uint64_t data_end = 0;
  {
    auto reader = DatasetReader::open(path("w.ipd"));
    ASSERT_TRUE(reader.is_ok());
    data_begin = reader->frame_index().data_begin;
    data_end = reader->frame_index().data_end;
  }
  std::vector<std::uint64_t> victims;
  for (std::uint64_t lane = 0; lane < 8; ++lane) victims.push_back(data_begin + 8 * 40 + lane);
  victims.push_back(data_end - 1);
  for (const std::uint64_t at : victims) {
    std::filesystem::copy_file(path("w.ipd"), path("flip.ipd"),
                               std::filesystem::copy_options::overwrite_existing);
    std::FILE* fp = std::fopen(path("flip.ipd").c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, static_cast<long>(at), SEEK_SET);
    const int c = std::fgetc(fp);
    std::fseek(fp, static_cast<long>(at), SEEK_SET);
    std::fputc(c ^ 0x10, fp);
    std::fclose(fp);
    auto reader = DatasetReader::open(path("flip.ipd"));
    ASSERT_TRUE(reader.is_ok()) << "offset " << at;  // header, footer and index intact
    EXPECT_EQ(reader->verify_integrity().code(), StatusCode::kDataLoss) << "offset " << at;
  }
}

TEST_F(DatasetTest, CorruptFrameLengthIsDataLossWithoutAHugeAllocation) {
  ASSERT_TRUE(write_dataset(path("h.ipd"), "h", make_records(4)).is_ok());
  std::uint64_t first_frame = 0;
  {
    auto reader = DatasetReader::open(path("h.ipd"));
    ASSERT_TRUE(reader.is_ok());
    first_frame = reader->frame_index().data_begin;
  }
  // The first frame now claims a body of 2^30 - 1 bytes: under the field
  // cap, but far past the end of the record region.
  {
    std::FILE* fp = std::fopen(path("h.ipd").c_str(), "r+b");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, static_cast<long>(first_frame), SEEK_SET);
    const unsigned char huge[] = {0xFF, 0xFF, 0xFF, 0xFF, 0x03};
    std::fwrite(huge, 1, sizeof huge, fp);
    std::fclose(fp);
  }
  const auto peak_mib = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024;  // ru_maxrss is in KiB
  };
  const long before = peak_mib();
  auto reader = DatasetReader::open(path("h.ipd"));
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();  // footer and index intact
  EXPECT_EQ(reader->next().status().code(), StatusCode::kDataLoss);
  RecordBatch batch = reader->make_batch();
  EXPECT_EQ(reader->read_batch(batch, 16).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(reader->seek(1).code(), StatusCode::kDataLoss);
  EXPECT_EQ(reader->verify_integrity().code(), StatusCode::kDataLoss);
  EXPECT_LT(peak_mib() - before, 64);
}

TEST_F(DatasetTest, OpenRejectsGarbage) {
  {
    std::FILE* fp = std::fopen(path("junk.ipd").c_str(), "wb");
    std::fputs("this is not an ipd file at all, sorry", fp);
    std::fclose(fp);
  }
  EXPECT_FALSE(DatasetReader::open(path("junk.ipd")).is_ok());
  EXPECT_EQ(DatasetReader::open(path("missing.ipd")).status().code(), StatusCode::kNotFound);
}

TEST_F(DatasetTest, UnfinishedFileRejected) {
  {
    auto writer = DatasetWriter::create(path("unfinished.ipd"), "u");
    ASSERT_TRUE(writer.is_ok());
    ASSERT_TRUE(writer->append(make_records(1)[0]).is_ok());
    // No finish(): destructor warns, file lacks trailer.
  }
  EXPECT_FALSE(DatasetReader::open(path("unfinished.ipd")).is_ok());
}

TEST_F(DatasetTest, AppendAfterFinishRejected) {
  auto writer = DatasetWriter::create(path("g.ipd"), "g");
  ASSERT_TRUE(writer.is_ok());
  ASSERT_TRUE(writer->finish().is_ok());
  EXPECT_EQ(writer->append(Record(0)).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(writer->finish().is_ok());  // idempotent
}

// --- splitting -------------------------------------------------------------

class SplitTest : public DatasetTest,
                  public ::testing::WithParamInterface<std::tuple<int, int>> {};

TEST_P(SplitTest, PartsConcatenateToSource) {
  const auto [record_count, parts] = GetParam();
  ASSERT_TRUE(
      write_dataset(path("src.ipd"), "src", make_records(static_cast<std::size_t>(record_count)))
          .is_ok());
  auto split = split_dataset(path("src.ipd"), path("src"), parts);
  ASSERT_TRUE(split.is_ok()) << split.status().to_string();
  EXPECT_EQ(split->parts.size(), static_cast<std::size_t>(parts));
  EXPECT_EQ(split->total_records, static_cast<std::uint64_t>(record_count));
  EXPECT_TRUE(verify_split(path("src.ipd"), *split).is_ok());
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, SplitTest,
                         ::testing::Values(std::make_tuple(1000, 1), std::make_tuple(1000, 2),
                                           std::make_tuple(1000, 4), std::make_tuple(1000, 8),
                                           std::make_tuple(1000, 16), std::make_tuple(97, 16),
                                           std::make_tuple(5, 16), std::make_tuple(0, 4),
                                           std::make_tuple(1, 1)));

TEST_F(DatasetTest, SplitBalancesBytes) {
  ASSERT_TRUE(write_dataset(path("bal.ipd"), "bal", make_records(2000)).is_ok());
  auto split = split_dataset(path("bal.ipd"), path("bal"), 8);
  ASSERT_TRUE(split.is_ok());
  std::uint64_t min_records = ~0ULL, max_records = 0;
  for (const auto& part : split->parts) {
    min_records = std::min(min_records, part.record_count);
    max_records = std::max(max_records, part.record_count);
  }
  // Byte-balanced parts of uniform-ish records stay within a loose band.
  EXPECT_GT(min_records, 2000u / 8 / 2);
  EXPECT_LT(max_records, 2000u / 8 * 2);
}

TEST_F(DatasetTest, SplitPartMetadataDescribesRange) {
  ASSERT_TRUE(write_dataset(path("m.ipd"), "lc-run7", make_records(100)).is_ok());
  auto split = split_dataset(path("m.ipd"), path("m"), 4);
  ASSERT_TRUE(split.is_ok());
  for (int k = 0; k < 4; ++k) {
    auto reader = DatasetReader::open(split->parts[static_cast<std::size_t>(k)].path);
    ASSERT_TRUE(reader.is_ok());
    const auto& meta = reader->info().metadata;
    EXPECT_EQ(meta.at("part.index"), std::to_string(k));
    EXPECT_EQ(meta.at("part.count"), "4");
    EXPECT_EQ(meta.at("part.parent"), "lc-run7");
    EXPECT_EQ(meta.at("part.first"),
              std::to_string(split->parts[static_cast<std::size_t>(k)].first_record));
  }
}

TEST_F(DatasetTest, SplitRejectsBadArgs) {
  ASSERT_TRUE(write_dataset(path("x.ipd"), "x", make_records(5)).is_ok());
  EXPECT_FALSE(split_dataset(path("x.ipd"), path("x"), 0).is_ok());
  EXPECT_FALSE(split_dataset(path("x.ipd"), path("x"), -1).is_ok());
  EXPECT_FALSE(split_dataset(path("nope.ipd"), path("x"), 2).is_ok());
}

}  // namespace
}  // namespace ipa::data
