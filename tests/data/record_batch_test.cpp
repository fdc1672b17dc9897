#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "data/dataset.hpp"
#include "data/record_batch.hpp"
#include "data/schema.hpp"

namespace ipa::data {
namespace {

Record make_event(std::uint64_t index) {
  Record record(index);
  record.set("n", static_cast<std::int64_t>(index * 3));
  record.set("mass", 100.0 + static_cast<double>(index));
  record.set("tag", index % 2 == 0 ? "even" : "odd");
  record.set("px", Value::RealVec{1.0 * static_cast<double>(index), -2.5, 3.25});
  return record;
}

TEST(Schema, InternAssignsStableSlots) {
  Schema schema;
  EXPECT_EQ(schema.intern("a", ColumnKind::kReal), 0);
  EXPECT_EQ(schema.intern("b", ColumnKind::kInt), 1);
  EXPECT_EQ(schema.intern("a", ColumnKind::kReal), 0);  // already interned
  EXPECT_EQ(schema.slot_of("b"), 1);
  EXPECT_EQ(schema.slot_of("missing"), Schema::kNoSlot);
  EXPECT_EQ(schema.kind(0), ColumnKind::kReal);
  EXPECT_EQ(schema.field_count(), 2u);
}

TEST(Schema, VersionBumpsOnlyOnNewFields) {
  Schema schema;
  const std::uint64_t v0 = schema.version();
  schema.intern("x", ColumnKind::kReal);
  const std::uint64_t v1 = schema.version();
  EXPECT_GT(v1, v0);
  schema.intern("x", ColumnKind::kReal);
  EXPECT_EQ(schema.version(), v1);
}

TEST(Schema, EncodeDecodeRoundTrip) {
  Schema schema;
  schema.intern("energy", ColumnKind::kReal);
  schema.intern("count", ColumnKind::kInt);
  schema.intern("label", ColumnKind::kStr);
  schema.intern("p4", ColumnKind::kVec);
  ser::Writer w;
  schema.encode(w);
  ser::Reader r(w.data());
  auto back = Schema::decode(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, schema);
  EXPECT_TRUE(r.at_end());
}

TEST(RecordBatch, RowRoundTripPreservesEverything) {
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 10; ++i) records.push_back(make_event(i));
  const RecordBatch batch = RecordBatch::from_records(records);
  EXPECT_EQ(batch.rows(), records.size());
  EXPECT_EQ(batch.to_records(), records);
}

TEST(RecordBatch, MissingFieldsBecomeNullCells) {
  Record full(0);
  full.set("a", 1.0);
  full.set("b", std::int64_t{2});
  Record partial(1);
  partial.set("a", 3.0);  // no "b"
  const RecordBatch batch = RecordBatch::from_records({full, partial});

  const int b = batch.schema().slot_of("b");
  ASSERT_NE(b, Schema::kNoSlot);
  EXPECT_EQ(batch.cell_kind(b, 0), RecordBatch::CellKind::kInt);
  EXPECT_EQ(batch.cell_kind(b, 1), RecordBatch::CellKind::kNull);

  const auto back = batch.to_records();
  EXPECT_EQ(back[0], full);
  EXPECT_EQ(back[1], partial);
}

TEST(RecordBatch, LateFieldBackfillsEarlierRows) {
  Record first(0);
  first.set("x", 1.0);
  Record second(1);
  second.set("x", 2.0);
  second.set("extra", "late");
  const RecordBatch batch = RecordBatch::from_records({first, second});
  const int extra = batch.schema().slot_of("extra");
  ASSERT_NE(extra, Schema::kNoSlot);
  EXPECT_EQ(batch.cell_kind(extra, 0), RecordBatch::CellKind::kNull);
  EXPECT_EQ(batch.cell_str(extra, 1), "late");
  EXPECT_EQ(batch.to_records(), (std::vector<Record>{first, second}));
}

TEST(RecordBatch, KindConflictsPreservedExactly) {
  // Row 0 establishes "x" as real; row 1 carries a string "x" (legal in the
  // row format) which must survive via the overflow side-table, not be
  // coerced or dropped.
  Record a(0);
  a.set("x", 1.5);
  Record b(1);
  b.set("x", "not a number");
  const RecordBatch batch = RecordBatch::from_records({a, b});
  const int x = batch.schema().slot_of("x");
  EXPECT_EQ(batch.cell_kind(x, 0), RecordBatch::CellKind::kReal);
  EXPECT_EQ(batch.cell_kind(x, 1), RecordBatch::CellKind::kStr);
  EXPECT_EQ(batch.cell_str(x, 1), "not a number");
  const auto back = batch.to_records();
  EXPECT_EQ(back[0], a);
  EXPECT_EQ(back[1], b);
}

TEST(RecordBatch, CellNumberWidensIntsOnly) {
  Record record(0);
  record.set("i", std::int64_t{7});
  record.set("r", 2.5);
  record.set("s", "nope");
  const RecordBatch batch = RecordBatch::from_records({record});
  double out = -1;
  EXPECT_TRUE(batch.cell_number(batch.schema().slot_of("i"), 0, &out));
  EXPECT_DOUBLE_EQ(out, 7.0);
  EXPECT_TRUE(batch.cell_number(batch.schema().slot_of("r"), 0, &out));
  EXPECT_DOUBLE_EQ(out, 2.5);
  EXPECT_FALSE(batch.cell_number(batch.schema().slot_of("s"), 0, &out));
  EXPECT_FALSE(batch.cell_number(Schema::kNoSlot, 0, &out));
}

TEST(RecordBatch, AppendEncodedMatchesRowAppend) {
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 8; ++i) records.push_back(make_event(i));

  RecordBatch from_rows = RecordBatch::from_records(records);
  RecordBatch from_wire;
  for (const Record& record : records) {
    ser::Writer w;
    record.encode(w);
    ser::Reader r(w.data());
    ASSERT_TRUE(from_wire.append_encoded(r).is_ok());
    EXPECT_TRUE(r.at_end());
  }
  EXPECT_EQ(from_wire.rows(), from_rows.rows());
  EXPECT_EQ(from_wire.to_records(), from_rows.to_records());
}

TEST(RecordBatch, AppendEncodedRejectsDuplicateFields) {
  ser::Writer w;
  w.varint(0);  // index
  w.varint(2);  // field count
  w.string("x");
  Value(1.0).encode(w);
  w.string("x");
  Value(2.0).encode(w);
  ser::Reader r(w.data());
  RecordBatch batch;
  const Status status = batch.append_encoded(r);
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.to_string().find("duplicate"), std::string::npos);
}

TEST(RecordBatch, EncodeDecodeRoundTrip) {
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 6; ++i) records.push_back(make_event(i));
  Record conflict(6);
  conflict.set("mass", "heavy");  // overflow cell rides along
  records.push_back(conflict);

  const RecordBatch batch = RecordBatch::from_records(records);
  ser::Writer w;
  batch.encode(w);
  EXPECT_LE(w.data().size(), batch.encoded_size_hint() * 2);

  ser::Reader r(w.data());
  auto back = RecordBatch::decode(r);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(back->rows(), batch.rows());
  EXPECT_EQ(back->to_records(), records);

  ser::Writer w2;
  back->encode(w2);
  EXPECT_EQ(w2.data(), w.data());
}

TEST(RecordBatch, DecodeRejectsTruncatedBytes) {
  const RecordBatch batch = RecordBatch::from_records({make_event(0), make_event(1)});
  ser::Writer w;
  batch.encode(w);
  for (const std::size_t cut : {w.data().size() / 4, w.data().size() / 2}) {
    ser::Reader r(w.data().data(), cut);
    EXPECT_FALSE(RecordBatch::decode(r).is_ok()) << "cut at " << cut;
  }
}

TEST(RecordBatch, ClearKeepsSchemaAndSlotIds) {
  RecordBatch batch;
  batch.append(make_event(0));
  const int mass = batch.schema().slot_of("mass");
  batch.clear();
  EXPECT_EQ(batch.rows(), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.schema().slot_of("mass"), mass);  // schema survives clear()
  batch.append(make_event(5));
  EXPECT_EQ(batch.rows(), 1u);
  EXPECT_EQ(batch.index(0), 5u);
  EXPECT_DOUBLE_EQ(batch.cell_real(mass, 0), 105.0);
}

class ReadBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the tests of a suite concurrently.
    dir_ = std::filesystem::temp_directory_path() /
           ("ipa-record-batch-" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(ReadBatchTest, ReadBatchMatchesRecordAtATimeRead) {
  const std::string path = (dir_ / "events.ipd").string();
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 100; ++i) records.push_back(make_event(i));
  ASSERT_TRUE(write_dataset(path, "batch-test", records).is_ok());

  auto reader = DatasetReader::open(path);
  ASSERT_TRUE(reader.is_ok());
  RecordBatch batch = reader->make_batch();
  std::vector<Record> streamed;
  while (true) {
    batch.clear();
    auto appended = reader->read_batch(batch, 17);  // uneven chunks on purpose
    ASSERT_TRUE(appended.is_ok()) << appended.status().to_string();
    if (*appended == 0) break;
    EXPECT_LE(*appended, 17u);
    for (const Record& record : batch.to_records()) streamed.push_back(record);
  }
  EXPECT_EQ(streamed, records);
  // Slot ids are reader-wide: the shared schema saw every field once.
  EXPECT_EQ(reader->schema()->field_count(), 4u);
}

TEST_F(ReadBatchTest, ReadBatchResumesAfterSeek) {
  const std::string path = (dir_ / "seek.ipd").string();
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 40; ++i) records.push_back(make_event(i));
  ASSERT_TRUE(write_dataset(path, "seek-test", records).is_ok());

  auto reader = DatasetReader::open(path);
  ASSERT_TRUE(reader.is_ok());
  ASSERT_TRUE(reader->seek(25).is_ok());
  RecordBatch batch = reader->make_batch();
  auto appended = reader->read_batch(batch, 1000);
  ASSERT_TRUE(appended.is_ok());
  EXPECT_EQ(*appended, 15u);
  EXPECT_EQ(batch.index(0), 25u);
  EXPECT_EQ(batch.to_records(),
            std::vector<Record>(records.begin() + 25, records.end()));
}

/// Bytes this process has read so far (`rchar` in /proc/self/io).
std::uint64_t bytes_read_by_process() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "rchar:") return value;
  }
  ADD_FAILURE() << "no rchar in /proc/self/io";
  return 0;
}

TEST_F(ReadBatchTest, SmallBatchesReadEachByteOnce) {
  const std::string path = (dir_ / "large.ipd").string();
  {
    auto writer = DatasetWriter::create(path, "large");
    ASSERT_TRUE(writer.is_ok());
    Record record = make_event(0);
    record.set("px", Value::RealVec(60, 1.5));  // ~0.5 KB per record
    for (std::uint64_t i = 0; i < 24000; ++i) {
      record.set_index(i);
      ASSERT_TRUE(writer->append(record).is_ok());
    }
    ASSERT_TRUE(writer->finish().is_ok());
  }
  const std::uint64_t file_bytes = std::filesystem::file_size(path);
  ASSERT_GT(file_bytes, 11'000'000u);

  const std::uint64_t before = bytes_read_by_process();
  auto reader = DatasetReader::open(path);
  ASSERT_TRUE(reader.is_ok());
  RecordBatch batch = reader->make_batch();
  std::uint64_t total = 0;
  while (true) {
    batch.clear();
    auto appended = reader->read_batch(batch, 16);
    ASSERT_TRUE(appended.is_ok()) << appended.status().to_string();
    if (*appended == 0) break;
    total += *appended;
  }
  const std::uint64_t read = bytes_read_by_process() - before;
  EXPECT_EQ(total, 24000u);
  EXPECT_LE(static_cast<double>(read), 1.1 * static_cast<double>(file_bytes))
      << read << " bytes read for a " << file_bytes << "-byte file";
}

TEST_F(ReadBatchTest, MixedReadsStayInStep) {
  const std::string path = (dir_ / "mixed.ipd").string();
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 1500; ++i) records.push_back(make_event(i));
  ASSERT_TRUE(write_dataset(path, "mixed", records).is_ok());
  auto all = read_all(path);
  ASSERT_TRUE(all.is_ok());
  ASSERT_EQ(*all, records);

  auto reader = DatasetReader::open(path);
  ASSERT_TRUE(reader.is_ok());
  RecordBatch batch = reader->make_batch();
  std::uint64_t at = 0;  // the record the reader should return next
  const auto batch_of = [&](std::uint64_t n) {
    batch.clear();
    auto appended = reader->read_batch(batch, n);
    ASSERT_TRUE(appended.is_ok()) << appended.status().to_string();
    const std::uint64_t want = std::min<std::uint64_t>(n, all->size() - at);
    ASSERT_EQ(*appended, want) << "batch of " << n << " at " << at;
    EXPECT_EQ(batch.to_records(),
              std::vector<Record>(all->begin() + static_cast<long>(at),
                                  all->begin() + static_cast<long>(at + want)))
        << "batch of " << n << " at " << at;
    at += want;
  };
  const auto one = [&] {
    auto record = reader->next();
    ASSERT_TRUE(record.is_ok()) << record.status().to_string();
    EXPECT_EQ(*record, (*all)[at]) << "next() at " << at;
    ++at;
  };
  const auto seek = [&](std::uint64_t i) {
    ASSERT_TRUE(reader->seek(i).is_ok());
    at = i;
  };

  batch_of(1);
  one();
  batch_of(7);
  one();
  batch_of(256);
  one();
  one();
  seek(256 + 100);  // the middle of the second index stride
  batch_of(7);
  one();
  batch_of(256);
  batch_of(1);
  one();
  seek(5);
  one();
  batch_of(256);
  seek(1024 + 255);  // the last record of a stride
  batch_of(1);
  one();
  while (at < all->size()) {
    batch_of(256);
    if (at < all->size()) one();
  }
  EXPECT_EQ(reader->position(), all->size());
  batch.clear();
  auto appended = reader->read_batch(batch, 256);
  ASSERT_TRUE(appended.is_ok());
  EXPECT_EQ(*appended, 0u);
  EXPECT_EQ(reader->next().status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace ipa::data
