#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "data/crc32.hpp"
#include "data/record.hpp"
#include "data/value.hpp"

namespace ipa::data {
namespace {

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value(std::int64_t{42}).is_int());
  EXPECT_TRUE(Value(3.5).is_real());
  EXPECT_TRUE(Value("acgt").is_str());
  EXPECT_TRUE(Value(Value::RealVec{1, 2}).is_vec());
  EXPECT_EQ(Value(std::int64_t{42}).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(3.5).as_real(), 3.5);
  EXPECT_EQ(Value("acgt").as_str(), "acgt");
  EXPECT_EQ(Value(Value::RealVec{1, 2}).as_vec().size(), 2u);
}

TEST(Value, ToNumberCoercion) {
  EXPECT_DOUBLE_EQ(Value(std::int64_t{7}).to_number().value(), 7.0);
  EXPECT_DOUBLE_EQ(Value(2.5).to_number().value(), 2.5);
  EXPECT_FALSE(Value("not-a-number").to_number().is_ok());
  EXPECT_FALSE(Value(Value::RealVec{1}).to_number().is_ok());
}

TEST(Value, ToString) {
  EXPECT_EQ(Value(std::int64_t{-3}).to_string(), "-3");
  EXPECT_EQ(Value("x").to_string(), "\"x\"");
  EXPECT_EQ(Value(Value::RealVec{1, 2.5}).to_string(), "[1, 2.5]");
}

TEST(Value, EncodeDecodeRoundTrip) {
  const Value cases[] = {Value(std::int64_t{0}), Value(std::int64_t{-1234567}),
                         Value(3.14159), Value(""), Value("higgs boson"),
                         Value(Value::RealVec{}), Value(Value::RealVec{1.5, -2.5, 1e300})};
  for (const Value& v : cases) {
    ser::Writer w;
    v.encode(w);
    ser::Reader r(w.data());
    auto back = Value::decode(r);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(Value, DecodeRejectsBadTag) {
  ser::Bytes bad = {9};
  ser::Reader r(bad);
  EXPECT_FALSE(Value::decode(r).is_ok());
}

TEST(Record, SetGetOverwrite) {
  Record record(7);
  record.set("e", 91.2);
  record.set("n", std::int64_t{3});
  record.set("tag", "signal");
  record.set("px", Value::RealVec{1, 2, 3});
  EXPECT_EQ(record.index(), 7u);
  EXPECT_EQ(record.field_count(), 4u);
  EXPECT_DOUBLE_EQ(record.real_or("e"), 91.2);
  EXPECT_EQ(record.int_or("n"), 3);
  EXPECT_EQ(record.str_or("tag"), "signal");
  ASSERT_NE(record.vec_or_null("px"), nullptr);
  EXPECT_EQ(record.vec_or_null("px")->size(), 3u);

  record.set("e", 125.0);  // overwrite keeps field count
  EXPECT_EQ(record.field_count(), 4u);
  EXPECT_DOUBLE_EQ(record.real_or("e"), 125.0);
}

TEST(Record, FallbacksForMissingOrMistyped) {
  Record record;
  record.set("s", "text");
  EXPECT_DOUBLE_EQ(record.real_or("absent", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(record.real_or("s", -1.0), -1.0);
  EXPECT_EQ(record.int_or("s", 9), 9);
  EXPECT_EQ(record.str_or("absent", "d"), "d");
  EXPECT_EQ(record.vec_or_null("s"), nullptr);
  EXPECT_FALSE(record.has("absent"));
  EXPECT_TRUE(record.has("s"));
}

TEST(Record, IntCoercesToRealGetter) {
  Record record;
  record.set("n", std::int64_t{5});
  EXPECT_DOUBLE_EQ(record.real_or("n"), 5.0);
}

TEST(Record, EncodeDecodeRoundTrip) {
  Record record(123456);
  record.set("mass", 125.3);
  record.set("count", std::int64_t{-9});
  record.set("seq", "acgtacgt");
  record.set("p4", Value::RealVec{1.1, 2.2, 3.3, 4.4});

  ser::Writer w;
  record.encode(w);
  ser::Reader r(w.data());
  auto back = Record::decode(r);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(*back, record);
}

TEST(Record, DecodeRejectsImplausibleFieldCount) {
  ser::Writer w;
  w.varint(1);     // index
  w.varint(99999); // field count
  ser::Reader r(w.data());
  EXPECT_FALSE(Record::decode(r).is_ok());
}

TEST(Record, SizeHintTracksContent) {
  Record small(1);
  small.set("x", 1.0);
  Record large(1);
  large.set("seq", std::string(1000, 'a'));
  EXPECT_GT(large.encoded_size_hint(), small.encoded_size_hint() + 900);
}

TEST(Record, SizeHintCoversActualEncodingForVecAndString) {
  Record record(99);
  record.set("mass", 125.3);
  record.set("n", std::int64_t{-40});
  record.set("seq", std::string(300, 'g'));
  record.set("p4", Value::RealVec(50, 1.25));
  ser::Writer w;
  record.encode(w);
  // The hint feeds buffer reservations, so it must not undershoot for
  // string- and vector-heavy records.
  EXPECT_GE(record.encoded_size_hint(), w.data().size());
  EXPECT_LE(record.encoded_size_hint(), w.data().size() * 2 + 64);
}

TEST(Record, WideRecordLookupUsesSortedPath) {
  // Past kLinearLookupMax fields, find() switches to the sorted index; the
  // answers must not change.
  Record record;
  for (int i = 0; i < 3 * static_cast<int>(Record::kLinearLookupMax); ++i) {
    record.set("field" + std::to_string(i), static_cast<double>(i));
  }
  for (int i = 0; i < 3 * static_cast<int>(Record::kLinearLookupMax); ++i) {
    EXPECT_DOUBLE_EQ(record.real_or("field" + std::to_string(i), -1), i);
  }
  EXPECT_EQ(record.find("absent"), nullptr);
  // Overwrites and appends after lookups keep the index coherent.
  record.set("field5", 500.0);
  record.set("brand-new", 7.0);
  EXPECT_DOUBLE_EQ(record.real_or("field5"), 500.0);
  EXPECT_DOUBLE_EQ(record.real_or("brand-new"), 7.0);
}

TEST(Record, DuplicateNamesFromDecodeResolveToFirst) {
  // decode() does not dedupe, so duplicate names can exist; both the linear
  // and the sorted lookup must resolve to the first occurrence.
  for (const int filler : {0, 20}) {  // 0 → linear scan; 20 → sorted path
    ser::Writer w;
    w.varint(1);  // index
    w.varint(static_cast<std::uint64_t>(filler) + 2);
    w.string("dup");
    Value(1.0).encode(w);
    for (int i = 0; i < filler; ++i) {
      w.string(strings::format("f%d", i));
      Value(static_cast<double>(i)).encode(w);
    }
    w.string("dup");
    Value(2.0).encode(w);
    ser::Reader r(w.data());
    auto record = Record::decode(r);
    ASSERT_TRUE(record.is_ok());
    EXPECT_DOUBLE_EQ(record->real_or("dup", -1), 1.0) << "filler " << filler;
  }
}

TEST(Crc32, KnownVectors) {
  // "123456789" -> 0xCBF43926 (standard check value).
  EXPECT_EQ(Crc32::of("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32::of("", 0), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "interactive parallel analysis";
  Crc32 crc;
  crc.update(data.data(), 10);
  crc.update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc.value(), Crc32::of(data.data(), data.size()));
}

/// Bytewise reference CRC-32 (reflected 0xedb88320), independent of the
/// library's table construction.
std::uint32_t reference_crc(const std::uint8_t* p, std::size_t len) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
  }
  return ~c;
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
  return out;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(8);
  const std::vector<std::uint8_t> data = random_bytes(rng, 64 + 8);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32::of(data.data() + start, len), reference_crc(data.data() + start, len))
          << "start " << start << ", length " << len;
    }
  }
}

TEST(Crc32, RandomChunkedUpdatesMatchReference) {
  Rng rng(88);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<std::uint8_t> data =
        random_bytes(rng, static_cast<std::size_t>(rng.uniform_u64(0, 1000)));
    Crc32 crc;
    std::size_t at = 0;
    while (at < data.size()) {
      const auto chunk = static_cast<std::size_t>(rng.uniform_u64(0, data.size() - at));
      crc.update(data.data() + at, chunk);
      at += chunk;
    }
    EXPECT_EQ(crc.value(), reference_crc(data.data(), data.size())) << "trial " << trial;
  }
}

TEST(Crc32, DetectsCorruption) {
  std::string data = "payload";
  const std::uint32_t clean = Crc32::of(data.data(), data.size());
  data[3] ^= 1;
  EXPECT_NE(clean, Crc32::of(data.data(), data.size()));
}

}  // namespace
}  // namespace ipa::data
