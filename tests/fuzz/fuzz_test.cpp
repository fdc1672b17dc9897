// Robustness sweeps: every parser and decoder that consumes bytes or text
// from a peer must reject arbitrary corruption with a Status — never crash,
// hang or over-allocate. These are deterministic random sweeps (seeded
// xoshiro), i.e. poor man's fuzzing wired into the normal test run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "aida/tree.hpp"
#include "catalog/query.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/uri.hpp"
#include "data/dataset.hpp"
#include "data/record.hpp"
#include "data/splitter.hpp"
#include "engine/code_bundle.hpp"
#include "http/http.hpp"
#include "script/interp.hpp"
#include "script/parser.hpp"
#include "serialize/serialize.hpp"
#include "services/protocol.hpp"
#include "xml/xml.hpp"

namespace ipa {
namespace {

ser::Bytes random_bytes(Rng& rng, std::size_t max_len) {
  ser::Bytes out(static_cast<std::size_t>(rng.uniform_u64(0, max_len)));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
  return out;
}

std::string random_text(Rng& rng, std::size_t max_len, std::string_view alphabet) {
  std::string out;
  const std::size_t len = static_cast<std::size_t>(rng.uniform_u64(0, max_len));
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(alphabet[static_cast<std::size_t>(rng.uniform_u64(0, alphabet.size() - 1))]);
  }
  return out;
}

/// Flip/insert/delete a few bytes.
ser::Bytes mutate(Rng& rng, ser::Bytes bytes) {
  const int edits = 1 + static_cast<int>(rng.uniform_u64(0, 4));
  for (int e = 0; e < edits && !bytes.empty(); ++e) {
    const auto pos = static_cast<std::size_t>(rng.uniform_u64(0, bytes.size() - 1));
    switch (rng.uniform_u64(0, 2)) {
      case 0: bytes[pos] = static_cast<std::uint8_t>(rng.uniform_u64(0, 255)); break;
      case 1: bytes.erase(bytes.begin() + static_cast<long>(pos)); break;
      default:
        bytes.insert(bytes.begin() + static_cast<long>(pos),
                     static_cast<std::uint8_t>(rng.uniform_u64(0, 255)));
    }
  }
  return bytes;
}

TEST(Fuzz, TreeDeserializeSurvivesGarbage) {
  Rng rng(101);
  for (int trial = 0; trial < 2000; ++trial) {
    const ser::Bytes junk = random_bytes(rng, 256);
    auto tree = aida::Tree::deserialize(junk);  // must not crash
    if (tree.is_ok()) {
      // Extremely unlikely but legal (e.g. empty tree); must be usable.
      EXPECT_LE(tree->size(), 1000u);
    }
  }
}

TEST(Fuzz, TreeDeserializeSurvivesMutatedValidSnapshots) {
  Rng rng(103);
  aida::Tree tree;
  auto hist = aida::Histogram1D::create("h", 50, 0, 100);
  for (int i = 0; i < 100; ++i) hist->fill(rng.uniform(0, 100));
  tree.put("/a/b", std::move(*hist));
  tree.put("/t", aida::Tuple("t", {"x", "y"}));
  const ser::Bytes valid = tree.serialize();
  for (int trial = 0; trial < 2000; ++trial) {
    auto result = aida::Tree::deserialize(mutate(rng, valid));
    (void)result;  // any Status is fine; crashing is not
  }
}

TEST(Fuzz, RecordDecodeSurvivesMutations) {
  Rng rng(107);
  data::Record record(7);
  record.set("a", 1.5);
  record.set("b", "text");
  record.set("c", data::Value::RealVec{1, 2, 3});
  ser::Writer w;
  record.encode(w);
  for (int trial = 0; trial < 2000; ++trial) {
    const ser::Bytes bad = mutate(rng, w.data());
    ser::Reader r(bad);
    auto result = data::Record::decode(r);
    (void)result;
  }
}

TEST(Fuzz, DatasetReadersSurviveMutatedFiles) {
  // Byte flips and truncations of a small .ipd file (stride 4, so the sparse
  // index has several entries): every reader entry point and the splitter
  // must answer with a Status.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("ipa-fuzz-dataset-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string clean = (dir / "clean.ipd").string();
  const std::string file = (dir / "mutated.ipd").string();
  {
    auto writer = data::DatasetWriter::create(clean, "fuzz", {{"k", "v"}}, 4);
    ASSERT_TRUE(writer.is_ok());
    for (std::uint64_t i = 0; i < 20; ++i) {
      data::Record record(i);
      record.set("x", 0.5 * static_cast<double>(i));
      record.set("n", static_cast<std::int64_t>(i));
      record.set("v", data::Value::RealVec(i % 5, 1.0));
      ASSERT_TRUE(writer->append(record).is_ok());
    }
    ASSERT_TRUE(writer->finish().is_ok());
  }
  ser::Bytes valid(std::filesystem::file_size(clean));
  std::ifstream(clean, std::ios::binary)
      .read(reinterpret_cast<char*>(valid.data()), static_cast<std::streamsize>(valid.size()));

  Rng rng(163);
  for (int trial = 0; trial < 400; ++trial) {
    ser::Bytes bytes = valid;
    const int flips = 1 + static_cast<int>(rng.uniform_u64(0, 3));
    for (int f = 0; f < flips; ++f) {
      bytes[static_cast<std::size_t>(rng.uniform_u64(0, bytes.size() - 1))] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_u64(0, 254));
    }
    if (rng.uniform_u64(0, 3) == 0) {
      bytes.resize(static_cast<std::size_t>(rng.uniform_u64(0, bytes.size())));
    }
    std::ofstream(file, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));

    auto reader = data::DatasetReader::open(file);
    if (reader.is_ok()) {
      data::RecordBatch batch = reader->make_batch();
      for (int step = 0; step < 64; ++step) {
        batch.clear();
        auto appended = reader->read_batch(batch, 1 + rng.uniform_u64(0, 6));
        if (!appended.is_ok() || *appended == 0) break;
      }
      for (int step = 0; step < 8; ++step) {
        (void)reader->seek(rng.uniform_u64(0, reader->size()));
        (void)reader->next();
      }
      (void)reader->verify_integrity();
      (void)reader->next();
    }
    auto split = data::split_dataset(file, (dir / "part").string(), 3);
    (void)split;
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Fuzz, ProtocolDecodersSurviveGarbage) {
  Rng rng(109);
  for (int trial = 0; trial < 2000; ++trial) {
    const ser::Bytes junk = random_bytes(rng, 128);
    (void)services::decode_push(junk);
    (void)services::decode_poll_response(junk);
    (void)services::decode_poll_request(junk);
    (void)services::decode_ready(junk);
    ser::Reader r(junk);
    (void)engine::CodeBundle::decode(r);
  }
}

TEST(Fuzz, PollResponseWithHugeVectorCountIsRejected) {
  // Seed 109, trial 1475 of the sweep above: the engine-report vector
  // claims ~176M entries in a 127-byte payload. Decoding must fail with a
  // Status instead of reserving gigabytes.
  const ser::Bytes junk = {
      0x7b, 0x00, 0xa2, 0xd7, 0xa4, 0x54, 0x90, 0x7f, 0x80, 0xfd, 0xcb, 0x97, 0xf9, 0x5b, 0x32,
      0xb5, 0x45, 0xbc, 0x15, 0xcf, 0xcc, 0xd5, 0x38, 0x7f, 0x7d, 0x3a, 0x64, 0x12, 0xe7, 0x90,
      0x9d, 0xbd, 0x7a, 0xc2, 0xb5, 0x97, 0xd4, 0xfc, 0xef, 0x2a, 0x6f, 0xb7, 0xcf, 0xa9, 0xab,
      0xd0, 0x9f, 0x99, 0xd0, 0x23, 0xf0, 0xa0, 0x6d, 0x13, 0x9b, 0x76, 0x5a, 0xba, 0x0b, 0xa2,
      0xf2, 0xb1, 0x22, 0x25, 0xd9, 0x1f, 0xe6, 0xd0, 0x03, 0x54, 0xaa, 0x61, 0x59, 0xd8, 0x32,
      0xa1, 0x14, 0xd8, 0xb5, 0xac, 0xc7, 0xb5, 0xd3, 0x8b, 0xd9, 0x41, 0x68, 0x8b, 0x27, 0xda,
      0x3e, 0xe1, 0xd6, 0x88, 0x48, 0xfa, 0x57, 0x91, 0x0f, 0x0f, 0x49, 0x57, 0x28, 0x58, 0x75,
      0x0e, 0xe7, 0xbc, 0xfd, 0xd6, 0x26, 0x33, 0x94, 0x17, 0xf6, 0x18, 0x17, 0x6d, 0x13, 0xc0,
      0x51, 0x53, 0x75, 0x30, 0x7b, 0xba, 0x94};
  ASSERT_EQ(junk.size(), 127u);
  auto response = services::decode_poll_response(junk);
  EXPECT_EQ(response.status().code(), StatusCode::kDataLoss);
}

TEST(Fuzz, ZeroColumnTupleWithHugeRowCountIsRejected) {
  // Empty title, no columns, no annotations, then 2^30 rows: each empty row
  // costs no input byte but a vector, so 8 bytes once asked for ~24 GB.
  const ser::Bytes junk = {0x00, 0x00, 0x00, 0x80, 0x80, 0x80, 0x80, 0x04};
  ser::Reader reader(junk);
  auto tuple = aida::Tuple::decode(reader);
  EXPECT_EQ(tuple.status().code(), StatusCode::kDataLoss);
}

TEST(Fuzz, XmlParserSurvivesRandomMarkup) {
  Rng rng(113);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string text = random_text(rng, 200, "<>/=\"'&;ab c\n\tx!-[]?");
    auto doc = xml::parse(text);
    if (doc.is_ok()) {
      // Whatever parsed must serialize and re-parse.
      EXPECT_TRUE(xml::parse(doc->to_string()).is_ok());
    }
  }
}

TEST(Fuzz, XmlRoundTripPreservesRandomContent) {
  Rng rng(127);
  for (int trial = 0; trial < 500; ++trial) {
    xml::Node node("root");
    node.set_text(random_text(rng, 60, "abc<>&\"' \n\t123"));
    node.set_attribute("attr", random_text(rng, 30, "xyz<>&\"'"));
    auto back = xml::parse(node.to_string());
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back->text(), node.text());
    EXPECT_EQ(back->attribute("attr"), node.attribute("attr"));
  }
}

TEST(Fuzz, HttpParserSurvivesRandomStreams) {
  Rng rng(131);
  for (int trial = 0; trial < 1000; ++trial) {
    http::RequestParser parser;
    parser.feed(random_text(rng, 300, "GET POST/ HTP1.\r\n:abc0123 \t"));
    http::Request out;
    for (int step = 0; step < 4; ++step) {
      auto got = parser.next(out);
      if (!got.is_ok() || !*got) break;
    }
  }
}

TEST(Fuzz, QueryParserSurvivesRandomExpressions) {
  Rng rng(137);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string text = random_text(rng, 80, "abc&|!=<>()'\"0129. _likeand");
    auto query = catalog::Query::parse(text);
    if (query.is_ok()) {
      (void)query->matches({{"a", "1"}, {"like", "x"}});
    }
  }
}

TEST(Fuzz, PawScriptParserSurvivesRandomSources) {
  Rng rng(139);
  for (int trial = 0; trial < 1500; ++trial) {
    const std::string source =
        random_text(rng, 120, "funcletifwhile(){};=+-*/%!<>&|\"' \nreturn0123abc,.[]");
    auto program = script::parse(source);
    if (!program.is_ok()) continue;
    // Whatever parses also compiles and runs, the same way every time: two
    // fresh interpreters agree on the load and on every function's result.
    script::Interp first(script::InterpOptions{.max_steps_per_call = 10'000});
    script::Interp second(script::InterpOptions{.max_steps_per_call = 10'000});
    const Status loaded = first.load(source);
    ASSERT_EQ(loaded, second.load(source)) << source;
    if (!loaded.is_ok()) continue;
    for (const script::FunctionDecl& fn : program->functions) {
      std::vector<script::Value> args;
      for (std::size_t i = 0; i < fn.params.size(); ++i) {
        args.push_back(script::Value(static_cast<double>(i + 1)));
      }
      const auto a = first.call(fn.name, args);
      const auto b = second.call(fn.name, args);
      ASSERT_EQ(a.status(), b.status()) << source;
      if (a.is_ok()) {  // functions compare by identity, so compare what they show
        EXPECT_EQ(a->type(), b->type()) << source;
        EXPECT_EQ(a->to_display(), b->to_display()) << source;
      }
    }
    EXPECT_EQ(first.output(), second.output()) << source;
  }
}

TEST(Fuzz, UriParserSurvivesRandomText) {
  Rng rng(149);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string text = random_text(rng, 60, "abc:/?&=.0129%#@ ");
    auto uri = Uri::parse(text);
    if (uri.is_ok()) {
      (void)Uri::parse(uri->to_string());
    }
  }
}

TEST(Fuzz, SerializeReaderNeverOverReads) {
  Rng rng(151);
  for (int trial = 0; trial < 3000; ++trial) {
    const ser::Bytes junk = random_bytes(rng, 64);
    ser::Reader r(junk);
    // Chain random reads; every failure must be a clean Status.
    for (int step = 0; step < 8; ++step) {
      switch (rng.uniform_u64(0, 5)) {
        case 0: (void)r.varint(); break;
        case 1: (void)r.string(); break;
        case 2: (void)r.f64(); break;
        case 3: (void)r.bytes(); break;
        case 4: (void)r.string_map(); break;
        default: (void)r.svarint(); break;
      }
    }
    EXPECT_LE(r.position(), junk.size());
  }
}

// Property: any Record survives encode->decode unchanged (randomized).
TEST(Property, RecordRoundTripRandomized) {
  Rng rng(157);
  for (int trial = 0; trial < 500; ++trial) {
    data::Record record(rng.next());
    const int fields = static_cast<int>(rng.uniform_u64(0, 8));
    for (int f = 0; f < fields; ++f) {
      const std::string name = strings::format("f%d", f);
      switch (rng.uniform_u64(0, 3)) {
        case 0: record.set(name, rng.uniform(-1e12, 1e12)); break;
        case 1: record.set(name, static_cast<std::int64_t>(rng.next())); break;
        case 2: record.set(name, random_text(rng, 40, "abcdefg \n\0\xff")); break;
        default: {
          data::Value::RealVec vec(rng.uniform_u64(0, 12));
          for (double& x : vec) x = rng.normal(0, 1e6);
          record.set(name, std::move(vec));
        }
      }
    }
    ser::Writer w;
    record.encode(w);
    ser::Reader r(w.data());
    auto back = data::Record::decode(r);
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(*back, record);
    EXPECT_TRUE(r.at_end());
  }
}

// Property: histogram merge is associative and commutative over random fills.
TEST(Property, HistogramMergeAssociativeCommutative) {
  Rng rng(163);
  for (int trial = 0; trial < 50; ++trial) {
    auto a = aida::Histogram1D::create("h", 20, 0, 1);
    auto b = aida::Histogram1D::create("h", 20, 0, 1);
    auto c = aida::Histogram1D::create("h", 20, 0, 1);
    for (int i = 0; i < 200; ++i) {
      a->fill(rng.uniform(), rng.uniform(0.1, 2.0));
      b->fill(rng.uniform(), rng.uniform(0.1, 2.0));
      c->fill(rng.uniform(), rng.uniform(0.1, 2.0));
    }
    // (a+b)+c vs a+(b+c)
    auto left = *a;
    ASSERT_TRUE(left.merge(*b).is_ok());
    ASSERT_TRUE(left.merge(*c).is_ok());
    auto bc = *b;
    ASSERT_TRUE(bc.merge(*c).is_ok());
    auto right = *a;
    ASSERT_TRUE(right.merge(bc).is_ok());
    for (int i = 0; i < 20; ++i) {
      EXPECT_NEAR(left.bin_height(i), right.bin_height(i), 1e-9);
    }
    // a+b vs b+a
    auto ab = *a;
    ASSERT_TRUE(ab.merge(*b).is_ok());
    auto ba = *b;
    ASSERT_TRUE(ba.merge(*a).is_ok());
    for (int i = 0; i < 20; ++i) {
      EXPECT_NEAR(ab.bin_height(i), ba.bin_height(i), 1e-9);
    }
  }
}

}  // namespace
}  // namespace ipa
