// Staging-pipeline suite: the single-pass parallel splitter must be
// byte-identical to a sequential two-pass decode/re-encode split and must
// turn a corrupt sparse index or frame length into data loss, the
// session fan-out must not serialize on a slow seat (and must aggregate
// errors deterministically), and the bounded server worker pool must cap
// threads and count overflow instead of spawning without limit.
//
// Runs under -DIPA_SANITIZE=thread in the staging CI tier: every path here
// crosses the staging pool, so data races surface loudly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <semaphore>
#include <thread>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/dataset.hpp"
#include "data/splitter.hpp"
#include "rpc/rpc.hpp"
#include "serialize/serialize.hpp"
#include "services/session.hpp"

namespace ipa {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class StagingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ipa-staging-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static std::vector<data::Record> make_records(std::size_t n, std::uint64_t seed = 42) {
    Rng rng(seed);
    std::vector<data::Record> records;
    records.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      data::Record record(i);
      record.set("energy", rng.uniform(0.0, 500.0));
      record.set("ntrk", static_cast<std::int64_t>(rng.uniform_u64(0, 40)));
      if (i % 3 == 0) record.set("tag", "signal");
      // Variable-size payload: byte balancing must differ from count
      // balancing for the golden test to mean anything.
      data::Value::RealVec p4(2 + rng.uniform_u64(0, 6));
      for (double& x : p4) x = rng.normal(0, 10);
      record.set("p4", std::move(p4));
      records.push_back(std::move(record));
    }
    return records;
  }

  static std::vector<std::uint8_t> file_bytes(const std::string& file) {
    std::ifstream in(file, std::ios::binary);
    EXPECT_TRUE(in.good()) << file;
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  std::filesystem::path dir_;
};

// --- golden byte identity --------------------------------------------------

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Sequential two-pass reference: decode every record, balance boundaries
/// on framed-byte sizes with the splitter's rule, re-encode part by part.
/// The streaming splitter's raw-copy output must match this byte for byte.
Status reference_split(const std::string& source_path, const std::string& out_prefix,
                       int num_parts) {
  IPA_ASSIGN_OR_RETURN(data::DatasetReader reader, data::DatasetReader::open(source_path));
  IPA_ASSIGN_OR_RETURN(const std::vector<data::Record> records, data::read_all(source_path));

  std::vector<std::uint64_t> frame_sizes;
  std::uint64_t payload_total = 0;
  for (const data::Record& record : records) {
    ser::Writer w;
    record.encode(w);
    const std::size_t body = std::move(w).take().size();
    const std::uint64_t frame = varint_size(body) + body;
    frame_sizes.push_back(frame);
    payload_total += frame;
  }

  std::vector<std::uint64_t> bounds(static_cast<std::size_t>(num_parts) + 1, records.size());
  bounds[0] = 0;
  {
    std::uint64_t cumulative = 0;
    int part = 1;
    for (std::uint64_t i = 0; i < frame_sizes.size() && part < num_parts; ++i) {
      cumulative += frame_sizes[i];
      while (part < num_parts &&
             cumulative >= payload_total * static_cast<std::uint64_t>(part) /
                               static_cast<std::uint64_t>(num_parts)) {
        bounds[static_cast<std::size_t>(part)] = i + 1;
        ++part;
      }
    }
  }

  const data::DatasetInfo& info = reader.info();
  for (int k = 0; k < num_parts; ++k) {
    auto metadata = info.metadata;
    metadata["part.index"] = std::to_string(k);
    metadata["part.count"] = std::to_string(num_parts);
    metadata["part.first"] = std::to_string(bounds[static_cast<std::size_t>(k)]);
    metadata["part.parent"] = info.name;
    IPA_ASSIGN_OR_RETURN(
        data::DatasetWriter writer,
        data::DatasetWriter::create(out_prefix + ".part" + std::to_string(k) + ".ipd",
                                    info.name + "/part" + std::to_string(k),
                                    std::move(metadata)));
    for (std::uint64_t i = bounds[static_cast<std::size_t>(k)];
         i < bounds[static_cast<std::size_t>(k) + 1]; ++i) {
      IPA_RETURN_IF_ERROR(writer.append(records[static_cast<std::size_t>(i)]));
    }
    IPA_RETURN_IF_ERROR(writer.finish());
  }
  return Status::ok();
}

TEST_F(StagingTest, SplitIsByteIdenticalToTwoPassReference) {
  ASSERT_TRUE(
      data::write_dataset(path("src.ipd"), "golden-src", make_records(1000), {{"run", "7"}})
          .is_ok());
  for (const int parts : {1, 3, 8, 16}) {
    const std::string tag = std::to_string(parts);
    auto split = data::split_dataset(path("src.ipd"), path("fast" + tag), parts);
    ASSERT_TRUE(split.is_ok()) << split.status().to_string();
    ASSERT_TRUE(reference_split(path("src.ipd"), path("ref" + tag), parts).is_ok());
    ASSERT_EQ(split->parts.size(), static_cast<std::size_t>(parts));
    for (int k = 0; k < parts; ++k) {
      const std::string ref = path("ref" + tag + ".part" + std::to_string(k) + ".ipd");
      EXPECT_EQ(file_bytes(split->parts[static_cast<std::size_t>(k)].path), file_bytes(ref))
          << "part " << k << " of " << parts << " differs from the two-pass reference";
    }
    EXPECT_TRUE(data::verify_split(path("src.ipd"), *split).is_ok());
  }
}

/// Write `records` as a dataset whose sparse index has the given stride.
Status write_with_stride(const std::string& file, const std::vector<data::Record>& records,
                         std::uint64_t stride) {
  IPA_ASSIGN_OR_RETURN(data::DatasetWriter writer,
                       data::DatasetWriter::create(file, "strided", {{"run", "9"}}, stride));
  for (const data::Record& record : records) IPA_RETURN_IF_ERROR(writer.append(record));
  return writer.finish();
}

TEST_F(StagingTest, SplitMatchesReferenceAcrossStridesPartCountsAndSizes) {
  // Sizes cover the empty, single-record and more-parts-than-records cases.
  for (const std::size_t records : {0u, 1u, 5u, 1000u}) {
    for (const std::uint64_t stride : {1u, 7u, 256u}) {
      const std::string tag = std::to_string(records) + "-" + std::to_string(stride);
      const std::string source = path("src" + tag + ".ipd");
      ASSERT_TRUE(write_with_stride(source, make_records(records), stride).is_ok());
      for (const int parts : {1, 3, 16, 64}) {
        const std::string run = tag + "-" + std::to_string(parts);
        auto split = data::split_dataset(source, path("fast" + run), parts);
        ASSERT_TRUE(split.is_ok()) << run << ": " << split.status().to_string();
        ASSERT_TRUE(reference_split(source, path("ref" + run), parts).is_ok()) << run;
        ASSERT_EQ(split->parts.size(), static_cast<std::size_t>(parts));
        for (int k = 0; k < parts; ++k) {
          const std::string ref = path("ref" + run + ".part" + std::to_string(k) + ".ipd");
          EXPECT_EQ(file_bytes(split->parts[static_cast<std::size_t>(k)].path), file_bytes(ref))
              << "part " << k << " of " << run << " differs from the two-pass reference";
        }
        EXPECT_TRUE(data::verify_split(source, *split).is_ok()) << run;
      }
    }
  }
}

// --- corrupt sources -------------------------------------------------------

/// File offset of every record frame of `records` written from `data_begin`.
std::vector<std::uint64_t> frame_offsets(const std::vector<data::Record>& records,
                                         std::uint64_t data_begin) {
  std::vector<std::uint64_t> offsets;
  std::uint64_t at = data_begin;
  for (const data::Record& record : records) {
    offsets.push_back(at);
    ser::Writer w;
    record.encode(w);
    at += varint_size(w.size()) + w.size();
  }
  return offsets;
}

void overwrite(const std::string& file, std::uint64_t offset,
               const std::vector<std::uint8_t>& bytes) {
  std::FILE* fp = std::fopen(file.c_str(), "r+b");
  ASSERT_NE(fp, nullptr) << file;
  ASSERT_EQ(std::fseek(fp, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), fp), bytes.size());
  std::fclose(fp);
}

/// Toggle the low bit of the frame length of the record at `offset`: the
/// frame claims one byte more or less than it holds.
void corrupt_frame_length(const std::string& file, std::uint64_t offset) {
  std::FILE* fp = std::fopen(file.c_str(), "rb");
  ASSERT_NE(fp, nullptr) << file;
  ASSERT_EQ(std::fseek(fp, static_cast<long>(offset), SEEK_SET), 0);
  const int byte = std::fgetc(fp);
  std::fclose(fp);
  ASSERT_NE(byte, EOF);
  overwrite(file, offset, {static_cast<std::uint8_t>(byte ^ 0x01)});
}

std::vector<std::uint8_t> le64(std::uint64_t v) {
  std::vector<std::uint8_t> out(8);
  for (std::size_t i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out;
}

TEST_F(StagingTest, CorruptIndexEntriesAreDataLoss) {
  const std::vector<data::Record> records = make_records(100);
  const std::string clean = path("clean.ipd");
  ASSERT_TRUE(write_with_stride(clean, records, 7).is_ok());
  auto reader = data::DatasetReader::open(clean);
  ASSERT_TRUE(reader.is_ok());
  const data::DatasetReader::FrameIndex index = reader->frame_index();
  ASSERT_EQ(index.offsets.size(), 15u);  // ceil(100 / 7)
  // Footer: varint count, varint stride, varint entry count, u64 entries.
  const std::uint64_t stride_at = index.data_end + varint_size(100);
  const std::uint64_t entries_at = stride_at + varint_size(7) + varint_size(15);
  const auto entry_at = [&](std::size_t s) { return entries_at + 8 * s; };

  struct Corruption {
    std::string what;
    std::uint64_t offset;
    std::vector<std::uint8_t> bytes;
    bool open_fails;  // false: plausible but wrong, caught by the split walk
  };
  const std::vector<Corruption> cases = {
      {"stride no longer matches the entry count", stride_at, {8}, true},
      {"first entry is not the first frame", entry_at(0), le64(index.data_begin + 1), true},
      {"entries not strictly increasing", entry_at(3), le64(index.offsets[2]), true},
      {"entry at the footer", entry_at(5), le64(index.data_end), true},
      {"entry far past the file", entry_at(14), le64(1ULL << 62), true},
      {"entry off its frame", entry_at(6), le64(index.offsets[6] + 1), false},
  };
  for (const Corruption& c : cases) {
    const std::string file = path("bad.ipd");
    std::filesystem::copy_file(clean, file, std::filesystem::copy_options::overwrite_existing);
    overwrite(file, c.offset, c.bytes);
    auto opened = data::DatasetReader::open(file);
    EXPECT_EQ(opened.is_ok(), !c.open_fails) << c.what;
    if (!opened.is_ok()) {
      EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss) << c.what;
    }
    for (const int parts : {1, 4, 16}) {
      auto split = data::split_dataset(file, path("bad" + std::to_string(parts)), parts);
      EXPECT_EQ(split.status().code(), StatusCode::kDataLoss) << c.what << ", " << parts;
    }
  }
}

TEST_F(StagingTest, CorruptFrameLengthInsideOnePartFailsTheSplit) {
  const std::vector<data::Record> records = make_records(2000);
  const std::string file = path("frames.ipd");
  ASSERT_TRUE(write_with_stride(file, records, 256).is_ok());
  auto clean = data::split_dataset(file, path("clean"), 4);
  ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
  std::uint64_t data_begin = 0;
  {
    auto reader = data::DatasetReader::open(file);
    ASSERT_TRUE(reader.is_ok());
    data_begin = reader->frame_index().data_begin;
  }
  // A record in the middle of part 1, in an index block that no boundary
  // falls in: only part 1's own walk crosses its frame.
  const data::PartInfo& part = clean->parts[1];
  const std::uint64_t victim = part.first_record + part.record_count / 2;
  for (std::size_t k = 1; k < clean->parts.size(); ++k) {
    const std::uint64_t boundary = clean->parts[k].first_record;
    ASSERT_NE(victim / 256, (boundary - 1) / 256) << "a boundary walk crosses the victim";
  }
  corrupt_frame_length(file, frame_offsets(records, data_begin)[victim]);
  ASSERT_TRUE(data::DatasetReader::open(file).is_ok());  // footer and index intact
  auto split = data::split_dataset(file, path("corrupt"), 4);
  EXPECT_EQ(split.status().code(), StatusCode::kDataLoss) << split.status().to_string();
}

TEST_F(StagingTest, SplitChecksThatFramesTileEveryPartUpToTheFooter) {
  // The last frame sits after the last index entry, so only the last part's
  // tiling check can notice that it no longer ends at the footer.
  const std::vector<data::Record> records = make_records(1000);
  const std::string file = path("tile.ipd");
  ASSERT_TRUE(data::write_dataset(file, "tile", records).is_ok());
  std::uint64_t data_begin = 0;
  {
    auto reader = data::DatasetReader::open(file);
    ASSERT_TRUE(reader.is_ok());
    data_begin = reader->frame_index().data_begin;
  }
  corrupt_frame_length(file, frame_offsets(records, data_begin).back());
  for (const int parts : {1, 3, 16}) {
    auto split = data::split_dataset(file, path("tile" + std::to_string(parts)), parts);
    EXPECT_EQ(split.status().code(), StatusCode::kDataLoss)
        << parts << " parts: " << split.status().to_string();
  }
}

// --- edge cases ------------------------------------------------------------

TEST_F(StagingTest, MorePartsThanRecordsCreatesEmptyTailParts) {
  ASSERT_TRUE(data::write_dataset(path("tiny.ipd"), "tiny", make_records(5)).is_ok());
  auto split = data::split_dataset(path("tiny.ipd"), path("tiny"), 16);
  ASSERT_TRUE(split.is_ok()) << split.status().to_string();
  ASSERT_EQ(split->parts.size(), 16u);
  std::uint64_t total = 0;
  for (const data::PartInfo& part : split->parts) {
    auto reader = data::DatasetReader::open(part.path);
    ASSERT_TRUE(reader.is_ok()) << part.path;  // every engine still gets a file
    EXPECT_EQ(reader->size(), part.record_count);
    total += part.record_count;
  }
  EXPECT_EQ(total, 5u);
  EXPECT_TRUE(data::verify_split(path("tiny.ipd"), *split).is_ok());
}

TEST_F(StagingTest, EmptyDatasetSplitsIntoEmptyParts) {
  ASSERT_TRUE(data::write_dataset(path("empty.ipd"), "empty", {}).is_ok());
  auto split = data::split_dataset(path("empty.ipd"), path("empty"), 4);
  ASSERT_TRUE(split.is_ok()) << split.status().to_string();
  ASSERT_EQ(split->parts.size(), 4u);
  EXPECT_EQ(split->total_records, 0u);
  for (const data::PartInfo& part : split->parts) {
    auto reader = data::DatasetReader::open(part.path);
    ASSERT_TRUE(reader.is_ok()) << part.path;
    EXPECT_EQ(reader->size(), 0u);
  }
  EXPECT_TRUE(data::verify_split(path("empty.ipd"), *split).is_ok());
}

TEST_F(StagingTest, SingleRecordDataset) {
  ASSERT_TRUE(data::write_dataset(path("one.ipd"), "one", make_records(1)).is_ok());
  for (const int parts : {1, 3}) {
    auto split = data::split_dataset(path("one.ipd"), path("one" + std::to_string(parts)), parts);
    ASSERT_TRUE(split.is_ok()) << split.status().to_string();
    ASSERT_EQ(split->parts.size(), static_cast<std::size_t>(parts));
    EXPECT_EQ(split->parts[0].record_count, 1u);
    EXPECT_TRUE(data::verify_split(path("one.ipd"), *split).is_ok());
  }
}

// --- concurrent seat fan-out ----------------------------------------------

/// EngineHandle whose every operation is one RPC through a chaos transport
/// with a guaranteed delay fault — a "slow seat" by construction. Each
/// handle owns its own connection so seat calls can genuinely overlap.
class RpcDelayHandle final : public services::EngineHandle {
 public:
  RpcDelayHandle(std::string id, rpc::RpcClient client)
      : id_(std::move(id)), client_(std::move(client)) {}

  const std::string& engine_id() const override { return id_; }
  Status stage_dataset(const std::string&) override { return call(); }
  Status stage_code(const engine::CodeBundle&) override { return call(); }
  Status control(services::ControlVerb, std::uint64_t) override { return call(); }
  services::EngineReport report() const override {
    services::EngineReport report;
    report.engine_id = id_;
    return report;
  }

 private:
  Status call() { return client_.call("Engine", "op", {}, "", /*timeout_s=*/10.0).status(); }

  std::string id_;
  rpc::RpcClient client_;
};

constexpr int kDelayMs = 80;

/// A session whose four seats each pay ~kDelayMs of injected network delay
/// per call. Serial fan-out would cost >= 4 * kDelayMs.
struct DelayedSession {
  std::unique_ptr<rpc::RpcServer> server;
  std::shared_ptr<services::Session> session;

  static DelayedSession start(const std::string& tag, int seats) {
    DelayedSession out;
    Uri endpoint;
    endpoint.scheme = "chaos+inproc";
    endpoint.host = "staging-" + tag;
    endpoint.query = {{"seed", "3"},
                      {"delay_p", "1"},
                      {"delay_ms", std::to_string(kDelayMs)}};
    out.server = std::make_unique<rpc::RpcServer>(endpoint);
    auto service = std::make_shared<rpc::Service>("Engine");
    service->register_method(
        "op", [](const rpc::CallContext&, const ser::Bytes&) -> Result<ser::Bytes> {
          return ser::Bytes{};
        });
    out.server->add_service(std::move(service));
    EXPECT_TRUE(out.server->start().is_ok());

    out.session = std::make_shared<services::Session>("s-" + tag, "tester", seats, "interactive");
    std::vector<std::unique_ptr<services::EngineHandle>> engines;
    for (int i = 0; i < seats; ++i) {
      const std::string id = "eng-" + std::to_string(i);
      auto client = rpc::RpcClient::connect(endpoint);
      EXPECT_TRUE(client.is_ok()) << client.status().to_string();
      out.session->mark_ready(id);
      engines.push_back(std::make_unique<RpcDelayHandle>(id, std::move(*client)));
    }
    EXPECT_TRUE(out.session->attach_engines(std::move(engines)).is_ok());
    return out;
  }
};

data::SplitResult fake_split(int parts) {
  data::SplitResult split;
  for (int i = 0; i < parts; ++i) {
    data::PartInfo part;
    part.path = "/tmp/fake-part-" + std::to_string(i);
    split.parts.push_back(std::move(part));
  }
  return split;
}

TEST_F(StagingTest, SlowSeatsDoNotSerializeTheFanOut) {
  DelayedSession fixture = DelayedSession::start("parallel", 4);

  // Each seat pays >= kDelayMs of injected delay per fan-out call; a serial
  // fan-out would take >= 4 * kDelayMs per operation. The parallel fan-out
  // should finish in roughly one seat's latency — 3x headroom for TSan and
  // scheduling noise still cleanly rejects serial execution.
  const auto started = Clock::now();
  ASSERT_TRUE(fixture.session->distribute_parts(fake_split(4)).is_ok());
  EXPECT_LT(seconds_since(started), 3 * kDelayMs / 1000.0)
      << "distribute_parts looks serialized";

  const auto control_started = Clock::now();
  ASSERT_TRUE(fixture.session->control(services::ControlVerb::kRun).is_ok());
  EXPECT_LT(seconds_since(control_started), 3 * kDelayMs / 1000.0)
      << "control fan-out looks serialized";

  ASSERT_TRUE(fixture.session->close().is_ok());
  fixture.server->stop();
}

/// Handle whose control() announces that it is in flight, then holds the
/// call until the test opens the gate: a fan-out RPC that stays in flight
/// for exactly as long as the test needs it to.
class GatedHandle final : public services::EngineHandle {
 public:
  GatedHandle(std::string id, std::counting_semaphore<16>& in_flight,
              std::shared_future<void> gate)
      : id_(std::move(id)), in_flight_(in_flight), gate_(std::move(gate)) {}

  const std::string& engine_id() const override { return id_; }
  Status stage_dataset(const std::string&) override { return Status::ok(); }
  Status stage_code(const engine::CodeBundle&) override { return Status::ok(); }
  Status control(services::ControlVerb, std::uint64_t) override {
    in_flight_.release();
    gate_.wait();
    return Status::ok();
  }
  services::EngineReport report() const override {
    services::EngineReport report;
    report.engine_id = id_;
    return report;
  }

 private:
  std::string id_;
  std::counting_semaphore<16>& in_flight_;
  std::shared_future<void> gate_;
};

TEST_F(StagingTest, SessionStaysResponsiveDuringSlowFanOut) {
  constexpr int kSeats = 4;
  constexpr auto kBound = std::chrono::seconds(5);
  std::counting_semaphore<16> in_flight(0);
  std::promise<void> open_gate;
  const std::shared_future<void> gate = open_gate.get_future().share();

  services::Session session("s-responsive", "tester", kSeats, "interactive");
  std::vector<std::unique_ptr<services::EngineHandle>> engines;
  for (int i = 0; i < kSeats; ++i) {
    const std::string id = "eng-" + std::to_string(i);
    session.mark_ready(id);
    engines.push_back(std::make_unique<GatedHandle>(id, in_flight, gate));
  }
  ASSERT_TRUE(session.attach_engines(std::move(engines)).is_ok());
  ASSERT_TRUE(session.distribute_parts(fake_split(kSeats)).is_ok());

  // Hold a control fan-out in flight on every seat; the session lock must
  // not be held across those RPCs, so the state queries still return.
  std::thread fan_out([&] { EXPECT_TRUE(session.control(services::ControlVerb::kRun).is_ok()); });
  const auto deadline = Clock::now() + kBound;
  int held = 0;
  while (held < kSeats && in_flight.try_acquire_until(deadline)) ++held;
  EXPECT_EQ(held, kSeats) << "the control fan-out never reached every seat";

  auto queries = std::async(std::launch::async, [&] {
    const services::SessionState state = session.state();
    (void)session.phase_timings();
    (void)session.degraded();
    return state;
  });
  const bool returned = queries.wait_for(kBound) == std::future_status::ready;
  EXPECT_TRUE(returned) << "a state query blocked behind an in-flight fan-out RPC";

  open_gate.set_value();
  fan_out.join();
  EXPECT_EQ(queries.get(), services::SessionState::kDatasetStaged);
  ASSERT_TRUE(session.close().is_ok());
}

/// Handle with scripted outcome: optional failure after an optional sleep.
class ScriptedHandle final : public services::EngineHandle {
 public:
  ScriptedHandle(std::string id, Status result, int sleep_ms)
      : id_(std::move(id)), result_(std::move(result)), sleep_ms_(sleep_ms) {}

  const std::string& engine_id() const override { return id_; }
  Status stage_dataset(const std::string&) override { return run(); }
  Status stage_code(const engine::CodeBundle&) override { return run(); }
  Status control(services::ControlVerb, std::uint64_t) override { return run(); }
  services::EngineReport report() const override {
    services::EngineReport report;
    report.engine_id = id_;
    return report;
  }

 private:
  Status run() {
    // ipa-lint: allow(sleep-sync) -- the fake transport's simulated RPC latency.
    if (sleep_ms_ > 0) std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    return result_;
  }

  std::string id_;
  Status result_;
  int sleep_ms_;
};

TEST_F(StagingTest, FirstErrorInSeatOrderWinsDeterministically) {
  // Seat 3 fails instantly; seat 1 fails only after sleeping. Wall-clock
  // order of failures is 3 then 1, but the aggregate must always report
  // seat 1 — the first failing seat by index.
  for (int round = 0; round < 3; ++round) {
    services::Session session("s-det-" + std::to_string(round), "tester", 4, "interactive");
    std::vector<std::unique_ptr<services::EngineHandle>> engines;
    for (int i = 0; i < 4; ++i) session.mark_ready("eng-" + std::to_string(i));
    engines.push_back(std::make_unique<ScriptedHandle>("eng-0", Status::ok(), 0));
    engines.push_back(
        std::make_unique<ScriptedHandle>("eng-1", internal_error("slow boom"), 30));
    engines.push_back(std::make_unique<ScriptedHandle>("eng-2", Status::ok(), 0));
    engines.push_back(
        std::make_unique<ScriptedHandle>("eng-3", internal_error("fast boom"), 0));
    ASSERT_TRUE(session.attach_engines(std::move(engines)).is_ok());

    engine::CodeBundle bundle;
    bundle.name = "det";
    bundle.source = "func process(event, tree) {}";
    const Status status = session.stage_code(bundle);
    ASSERT_FALSE(status.is_ok());
    EXPECT_NE(status.message().find("engine eng-1"), std::string::npos) << status.to_string();
    EXPECT_NE(status.message().find("slow boom"), std::string::npos) << status.to_string();
    EXPECT_EQ(status.message().find("fast boom"), std::string::npos) << status.to_string();
    ASSERT_TRUE(session.close().is_ok());
  }
}

// --- bounded worker pool -------------------------------------------------

/// Waits up to `limit` for `done`, polling every millisecond.
template <typename Pred>
bool poll_until(Pred done, std::chrono::milliseconds limit) {
  const auto deadline = Clock::now() + limit;
  while (!done() && Clock::now() < deadline) {
    // ipa-lint: allow(sleep-sync) -- paces a deadline-bounded poll; the predicate decides.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

/// Offers `items` tasks that each hold their worker until released, and
/// returns how many started before the deadline. Each needs its own worker.
int serve_blocking_burst(ThreadPool& pool, int items) {
  struct Burst {
    std::atomic<int> entered{0};
    std::atomic<int> finished{0};
    std::counting_semaphore<64> release{0};
  };
  // Shared with the tasks, so one that never got a worker cannot outlive it.
  auto burst = std::make_shared<Burst>();
  for (int i = 0; i < items; ++i) {
    std::function<void()> task = [burst] {
      burst->entered.fetch_add(1);
      burst->release.acquire();
      burst->finished.fetch_add(1);
    };
    EXPECT_EQ(pool.try_post(task), Admission::kAdmitted);
  }
  poll_until([&] { return burst->entered.load() == items; }, std::chrono::seconds(2));
  const int started = burst->entered.load();
  burst->release.release(items);
  poll_until([&] { return burst->finished.load() == started; }, std::chrono::seconds(5));
  return started;
}

TEST_F(StagingTest, ServerPoolCapsWorkersAndCountsOverflow) {
  std::atomic<int> entered{0};
  std::atomic<int> handled{0};
  std::atomic<int> last_item{0};
  std::counting_semaphore<16> release(0);

  ThreadPool pool(/*max_threads=*/2, /*queue_capacity=*/2);
  auto item = [&](int id) {
    return std::function<void()>([&, id] {
      entered.fetch_add(1);
      release.acquire();
      last_item.store(id);
      handled.fetch_add(1);
    });
  };

  // Two items occupy both workers.
  std::function<void()> first = item(1), second = item(2);
  EXPECT_EQ(pool.try_post(first), Admission::kAdmitted);
  EXPECT_EQ(pool.try_post(second), Admission::kAdmitted);
  ASSERT_TRUE(poll_until([&] { return entered.load() == 2; }, std::chrono::seconds(5)));
  EXPECT_EQ(pool.worker_count(), 2u);

  // Two more fill the queue; the fifth overflows instead of growing a
  // thread — and a saturated rejection leaves the item with the caller.
  std::function<void()> third = item(3), fourth = item(4), rejected = item(5);
  EXPECT_EQ(pool.try_post(third), Admission::kAdmitted);
  EXPECT_EQ(pool.try_post(fourth), Admission::kAdmitted);
  EXPECT_EQ(pool.try_post(rejected), Admission::kSaturated);
  ASSERT_TRUE(rejected);
  EXPECT_EQ(pool.worker_count(), 2u);

  release.release(4);
  EXPECT_TRUE(poll_until([&] { return handled.load() == 4; }, std::chrono::seconds(5)))
      << handled.load() << " of 4 handled";
  release.release(1);
  rejected();  // still the caller's item 5
  EXPECT_EQ(last_item.load(), 5);
  pool.shutdown();
  std::function<void()> late = item(6);
  EXPECT_EQ(pool.try_post(late), Admission::kStopped);  // stopped pools reject
  EXPECT_TRUE(late);
}

TEST_F(StagingTest, ServerPoolServesEveryItemQueuedWhileWorkersStart) {
  // Items that each hold a worker for good (like a long-lived engine
  // connection) must each get a worker, even when a burst of submits lands
  // while freshly spawned workers are idle but have not yet taken the
  // earlier items. Many short trials give the preemption race its chances.
  constexpr int kItems = 4;
  for (int trial = 0; trial < 500; ++trial) {
    ThreadPool pool(/*max_threads=*/2 * kItems, /*queue_capacity=*/128);
    const int entered = serve_blocking_burst(pool, kItems);
    pool.shutdown();
    ASSERT_EQ(entered, kItems) << "trial " << trial << ": a queued item got no worker";
  }
}

TEST_F(StagingTest, ServerPoolRetiresIdleWorkersThenServesTheNextBurst) {
  constexpr int kItems = 4;
  ThreadPool pool(/*max_threads=*/2 * kItems, /*queue_capacity=*/128);
  ASSERT_EQ(serve_blocking_burst(pool, kItems), kItems);
  EXPECT_EQ(pool.worker_count(), static_cast<std::size_t>(kItems));

  // Every worker goes idle and exits after ThreadPool::kIdleRetire.
  EXPECT_TRUE(poll_until([&] { return pool.worker_count() == 0; },
                         ThreadPool::kIdleRetire + std::chrono::seconds(3)))
      << pool.worker_count() << " workers still live";

  // Retired workers strand nothing: a new burst again gets one worker per
  // blocking item.
  EXPECT_EQ(serve_blocking_burst(pool, kItems), kItems);
  pool.shutdown();
  EXPECT_EQ(pool.worker_count(), 0u);
}

TEST_F(StagingTest, ServerPoolRetiresSurplusWorkersUnderALightSteadyLoad) {
  constexpr int kItems = 4;
  ThreadPool pool(/*max_threads=*/2 * kItems, /*queue_capacity=*/128);
  ASSERT_EQ(serve_blocking_burst(pool, kItems), kItems);

  // One short task every 50 ms, like a periodic scan. The most recently idle
  // worker takes each, so the others go idle for kIdleRetire and exit; woken
  // in turn, every worker would get a task well inside the retire time.
  const auto deadline = Clock::now() + ThreadPool::kIdleRetire + std::chrono::seconds(3);
  while (pool.worker_count() > 1 && Clock::now() < deadline) {
    pool.submit([] {}).get();
    // ipa-lint: allow(sleep-sync) -- paces the light load; worker_count() decides.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(pool.worker_count(), 1u);
  pool.shutdown();
}

}  // namespace
}  // namespace ipa
