#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "aida/histogram1d.hpp"
#include "client/grid_client.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "data/dataset.hpp"
#include "http/http.hpp"
#include "services/aida_manager.hpp"
#include "services/locator.hpp"
#include "services/manager.hpp"
#include "services/protocol.hpp"

namespace ipa::services {
namespace {

ser::Bytes snapshot_with(double fill_value, int count) {
  aida::Tree tree;
  auto hist = aida::Histogram1D::create("mass", 10, 0, 100);
  for (int i = 0; i < count; ++i) hist->fill(fill_value);
  tree.put("/mass", std::move(*hist));
  return tree.serialize();
}

PushRequest make_push(const std::string& session, const std::string& engine, double value,
                      int count) {
  PushRequest request;
  request.session_id = session;
  request.report.engine_id = engine;
  request.report.state = engine::EngineState::kRunning;
  request.report.processed = static_cast<std::uint64_t>(count);
  request.report.total = 100;
  request.snapshot = snapshot_with(value, count);
  return request;
}

TEST(AidaManager, MergesEngineContributions) {
  AidaManager manager;
  ASSERT_TRUE(manager.open_session("s1").is_ok());
  ASSERT_TRUE(manager.push(make_push("s1", "e0", 15.0, 3)).is_ok());
  ASSERT_TRUE(manager.push(make_push("s1", "e1", 15.0, 4)).is_ok());

  auto poll = manager.poll("s1", 0);
  ASSERT_TRUE(poll.is_ok());
  EXPECT_TRUE(poll->changed);
  EXPECT_EQ(poll->engines.size(), 2u);
  auto tree = aida::Tree::deserialize(poll->merged);
  ASSERT_TRUE(tree.is_ok());
  EXPECT_DOUBLE_EQ((*(*tree).histogram1d("/mass"))->bin_height(1), 7.0);
}

TEST(AidaManager, LatestSnapshotPerEngineWins) {
  AidaManager manager;
  ASSERT_TRUE(manager.open_session("s1").is_ok());
  ASSERT_TRUE(manager.push(make_push("s1", "e0", 15.0, 3)).is_ok());
  ASSERT_TRUE(manager.push(make_push("s1", "e0", 15.0, 10)).is_ok());  // replaces, not adds
  auto poll = manager.poll("s1", 0);
  ASSERT_TRUE(poll.is_ok());
  auto tree = aida::Tree::deserialize(poll->merged);
  EXPECT_DOUBLE_EQ((*(*tree).histogram1d("/mass"))->bin_height(1), 10.0);
}

TEST(AidaManager, PollVersioningSuppressesUnchanged) {
  AidaManager manager;
  ASSERT_TRUE(manager.open_session("s1").is_ok());
  ASSERT_TRUE(manager.push(make_push("s1", "e0", 5.0, 1)).is_ok());

  auto first = manager.poll("s1", 0);
  ASSERT_TRUE(first.is_ok());
  EXPECT_TRUE(first->changed);
  const std::uint64_t version = first->version;

  auto second = manager.poll("s1", version);
  ASSERT_TRUE(second.is_ok());
  EXPECT_FALSE(second->changed);
  EXPECT_TRUE(second->merged.empty());

  ASSERT_TRUE(manager.push(make_push("s1", "e0", 5.0, 2)).is_ok());
  auto third = manager.poll("s1", version);
  ASSERT_TRUE(third.is_ok());
  EXPECT_TRUE(third->changed);
  EXPECT_GT(third->version, version);
}

TEST(AidaManager, HierarchicalMergeMatchesFlat) {
  AidaManager flat(0);
  AidaManager hierarchical(4);
  ASSERT_TRUE(flat.open_session("s").is_ok());
  ASSERT_TRUE(hierarchical.open_session("s").is_ok());
  for (int e = 0; e < 16; ++e) {
    const auto push = make_push("s", strings::format("e%d", e), 25.0, e + 1);
    ASSERT_TRUE(flat.push(push).is_ok());
    ASSERT_TRUE(hierarchical.push(push).is_ok());
  }
  auto flat_poll = flat.poll("s", 0);
  auto hier_poll = hierarchical.poll("s", 0);
  ASSERT_TRUE(flat_poll.is_ok() && hier_poll.is_ok());
  auto flat_tree = aida::Tree::deserialize(flat_poll->merged);
  auto hier_tree = aida::Tree::deserialize(hier_poll->merged);
  // Total fills: 1+2+...+16 = 136, identical either way.
  EXPECT_DOUBLE_EQ((*(*flat_tree).histogram1d("/mass"))->bin_height(2), 136.0);
  EXPECT_DOUBLE_EQ((*(*hier_tree).histogram1d("/mass"))->bin_height(2), 136.0);
}

TEST(AidaManager, RejectsUnknownSessionAndBadSnapshot) {
  AidaManager manager;
  EXPECT_EQ(manager.push(make_push("ghost", "e0", 1.0, 1)).code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.poll("ghost", 0).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(manager.open_session("s").is_ok());
  PushRequest bad = make_push("s", "e0", 1.0, 1);
  bad.snapshot = {0xde, 0xad};
  EXPECT_FALSE(manager.push(bad).is_ok());
}

TEST(AidaManager, ResetClearsContributions) {
  AidaManager manager;
  ASSERT_TRUE(manager.open_session("s").is_ok());
  ASSERT_TRUE(manager.push(make_push("s", "e0", 5.0, 5)).is_ok());
  ASSERT_TRUE(manager.reset_session("s").is_ok());
  auto poll = manager.poll("s", 0);
  ASSERT_TRUE(poll.is_ok());
  EXPECT_TRUE(poll->changed);  // version bumped by the reset
  auto tree = aida::Tree::deserialize(poll->merged);
  ASSERT_TRUE(tree.is_ok());
  EXPECT_TRUE(tree->empty());
}

TEST(AidaManager, SessionLifecycle) {
  AidaManager manager;
  ASSERT_TRUE(manager.open_session("s").is_ok());
  EXPECT_EQ(manager.open_session("s").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(manager.session_count(), 1u);
  ASSERT_TRUE(manager.close_session("s").is_ok());
  EXPECT_EQ(manager.close_session("s").code(), StatusCode::kNotFound);
}

TEST(Locator, RegisterLocateUnregister) {
  Locator locator;
  DatasetLocation location;
  location.location = Uri::parse("file:///data/run7.ipd").value();
  location.splitter = "splitter-0";
  ASSERT_TRUE(locator.register_dataset("ds-1", location).is_ok());
  EXPECT_EQ(locator.register_dataset("ds-1", location).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(locator.register_dataset("", location).code(), StatusCode::kInvalidArgument);

  auto found = locator.locate("ds-1");
  ASSERT_TRUE(found.is_ok());
  EXPECT_EQ(found->location.path, "/data/run7.ipd");
  EXPECT_EQ(found->splitter, "splitter-0");
  EXPECT_EQ(locator.locate("ds-2").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(locator.unregister_dataset("ds-1").is_ok());
  EXPECT_EQ(locator.unregister_dataset("ds-1").code(), StatusCode::kNotFound);
}

TEST(Protocol, PushRoundTrip) {
  const PushRequest request = make_push("sess-1", "eng-3", 42.0, 7);
  auto decoded = decode_push(encode_push(request));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->session_id, "sess-1");
  EXPECT_EQ(decoded->report.engine_id, "eng-3");
  EXPECT_EQ(decoded->report.processed, 7u);
  EXPECT_EQ(decoded->snapshot, request.snapshot);
}

TEST(Protocol, PollRoundTrip) {
  PollResponse response;
  response.version = 12;
  response.changed = true;
  response.merged = snapshot_with(10.0, 2);
  EngineReport report;
  report.engine_id = "e0";
  report.state = engine::EngineState::kFailed;
  report.error = "boom";
  response.engines.push_back(report);

  auto decoded = decode_poll_response(encode_poll_response(response));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded->version, 12u);
  EXPECT_TRUE(decoded->changed);
  EXPECT_EQ(decoded->merged, response.merged);
  ASSERT_EQ(decoded->engines.size(), 1u);
  EXPECT_EQ(decoded->engines[0].state, engine::EngineState::kFailed);
  EXPECT_EQ(decoded->engines[0].error, "boom");
}

TEST(Protocol, PollRequestAndReadyRoundTrip) {
  auto poll_req = decode_poll_request(encode_poll_request("s9", 77));
  ASSERT_TRUE(poll_req.is_ok());
  EXPECT_EQ(poll_req->first, "s9");
  EXPECT_EQ(poll_req->second, 77u);

  auto ready = decode_ready(encode_ready("s9", "e4"));
  ASSERT_TRUE(ready.is_ok());
  EXPECT_EQ(ready->first, "s9");
  EXPECT_EQ(ready->second, "e4");
}

TEST(Protocol, VerbParsing) {
  EXPECT_EQ(parse_verb("run").value(), ControlVerb::kRun);
  EXPECT_EQ(parse_verb("rewind").value(), ControlVerb::kRewind);
  EXPECT_EQ(parse_verb("run_records").value(), ControlVerb::kRunRecords);
  EXPECT_FALSE(parse_verb("dance").is_ok());
  EXPECT_EQ(to_string(ControlVerb::kPause), "pause");
}

TEST(Protocol, EngineStateParsing) {
  EXPECT_EQ(parse_engine_state("finished").value(), engine::EngineState::kFinished);
  EXPECT_FALSE(parse_engine_state("bogus").is_ok());
}

// Session bookkeeping under contention: several threads race full
// open -> stage -> run -> poll -> close lifecycles against ONE manager. Every
// lifecycle must finish, and afterwards no session may leak — neither in the
// in-memory registry nor on the public GET /status listing.
TEST(ManagerLifecycle, ConcurrentSessionsDrainCompletely) {
  const char* kScript = R"(
func begin(tree) { tree.book_h1("/mass", 20, 0, 200); }
func process(event, tree) { tree.fill("/mass", event.num("mass")); }
)";
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ipa-services-lifecycle-race";
  std::filesystem::create_directories(dir);

  Rng rng(7);
  std::vector<data::Record> records;
  for (std::uint64_t i = 0; i < 600; ++i) {
    data::Record record(i);
    record.set("mass", rng.uniform(0.0, 200.0));
    records.push_back(std::move(record));
  }
  const std::string path = (dir / "race.ipd").string();
  ASSERT_TRUE(data::write_dataset(path, "race", records).is_ok());

  ManagerConfig config;
  config.staging_dir = (dir / "staging").string();
  config.engine_config.snapshot_every = 200;
  config.heartbeat_timeout_s = 15.0;  // one-core CI box: tolerate scheduling gaps
  auto manager = ManagerNode::start(std::move(config));
  ASSERT_TRUE(manager.is_ok()) << manager.status().to_string();
  ASSERT_TRUE(
      (*manager)->publish_dataset("svc/race", "ds-race", {{"experiment", "SVC"}}, path)
          .is_ok());
  const std::string base = (*manager)->authority().issue("cn=race", {"analysis"}, 3600);
  auto proxy = client::make_proxy((*manager)->authority(), base);
  ASSERT_TRUE(proxy.is_ok());

  constexpr int kThreads = 4;
  constexpr int kLifecyclesPerThread = 2;
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kLifecyclesPerThread; ++round) {
        auto grid = client::GridClient::connect((*manager)->soap_endpoint(), *proxy);
        ASSERT_TRUE(grid.is_ok()) << "t" << t << " r" << round << ": "
                                  << grid.status().to_string();
        auto session = grid->create_session(1);
        ASSERT_TRUE(session.is_ok()) << session.status().to_string();
        EXPECT_TRUE(session->activate().is_ok());
        EXPECT_TRUE(session->select_dataset("ds-race").is_ok());
        EXPECT_TRUE(session->stage_script("race", kScript).is_ok());
        auto tree = session->run_to_completion(120.0);
        EXPECT_TRUE(tree.is_ok()) << tree.status().to_string();
        EXPECT_TRUE(session->close().is_ok());
        completed.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(completed.load(), kThreads * kLifecyclesPerThread);
  EXPECT_EQ((*manager)->active_sessions(), 0u);

  const Uri endpoint = (*manager)->soap_endpoint();
  auto conn = http::Client::connect(endpoint.host, endpoint.port);
  ASSERT_TRUE(conn.is_ok()) << conn.status().to_string();
  auto status = conn->get("/status");
  ASSERT_TRUE(status.is_ok()) << status.status().to_string();
  EXPECT_EQ(status->status, 200);
  EXPECT_NE(status->body.find("\"sessions\":[]"), std::string::npos)
      << "leaked sessions: " << status->body;

  (*manager)->stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace ipa::services
