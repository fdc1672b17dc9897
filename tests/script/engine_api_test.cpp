#include "script/engine_api.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "script/interp.hpp"

namespace ipa::script {
namespace {

class EngineApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    record_.set_index(7);
    record_.set("energy", 91.2);
    record_.set("ntrk", std::int64_t{5});
    record_.set("tag", "signal");
    record_.set("px", data::Value::RealVec{1.0, 2.0, 3.0});
    batch_ = data::RecordBatch::from_records({record_});
    interp_.set_global("event", Value(std::make_shared<EventCursor>(&batch_)));
    interp_.set_global("tree", Value(make_tree_object(&tree_)));
  }

  Result<Value> run(const std::string& body) {
    const std::string source = "func main() {\n" + body + "\n}";
    IPA_RETURN_IF_ERROR(interp_.load(source));
    return interp_.call("main", {});
  }

  data::Record record_;
  data::RecordBatch batch_;  // record_ as the one row the event cursor reads
  aida::Tree tree_;
  Interp interp_;
};

TEST_F(EngineApiTest, EventFieldAccess) {
  auto result = run(R"(
    let px = event.get("px");
    return event.num("energy") + event.num("ntrk") + px[2] + len(px);
  )");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_DOUBLE_EQ(result->number(), 91.2 + 5 + 3 + 3);
}

TEST_F(EngineApiTest, EventStringAndHasAndIndex) {
  auto result = run(R"(
    if (event.has("tag") && event.str("tag") == "signal" && !event.has("nope")) {
      return event.index();
    }
    return -1;
  )");
  ASSERT_TRUE(result.is_ok());
  EXPECT_DOUBLE_EQ(result->number(), 7.0);
}

TEST_F(EngineApiTest, EventFallbacks) {
  auto result = run(R"(return event.num("absent", -5) + num(event.str("absent", "2"));)");
  ASSERT_TRUE(result.is_ok());
  EXPECT_DOUBLE_EQ(result->number(), -3.0);
}

TEST_F(EngineApiTest, EventGetMissingFieldIsError) {
  EXPECT_FALSE(run(R"(return event.get("absent");)").is_ok());
}

TEST_F(EngineApiTest, OverflowCellsReadAsTheRecord) {
  // "x" and "n" change kind on row 1, so the batch serves those two cells
  // from its overflow table instead of the typed column.
  data::Record first(0);
  first.set("x", 2.5);
  first.set("n", std::int64_t{3});
  data::Record second(1);
  second.set("x", "high");
  second.set("n", data::Value::RealVec{1.0, 2.0});
  const std::vector<data::Record> records{first, second};
  const auto batch = data::RecordBatch::from_records(records);
  auto cursor = std::make_shared<EventCursor>(&batch);
  interp_.set_global("event", Value(cursor));
  ASSERT_TRUE(interp_.load(R"(
func probe(name) {
  return [event.get(name), event.num(name, -1), event.str(name, "none"), event.has(name)];
}
)").is_ok());
  for (std::size_t row = 0; row < records.size(); ++row) {
    cursor->set_row(row);
    for (const std::string name : {"x", "n"}) {
      SCOPED_TRACE("row " + std::to_string(row) + " field " + name);
      const auto result = interp_.call("probe", {Value(name)});
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      const List& got = result->list();
      const data::Value& field = *records[row].find(name);
      if (field.is_vec()) {
        ASSERT_TRUE(got[0].is_list());
        ASSERT_EQ(got[0].list().size(), field.as_vec().size());
        for (std::size_t i = 0; i < field.as_vec().size(); ++i) {
          EXPECT_EQ(got[0].list()[i].number(), field.as_vec()[i]);
        }
      } else if (field.is_str()) {
        EXPECT_EQ(got[0].string(), field.as_str());
      } else {
        EXPECT_EQ(got[0].number(), records[row].real_or(name));
      }
      EXPECT_EQ(got[1].number(), records[row].real_or(name, -1));
      EXPECT_EQ(got[2].string(), records[row].str_or(name, "none"));
      EXPECT_EQ(got[3].boolean(), records[row].has(name));
    }
  }
}

TEST_F(EngineApiTest, UnknownMethodIsError) {
  const auto result = run(R"(return event.teleport();)");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(result.status().message(), "event: no method 'teleport' (line 2)");
}

TEST_F(EngineApiTest, BookAndFillHistogram1D) {
  auto result = run(R"(
    tree.book_h1("/mass", 10, 0, 100);
    tree.fill("/mass", 45);
    tree.fill("/mass", 45, 2);
    tree.fill("/mass", 999);
    return 0;
  )");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  auto hist = tree_.histogram1d("/mass");
  ASSERT_TRUE(hist.is_ok());
  EXPECT_EQ((*hist)->entries(), 3u);
  EXPECT_DOUBLE_EQ((*hist)->bin_height(4), 3.0);
  EXPECT_DOUBLE_EQ((*hist)->overflow(), 1.0);
}

TEST_F(EngineApiTest, BookWithTitle) {
  ASSERT_TRUE(run(R"(tree.book_h1("/m", 5, 0, 1, "dimuon mass"); return 0;)").is_ok());
  EXPECT_EQ((*tree_.histogram1d("/m"))->title(), "dimuon mass");
}

TEST_F(EngineApiTest, BookAndFill2D) {
  ASSERT_TRUE(run(R"(
    tree.book_h2("/xy", 4, 0, 4, 4, 0, 4);
    tree.fill2("/xy", 1.5, 2.5);
    tree.fill2("/xy", 1.5, 2.5, 3);
    return 0;
  )").is_ok());
  auto hist = tree_.histogram2d("/xy");
  ASSERT_TRUE(hist.is_ok());
  EXPECT_DOUBLE_EQ((*hist)->bin_height(1, 2), 4.0);
}

TEST_F(EngineApiTest, BookAndFillProfile) {
  ASSERT_TRUE(run(R"(
    tree.book_prof("/prof", 2, 0, 2);
    tree.fill2("/prof", 0.5, 10);
    tree.fill2("/prof", 0.5, 20);
    return 0;
  )").is_ok());
  auto profile = tree_.profile1d("/prof");
  ASSERT_TRUE(profile.is_ok());
  EXPECT_DOUBLE_EQ((*profile)->bin_mean(0), 15.0);
}

TEST_F(EngineApiTest, BookAndFillCloud) {
  ASSERT_TRUE(run(R"(
    tree.book_cloud("/cloud");
    tree.fill("/cloud", 1);
    tree.fill("/cloud", 2);
    return 0;
  )").is_ok());
  auto cloud = tree_.cloud1d("/cloud");
  ASSERT_TRUE(cloud.is_ok());
  EXPECT_EQ((*cloud)->entries(), 2u);
}

TEST_F(EngineApiTest, BookAndFillTuple) {
  ASSERT_TRUE(run(R"(
    tree.book_tuple("/nt", ["mass", "pt"]);
    tree.fill_row("/nt", [125, 40]);
    tree.fill_row("/nt", [91, 20]);
    return 0;
  )").is_ok());
  auto tuple = tree_.tuple("/nt");
  ASSERT_TRUE(tuple.is_ok());
  EXPECT_EQ((*tuple)->rows(), 2u);
  EXPECT_EQ((*tuple)->column("mass").value(), (std::vector<double>{125, 91}));
}

TEST_F(EngineApiTest, FillKindMismatchReportsKind) {
  const auto result = run(R"(
    tree.book_h2("/xy", 2, 0, 1, 2, 0, 1);
    tree.fill("/xy", 1);
    return 0;
  )");
  ASSERT_FALSE(result.is_ok());
  EXPECT_NE(result.status().message().find("Histogram2D"), std::string::npos);
}

TEST_F(EngineApiTest, FillUnbookedPathIsError) {
  EXPECT_FALSE(run(R"(tree.fill("/never-booked", 1); return 0;)").is_ok());
}

TEST_F(EngineApiTest, BookValidatesAxis) {
  EXPECT_FALSE(run(R"(tree.book_h1("/bad", 0, 0, 1); return 0;)").is_ok());
  EXPECT_FALSE(run(R"(tree.book_h1("/bad", 10, 5, 1); return 0;)").is_ok());
}

TEST_F(EngineApiTest, FullAnalysisScriptShape) {
  // The begin/process/end contract the engine drives.
  const char* source = R"(
func begin(tree) {
  tree.book_h1("/e", 20, 0, 200);
}
func process(event, tree) {
  let e = event.num("energy");
  if (e > 50) { tree.fill("/e", e); }
}
func end(tree) { print("analysis complete"); }
)";
  ASSERT_TRUE(interp_.load(source).is_ok());
  Value tree_obj(make_tree_object(&tree_));
  ASSERT_TRUE(interp_.call("begin", {tree_obj}).is_ok());
  Value event_obj(std::make_shared<EventCursor>(&batch_));
  ASSERT_TRUE(interp_.call("process", {event_obj, tree_obj}).is_ok());
  ASSERT_TRUE(interp_.call("end", {tree_obj}).is_ok());
  auto hist = tree_.histogram1d("/e");
  ASSERT_TRUE(hist.is_ok());
  EXPECT_EQ((*hist)->entries(), 1u);
  EXPECT_EQ(interp_.output().back(), "analysis complete");
}

}  // namespace
}  // namespace ipa::script
// Bin counts that do not convert to an int fail before the conversion.
namespace ipa::script {
namespace {

TEST_F(EngineApiTest, BookRejectsBinCountsOutsideInt) {
  for (const char* call : {"tree.book_h1(\"/h\", sqrt(-1), 0, 1);",
                           "tree.book_h1(\"/h\", 1e12, 0, 1);",
                           "tree.book_prof(\"/p\", pow(10, 400), 0, 1);",
                           "tree.book_h2(\"/h2\", 4, 0, 1, -1e300, 0, 1);"}) {
    SCOPED_TRACE(call);
    const auto result = run(call);
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("bin count"), std::string::npos)
        << result.status().message();
  }
  EXPECT_TRUE(tree_.empty());
}

// A fill call site keeps the histogram it found until the tree changes;
// booking again, clearing and a new tree at any address all refresh it.
TEST_F(EngineApiTest, FillHandleFollowsTheTree) {
  ASSERT_TRUE(interp_.load(R"(
func book() { tree.book_h1("/h", 10, 0, 10); }
func fill(x) { tree.fill("/h", x); }
)").is_ok());
  ASSERT_TRUE(interp_.call("book", {}).is_ok());
  ASSERT_TRUE(interp_.call("fill", {Value(1.0)}).is_ok());
  ASSERT_TRUE(interp_.call("fill", {Value(2.0)}).is_ok());
  EXPECT_EQ((*tree_.histogram1d("/h"))->entries(), 2);

  ASSERT_TRUE(interp_.call("book", {}).is_ok());  // replaces the histogram
  ASSERT_TRUE(interp_.call("fill", {Value(3.0)}).is_ok());
  EXPECT_EQ((*tree_.histogram1d("/h"))->entries(), 1);

  tree_.clear();
  EXPECT_FALSE(interp_.call("fill", {Value(3.0)}).is_ok());

  for (int round = 0; round < 3; ++round) {
    // Trees that may reuse one another's address.
    auto other = std::make_unique<aida::Tree>();
    interp_.set_global("tree", Value(make_tree_object(other.get())));
    ASSERT_TRUE(interp_.call("book", {}).is_ok());
    ASSERT_TRUE(interp_.call("fill", {Value(4.0)}).is_ok());
    EXPECT_EQ((*other->histogram1d("/h"))->entries(), 1);
  }
}

// An event.get call site keeps the field's slot until the schema changes:
// batches whose schemas order the same fields differently read correctly.
TEST_F(EngineApiTest, GetSlotFollowsTheSchema) {
  data::Record ab(0);
  ab.set("a", 1.0);
  ab.set("b", 2.0);
  data::Record ba(0);
  ba.set("b", 20.0);
  ba.set("a", 10.0);
  const auto first = data::RecordBatch::from_records({ab});
  const auto second = data::RecordBatch::from_records({ba});
  ASSERT_TRUE(interp_.load("func read(e) { return e.get(\"a\") * 100 + e.get(\"b\"); }").is_ok());
  for (int round = 0; round < 2; ++round) {
    for (const auto* batch : {&first, &second}) {
      const Value event(std::make_shared<EventCursor>(batch));
      const auto result = interp_.call("read", {event});
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      EXPECT_DOUBLE_EQ(result->number(), batch == &first ? 102.0 : 1020.0);
    }
  }
}

}  // namespace
}  // namespace ipa::script
