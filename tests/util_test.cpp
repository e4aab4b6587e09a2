#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.h"
#include "util/json.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace histpc::util {
namespace {

// ---------------------------------------------------------------- strings

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split("/a//b", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "b");
}

TEST(Strings, SplitSingleToken) {
  auto parts = split("abc", '/');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitEmptyString) {
  auto parts = split("", '/');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, SplitWsDropsRuns) {
  auto parts = split_ws("  map  /a\t/b \n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "map");
  EXPECT_EQ(parts[1], "/a");
  EXPECT_EQ(parts[2], "/b");
}

TEST(Strings, SplitWsAllWhitespace) { EXPECT_TRUE(split_ws(" \t\n").empty()); }

TEST(Strings, JoinRoundTripsSplit) {
  const std::string s = "/Code/a.f/f1";
  EXPECT_EQ(join(split(s, '/'), "/"), s);
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x y\t"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("/Code/a", "/Code"));
  EXPECT_FALSE(starts_with("/Co", "/Code"));
  EXPECT_TRUE(ends_with("a.f", ".f"));
  EXPECT_FALSE(ends_with("f", ".f"));
}

TEST(Strings, PathPrefixRequiresComponentBoundary) {
  EXPECT_TRUE(is_path_prefix("/Code/a.f", "/Code/a.f"));
  EXPECT_TRUE(is_path_prefix("/Code/a.f", "/Code/a.f/f1"));
  EXPECT_FALSE(is_path_prefix("/Code/a.f", "/Code/a.fx"));
  EXPECT_FALSE(is_path_prefix("/Code/a.f/f1", "/Code/a.f"));
  EXPECT_TRUE(is_path_prefix("", "/anything"));
}

TEST(Strings, EditDistanceKnownValues) {
  EXPECT_EQ(edit_distance("", ""), 0u);
  EXPECT_EQ(edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(edit_distance("exchng1", "nbexchng1"), 2u);
  EXPECT_EQ(edit_distance("abc", ""), 3u);
}

TEST(Strings, NameSimilarityRange) {
  EXPECT_DOUBLE_EQ(name_similarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(name_similarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(name_similarity("abc", "xyz"), 0.0);
  const double s = name_similarity("sweep.f", "nbsweep.f");
  EXPECT_GT(s, 0.5);
  EXPECT_LT(s, 1.0);
}

TEST(Strings, FormatHelpers) {
  EXPECT_EQ(fmt_double(1.25, 1), "1.2");  // round-to-even via printf
  EXPECT_EQ(fmt_double(3.14159, 3), "3.142");
  EXPECT_EQ(fmt_percent(0.935), "93.5%");
  EXPECT_EQ(fmt_percent(0.5, 0), "50%");
}

// ------------------------------------------------------------------- json

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_double(), 3.5);
  EXPECT_EQ(Json::parse("-12").as_int(), -12);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNested) {
  Json j = Json::parse(R"({"a": [1, {"b": "x"}], "c": {}})");
  EXPECT_EQ(j.at("a").as_array().size(), 2u);
  EXPECT_EQ(j.at("a").as_array()[1].at("b").as_string(), "x");
  EXPECT_TRUE(j.at("c").as_object().empty());
}

TEST(Json, StringEscapes) {
  Json j = Json::parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(j.as_string(), "a\"b\\c\nd\teA");
}

TEST(Json, DumpParseRoundTrip) {
  Json j = Json::object();
  j["name"] = "exchng2";
  j["frac"] = 0.451;
  j["count"] = 42;
  j["flag"] = true;
  Json arr = Json::array();
  arr.push_back("x");
  arr.push_back(Json());
  j["list"] = std::move(arr);
  for (int indent : {0, 2}) {
    Json back = Json::parse(j.dump(indent));
    EXPECT_TRUE(back == j) << "indent=" << indent;
  }
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j["z"] = 1;
  j["a"] = 2;
  std::string s = j.dump();
  EXPECT_LT(s.find("\"z\""), s.find("\"a\""));
}

TEST(Json, CopiesAreDeep) {
  Json a = Json::parse(R"({"k": [1, 2], "o": {"x": 1}})");
  Json b = a;
  b["k"].as_array().push_back(Json(3));
  b["o"]["x"] = 2;
  b["new"] = "only-in-b";
  EXPECT_EQ(a.at("k").as_array().size(), 2u);
  EXPECT_EQ(a.at("o").at("x").as_int(), 1);
  EXPECT_FALSE(a.as_object().contains("new"));
  // Assignment too, including self-assignment safety.
  Json c;
  c = a;
  c["k"].as_array().clear();
  EXPECT_EQ(a.at("k").as_array().size(), 2u);
  a = *&a;
  EXPECT_EQ(a.at("k").as_array().size(), 2u);
}

TEST(Json, ParseErrorsCarryOffset) {
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
}

TEST(Json, WrongTypeAccessThrows) {
  Json j = Json::parse("[1]");
  EXPECT_THROW(j.as_object(), JsonError);
  EXPECT_THROW(j.as_string(), JsonError);
  EXPECT_THROW(Json().as_array(), JsonError);
}

TEST(Json, GetOrFallbacks) {
  Json j = Json::parse(R"({"a": 1.5, "s": "v", "b": true})");
  EXPECT_DOUBLE_EQ(j.get_or("a", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(j.get_or("missing", 7.0), 7.0);
  EXPECT_EQ(j.get_or("s", std::string("d")), "v");
  EXPECT_EQ(j.get_or("missing", std::string("d")), "d");
  EXPECT_EQ(j.get_or("b", false), true);
  EXPECT_EQ(j.get_or("missing", true), true);
}

TEST(Json, AtThrowsOnMissingKey) {
  Json j = Json::parse("{}");
  EXPECT_THROW(j.at("nope"), JsonError);
}

TEST(Json, IntegersSerializeWithoutExponent) {
  Json j(1234567.0);
  EXPECT_EQ(j.dump(), "1234567");
}

TEST(Json, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/histpc_json_test.json";
  write_file(path, "{\"k\": 3}");
  Json j = Json::parse(read_file(path));
  EXPECT_EQ(j.at("k").as_int(), 3);
  std::filesystem::remove(path);
}

TEST(Json, ReadMissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/histpc/file.json"), JsonError);
}

// --------------------------------------------------------- json fuzzing

/// Build a random JSON document from a seeded generator.
Json random_json(Rng& rng, int depth) {
  const int kind = depth <= 0 ? static_cast<int>(rng.next_below(4))
                              : static_cast<int>(rng.next_below(6));
  switch (kind) {
    case 0: return Json();
    case 1: return Json(rng.next_below(2) == 0);
    case 2: {
      // Mix integers and fractions, positive and negative.
      double v = rng.uniform(-1e6, 1e6);
      if (rng.next_below(2) == 0) v = std::floor(v);
      return Json(v);
    }
    case 3: {
      std::string s;
      const std::size_t len = rng.next_below(12);
      const char alphabet[] = "abc XYZ/\\\"\n\t_0189";
      for (std::size_t i = 0; i < len; ++i)
        s += alphabet[rng.next_below(sizeof(alphabet) - 1)];
      return Json(std::move(s));
    }
    case 4: {
      Json arr = Json::array();
      const std::size_t n = rng.next_below(5);
      for (std::size_t i = 0; i < n; ++i) arr.push_back(random_json(rng, depth - 1));
      return arr;
    }
    default: {
      Json obj = Json::object();
      const std::size_t n = rng.next_below(5);
      for (std::size_t i = 0; i < n; ++i)
        obj["k" + std::to_string(i)] = random_json(rng, depth - 1);
      return obj;
    }
  }
}

class JsonFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonFuzz, DumpParseRoundTripsRandomDocuments) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Json doc = random_json(rng, 4);
    for (int indent : {0, 2}) {
      const Json back = Json::parse(doc.dump(indent));
      EXPECT_TRUE(back == doc) << doc.dump();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, testing::Range<std::uint64_t>(1, 9));

// ------------------------------------------------------------------ table

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
  // All lines up to the last have equal-ish structure: value column starts
  // at the same offset in header and rows.
  auto lines = split(s, '\n');
  EXPECT_EQ(lines[0].find("value"), lines[3].find("22"));
}

TEST(Table, MissingCellsRenderEmpty) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, TooManyCellsThrows) {
  TablePrinter t({"a"});
  EXPECT_THROW(t.add_row({"x", "y"}), std::invalid_argument);
}

TEST(Csv, QuotesSpecialCharacters) {
  CsvWriter w({"a", "b"});
  w.add_row({"plain", "with,comma"});
  w.add_row({"with\"quote", "with\nnewline"});
  std::string s = w.to_string();
  EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(s.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.add_row({"only-one"}), std::invalid_argument);
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool differs = false;
  Rng a2(7);
  for (int i = 0; i < 10; ++i)
    if (a2.next_u64() != c.next_u64()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(42);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = r.normal(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, NextBelowBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(7), 7u);
}

// -------------------------------------------------------------------- log

TEST(Log, LevelParsingAndNames) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("nonsense"), LogLevel::Info);
  EXPECT_STREQ(log_level_name(LogLevel::Error), "ERROR");
}

TEST(Log, SetAndGetLevel) {
  LogLevel prev = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  HISTPC_LOG(Debug) << "filtered out, should not crash";
  set_log_level(prev);
}

TEST(Log, SinkCapturesLines) {
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&](LogLevel level, const std::string& msg) {
    captured.emplace_back(level, msg);
  });
  HISTPC_LOG(Warn) << "captured " << 42;
  set_log_sink({});  // restore the stderr default
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].first, LogLevel::Warn);
  EXPECT_EQ(captured[0].second, "captured 42");
  HISTPC_LOG(Warn) << "back to stderr, sink must no longer fire";
  EXPECT_EQ(captured.size(), 1u);
}

TEST(Log, UnknownLevelWarnsOnceThenStaysQuiet) {
  std::vector<std::string> captured;
  set_log_sink([&](LogLevel, const std::string& msg) { captured.push_back(msg); });
  // A value no other test uses: the once-per-distinct-value memory is
  // process-wide, so reuse would make this order-dependent.
  EXPECT_EQ(parse_log_level("utterly-bogus-level"), LogLevel::Info);
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_NE(captured[0].find("utterly-bogus-level"), std::string::npos);
  EXPECT_EQ(parse_log_level("utterly-bogus-level"), LogLevel::Info);
  EXPECT_EQ(captured.size(), 1u);  // warned once, not per call
  set_log_sink({});
}

TEST(ThreadPool, RunsEveryTaskAndWaitsIdle) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, SubmitFromInsideTaskAndDestructorDrains) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i)
      pool.submit([&ran, &pool] {
        ran.fetch_add(1, std::memory_order_relaxed);
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      });
  }  // destructor drains the nested submissions
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, ResolveMapsZeroToHardwareConcurrency) {
  EXPECT_GE(ThreadPool::resolve(0), 1);
  EXPECT_GE(ThreadPool::resolve(-3), 1);
  EXPECT_EQ(ThreadPool::resolve(4), 4);
  EXPECT_EQ(ThreadPool::resolve(1), 1);
}

}  // namespace
}  // namespace histpc::util
