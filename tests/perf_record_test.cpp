// Tests for the self-diagnosis performance history: PerfRecord JSONL
// round-trips, PerfLog append/quarantine semantics, and the MAD-based
// cross-run regression detector (perf_diff) — including the acceptance
// scenario of a deliberately injected 2x slowdown against a 5-record
// baseline window.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "scratch_dir.h"
#include "telemetry/perf_diff.h"
#include "telemetry/perf_record.h"
#include "telemetry/registry.h"
#include "util/json.h"
#include "util/log.h"

namespace histpc::telemetry {
namespace {

/// A record with every field populated and a registry holding all four
/// telemetry kinds (so the round trip covers histogram buckets too).
PerfRecord sample_record(double lap_seconds = 2e-3) {
  PerfRecord rec;
  rec.app = "poisson_c";
  rec.version = "C";
  rec.kind = "diagnose";
  rec.machine = "testhost";
  rec.build = "abc1234";
  rec.config["threshold_override"] = "0.2";
  rec.config["batched_eval"] = "1";
  rec.registry.add("pc.pairs_tested", 42);
  rec.registry.gauge_max("pc.peak_cost", 0.19);
  for (int i = 0; i < 8; ++i)
    rec.registry.add_seconds("pc.advance", lap_seconds * (1.0 + 0.01 * i));
  return rec;
}

TEST(PerfRecord, JsonRoundTrip) {
  const PerfRecord rec = sample_record();
  const PerfRecord back = PerfRecord::from_json(util::Json::parse(rec.to_json().dump()));
  EXPECT_EQ(back.schema, PerfRecord::kSchemaVersion);
  EXPECT_EQ(back.app, rec.app);
  EXPECT_EQ(back.version, rec.version);
  EXPECT_EQ(back.kind, rec.kind);
  EXPECT_EQ(back.machine, rec.machine);
  EXPECT_EQ(back.build, rec.build);
  EXPECT_EQ(back.config, rec.config);
  // Registry equality via canonical JSON: covers counters, gauges, timer
  // extrema, and histogram buckets in one comparison.
  EXPECT_EQ(back.registry.to_json().dump(), rec.registry.to_json().dump());
  const Histogram* h = back.registry.histogram("pc.advance");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 8u);
}

TEST(PerfRecord, RejectsNewerSchema) {
  util::Json j = sample_record().to_json();
  j["schema"] = PerfRecord::kSchemaVersion + 1;
  EXPECT_THROW(PerfRecord::from_json(j), util::JsonError);
}

TEST(PerfLog, AppendReadAllAndLatest) {
  const testing_support::ScratchDir scratch("perf_record_append");
  const std::string dir = scratch.str();
  PerfLog log(dir + "/log.jsonl");
  EXPECT_TRUE(log.read_all().empty());
  EXPECT_FALSE(log.latest().has_value());

  for (int i = 0; i < 3; ++i) {
    PerfRecord rec = sample_record();
    rec.version = std::to_string(i);
    log.append(rec);
  }
  const std::vector<PerfRecord> all = log.read_all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].version, "0");  // oldest first
  EXPECT_EQ(all[2].version, "2");
  ASSERT_TRUE(log.latest().has_value());
  EXPECT_EQ(log.latest()->version, "2");

  // The file really is JSONL: one parseable object per line.
  std::ifstream in(log.path());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(util::Json::parse(line).is_object());
    ++lines;
  }
  EXPECT_EQ(lines, 3u);
}

TEST(PerfLog, QuarantinesCorruptLines) {
  const testing_support::ScratchDir scratch("perf_record_quarantine");
  const std::string dir = scratch.str();
  PerfLog log(dir + "/log.jsonl");
  log.append(sample_record());
  log.append(sample_record());

  // Corrupt the middle: insert one non-JSON line and one valid-JSON line
  // that is not a PerfRecord between the two good records.
  std::ifstream in(log.path());
  std::string first, second;
  std::getline(in, first);
  std::getline(in, second);
  in.close();
  std::ofstream out(log.path(), std::ios::trunc);
  out << first << "\n"
      << "{ not json at all\n"
      << "{\"schema\":99,\"app\":\"x\"}\n"
      << second << "\n";
  out.close();

  std::vector<std::string> warnings;
  util::set_log_sink([&](util::LogLevel level, const std::string& msg) {
    if (level == util::LogLevel::Warn) warnings.push_back(msg);
  });
  const std::vector<PerfRecord> all = log.read_all();
  util::set_log_sink({});

  EXPECT_EQ(all.size(), 2u);  // both good records survive
  ASSERT_EQ(warnings.size(), 2u);
  EXPECT_NE(warnings[0].find("quarantining corrupt perf-log line 2"), std::string::npos)
      << warnings[0];
  EXPECT_NE(warnings[1].find("line 3"), std::string::npos) << warnings[1];
}

TEST(PerfLog, PathInStoreEscapesSeparators) {
  EXPECT_EQ(PerfLog::path_in_store(".histpc", "micro_core"),
            ".histpc/perf-log/micro_core.jsonl");
  EXPECT_EQ(PerfLog::path_in_store(".histpc", "a/b\\c"),
            ".histpc/perf-log/a-b-c.jsonl");
}

// ---------------------------------------------------------------- perf_diff

TEST(PerfDiff, MedianOf) {
  EXPECT_DOUBLE_EQ(median_of({}), 0.0);
  EXPECT_DOUBLE_EQ(median_of({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median_of({1.0, 9.0}), 5.0);
  EXPECT_DOUBLE_EQ(median_of({9.0, 1.0, 5.0}), 5.0);
  EXPECT_DOUBLE_EQ(median_of({4.0, 1.0, 3.0, 2.0}), 2.5);
}

/// Five baseline records with ~2 ms laps and slight run-to-run jitter.
std::vector<PerfRecord> baseline_window() {
  std::vector<PerfRecord> baseline;
  for (int i = 0; i < 5; ++i)
    baseline.push_back(sample_record(2e-3 * (1.0 + 0.02 * (i - 2))));
  return baseline;
}

TEST(PerfDiff, UnchangedCurrentPasses) {
  const PerfDiffReport report = perf_diff(sample_record(2e-3), baseline_window());
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_EQ(report.improvements, 0u);
  EXPECT_TRUE(report.notes.empty());  // same machine and build throughout
  // Both the mean and the histogram median are compared.
  bool saw_mean = false, saw_p50 = false;
  for (const PerfDiffEntry& e : report.entries) {
    if (e.metric == "pc.advance.mean") saw_mean = true;
    if (e.metric == "pc.advance.p50") saw_p50 = true;
    EXPECT_EQ(e.baseline_n, 5u);
  }
  EXPECT_TRUE(saw_mean);
  EXPECT_TRUE(saw_p50);
}

TEST(PerfDiff, DetectsInjectedTwoXSlowdown) {
  // The acceptance scenario: a deliberate 2x slowdown of pc.advance must
  // regress against the 5-record baseline window under default options.
  const PerfDiffReport report = perf_diff(sample_record(4e-3), baseline_window());
  EXPECT_GE(report.regressions, 1u);
  bool flagged = false;
  for (const PerfDiffEntry& e : report.entries) {
    if (e.metric != "pc.advance.mean") continue;
    flagged = e.regressed;
    EXPECT_NEAR(e.ratio, 2.0, 0.1);
    EXPECT_GT(e.current, e.median + e.band);
  }
  EXPECT_TRUE(flagged);
}

TEST(PerfDiff, DetectsSymmetricImprovement) {
  const PerfDiffReport report = perf_diff(sample_record(0.5e-3), baseline_window());
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_GE(report.improvements, 1u);
}

TEST(PerfDiff, WindowLimitsBaseline) {
  // Nine old slow records followed by five fast ones: with the default
  // window of 5 only the fast tail counts, so a fast current run is clean.
  std::vector<PerfRecord> baseline;
  for (int i = 0; i < 9; ++i) baseline.push_back(sample_record(50e-3));
  for (const PerfRecord& rec : baseline_window()) baseline.push_back(rec);
  const PerfDiffReport report = perf_diff(sample_record(2e-3), baseline);
  EXPECT_EQ(report.regressions, 0u);
  for (const PerfDiffEntry& e : report.entries) EXPECT_EQ(e.baseline_n, 5u);
}

TEST(PerfDiff, NewMetricWithoutHistoryIsSkipped) {
  PerfRecord current = sample_record(2e-3);
  current.registry.add_seconds("brand.new_timer", 1.0);
  const PerfDiffReport report = perf_diff(current, baseline_window());
  for (const PerfDiffEntry& e : report.entries)
    EXPECT_EQ(e.metric.find("brand.new_timer"), std::string::npos) << e.metric;
}

TEST(PerfDiff, NotesMachineAndBuildMismatch) {
  PerfRecord current = sample_record(2e-3);
  current.machine = "otherhost";
  current.build = "fff9999";
  const PerfDiffReport report = perf_diff(current, baseline_window());
  ASSERT_GE(report.notes.size(), 2u);
  bool machine_note = false, build_note = false;
  for (const std::string& note : report.notes) {
    if (note.find("machine") != std::string::npos) machine_note = true;
    if (note.find("build") != std::string::npos) build_note = true;
  }
  EXPECT_TRUE(machine_note);
  EXPECT_TRUE(build_note);
}

TEST(PerfDiff, EmptyBaselineYieldsNoEntries) {
  const PerfDiffReport report = perf_diff(sample_record(), {});
  EXPECT_TRUE(report.entries.empty());
  EXPECT_EQ(report.regressions, 0u);
}

TEST(PerfDiff, ReportToJsonNamesEveryField) {
  const util::Json j = perf_diff(sample_record(4e-3), baseline_window()).to_json();
  EXPECT_GT(j.at("regressions").as_int(), 0);
  ASSERT_TRUE(j.at("entries").is_array());
  const util::Json& entry = j.at("entries").as_array().front();
  for (const char* key : {"metric", "current", "median", "band", "ratio", "regressed"})
    EXPECT_TRUE(entry.as_object().find(key) != nullptr) << key;
}

}  // namespace
}  // namespace histpc::telemetry
