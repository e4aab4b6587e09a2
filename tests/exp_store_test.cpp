// Fleet-scale experiment store: binary columnar snapshots, the on-disk run
// index, JSON->binary migration (against the committed golden fixture),
// natural run-id ordering, and the N-run directive aggregators. The JSON
// schema is the round-trip oracle throughout: a record is "the same" when
// its to_json().dump() is bit-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "history/combiner.h"
#include "history/exp_snapshot.h"
#include "history/experiment.h"
#include "history/generator.h"
#include "history/similarity.h"
#include "history/store.h"
#include "scratch_dir.h"
#include "util/json.h"
#include "util/log.h"

namespace histpc::history {
namespace {

namespace fs = std::filesystem;
using pc::DirectiveSet;
using pc::NodeStatus;
using pc::Priority;

ExperimentRecord base_record() {
  ExperimentRecord r;
  r.app = "poisson";
  r.version = "A";
  r.machine = "poona01";
  r.scenario = "strong-scaling";
  r.duration = 1000.0;
  r.nranks = 4;
  r.machine_process_one_to_one = true;
  r.threshold_used = 0.20;
  r.pairs_tested = 42;
  r.resources = resources::ResourceDb::with_standard_hierarchies();
  r.resources.add_resource("/Code/oned.f/main");
  r.resources.add_resource("/Code/sweep.f/sweep1d");
  r.resources.add_resource("/Code/init.f/init");
  r.resources.add_resource("/Machine/poona01");
  r.resources.add_resource("/Process/poisson1d:1");
  r.nodes = {
      {"ExcessiveSyncWaitingTime", "</Code/sweep.f,/Machine,/Process,/SyncObject>",
       NodeStatus::True, Priority::Medium, 100.0, 0.45},
      {"CPUbound", "</Code/init.f,/Machine,/Process,/SyncObject>", NodeStatus::False,
       Priority::Medium, 120.0, 0.004},
      {"CPUbound", "</Code,/Machine,/Process,/SyncObject>", NodeStatus::True,
       Priority::Medium, 50.0, 0.35},
  };
  r.bottlenecks = {
      {"ExcessiveSyncWaitingTime", "</Code/sweep.f,/Machine,/Process,/SyncObject>", 100.0,
       0.45},
  };
  r.code_usage = {{"/Code/oned.f", 0.40},  {"/Code/oned.f/main", 0.40},
                  {"/Code/sweep.f", 0.55}, {"/Code/sweep.f/sweep1d", 0.55},
                  {"/Code/init.f", 0.002}, {"/Code/init.f/init", 0.002}};
  return r;
}

/// Variations exercising every encoder branch: empty strings, empty SoA
/// sections, legacy records without machine/scenario, odd doubles.
std::vector<ExperimentRecord> varied_records() {
  std::vector<ExperimentRecord> out;
  out.push_back(base_record());

  ExperimentRecord legacy = base_record();
  legacy.machine.clear();
  legacy.scenario.clear();
  legacy.run_id = "legacy_7";
  out.push_back(legacy);

  ExperimentRecord empty;
  empty.app = "bare";
  empty.version = "";
  empty.resources = resources::ResourceDb::with_standard_hierarchies();
  out.push_back(empty);

  ExperimentRecord odd = base_record();
  odd.duration = 0.1 + 0.2;  // not exactly representable: bit-exact f64 matters
  odd.threshold_used = 1e-300;
  odd.pairs_tested = 1ull << 40;
  odd.nodes.push_back({"ExcessiveIOBlockingTime", "</Code,/Machine,/Process,/SyncObject>",
                       NodeStatus::NeverRan, Priority::Low, -1.0, 0.0});
  out.push_back(odd);
  return out;
}

std::string dump(const ExperimentRecord& r) { return r.to_json().dump(2); }

/// Captures Warn+ lines for the test body and keeps ctest output clean.
class LogCapture {
 public:
  LogCapture() {
    util::set_log_sink([this](util::LogLevel level, const std::string& msg) {
      if (level >= util::LogLevel::Warn) warnings_.push_back(msg);
    });
  }
  ~LogCapture() { util::set_log_sink({}); }
  std::size_t warn_count() const { return warnings_.size(); }

 private:
  std::vector<std::string> warnings_;
};

void expect_same_directives(const DirectiveSet& a, const DirectiveSet& b) {
  EXPECT_EQ(a.prunes, b.prunes);
  EXPECT_EQ(a.pair_prunes, b.pair_prunes);
  EXPECT_EQ(a.priorities, b.priorities);
  EXPECT_EQ(a.thresholds, b.thresholds);
  EXPECT_EQ(a.maps, b.maps);
}

class ExpStoreTest : public testing::Test {
 protected:
  // The store path lies inside a per-process scratch directory and does
  // not exist until a test creates it.
  ExpStoreTest()
      : scratch_(std::string("exp_store_") +
                 testing::UnitTest::GetInstance()->current_test_info()->name()),
        dir_(scratch_.file("store")) {}

  void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream f(path, std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  testing_support::ScratchDir scratch_;
  std::string dir_;
};

// ------------------------------------------------------ binary snapshot

TEST(ExpSnapshotTest, RoundTripMatchesJsonOracleBitForBit) {
  for (const ExperimentRecord& r : varied_records()) {
    const std::string bytes = encode_experiment_record(r);
    const ExperimentRecord back = decode_experiment_record(bytes);
    EXPECT_EQ(dump(back), dump(r)) << "record " << r.app << "/" << r.run_id;
    // Deterministic encoder: same record, same bytes.
    EXPECT_EQ(encode_experiment_record(back), bytes);
  }
}

TEST(ExpSnapshotTest, EveryTruncationThrows) {
  const std::string bytes = encode_experiment_record(base_record());
  for (std::size_t n = 0; n < bytes.size(); n += 7)
    EXPECT_THROW(decode_experiment_record(std::string_view(bytes).substr(0, n)),
                 ExpSnapshotError)
        << "prefix of " << n << " bytes decoded";
}

TEST(ExpSnapshotTest, CorruptionIsDetected) {
  const std::string good = encode_experiment_record(base_record());

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_experiment_record(bad_magic), ExpSnapshotError);

  std::string bad_version = good;
  bad_version[8] = static_cast<char>(0x7f);
  EXPECT_THROW(decode_experiment_record(bad_version), ExpSnapshotError);

  // A payload bit-flip must trip the CRC trailer even when the field
  // itself would still parse.
  std::string flipped = good;
  flipped[good.size() / 2] ^= 0x01;
  EXPECT_THROW(decode_experiment_record(flipped), ExpSnapshotError);

  EXPECT_THROW(decode_experiment_record(good + "tail"), ExpSnapshotError);
}

// ------------------------------------------------- golden JSON migration

TEST_F(ExpStoreTest, GoldenJsonFixtureMigratesBitIdentically) {
  // The committed fixture is a legacy record: written before the binary
  // format (or machine/scenario) existed. Dropping it into a store
  // directory must load, migrate to binary, and survive the binary round
  // trip without changing a single JSON byte of the record.
  const std::string golden = std::string(HISTPC_TEST_DATA_DIR) + "/golden_record.json";
  fs::create_directories(dir_);
  fs::copy_file(golden, dir_ + "/poisson_A_3.json");

  const ExperimentRecord oracle =
      ExperimentRecord::from_json(util::Json::parse(util::read_file(golden)));
  EXPECT_EQ(oracle.machine, "");  // legacy defaults exercised
  EXPECT_EQ(oracle.scenario, "");

  ExperimentStore store(dir_);
  auto via_json = store.load("poisson_A_3");
  ASSERT_TRUE(via_json.has_value());
  EXPECT_EQ(dump(*via_json), dump(oracle));

  // load() migrated: the binary file now exists and a fresh instance
  // (cold index) answers from it, bit-identically.
  ASSERT_TRUE(fs::exists(dir_ + "/poisson_A_3.histexp"));
  ExperimentStore fresh(dir_);
  auto via_binary = fresh.load("poisson_A_3");
  ASSERT_TRUE(via_binary.has_value());
  EXPECT_EQ(dump(*via_binary), dump(oracle));

  // The DirectiveSet harvested through the binary path matches the JSON
  // oracle field for field — the acceptance bar for migration.
  GeneratorOptions opts;
  opts.thresholds = true;
  const DirectiveGenerator gen(opts);
  expect_same_directives(gen.from_record(*via_binary), gen.from_record(oracle));
}

TEST_F(ExpStoreTest, MigrateAllConvertsEveryLegacyRecord) {
  fs::create_directories(dir_);
  for (int i = 1; i <= 3; ++i) {
    ExperimentRecord r = base_record();
    r.run_id = "poisson_A_" + std::to_string(i);
    write_file(dir_ + "/" + r.run_id + ".json", r.to_json().dump(2));
  }
  write_file(dir_ + "/broken.json", "{not json");

  ExperimentStore store(dir_);
  LogCapture logs;
  EXPECT_EQ(store.migrate_all(), 3u);
  for (int i = 1; i <= 3; ++i)
    EXPECT_TRUE(fs::exists(dir_ + "/poisson_A_" + std::to_string(i) + ".histexp"));
  EXPECT_FALSE(fs::exists(dir_ + "/broken.histexp"));
  // Second pass: nothing left to migrate.
  EXPECT_EQ(ExperimentStore(dir_).migrate_all(), 0u);
}

// ------------------------------------------------------------- the index

TEST_F(ExpStoreTest, SummariesAnswerWithoutLoadingRecords) {
  ExperimentStore store(dir_);
  ExperimentRecord r = base_record();
  store.save(r);
  r.scenario = "weak-scaling";
  store.save(r);
  r.machine = "poona02";
  store.save(r);

  EXPECT_EQ(store.summaries().size(), 3u);
  EXPECT_EQ(store.summaries({.app = "", .version = "", .machine = "", .scenario = "weak-scaling"}).size(), 2u);
  EXPECT_EQ(store.summaries({.app = "", .version = "", .machine = "poona02", .scenario = ""}).size(), 1u);
  EXPECT_EQ(store.summaries({.app = "", .version = "", .machine = "poona02", .scenario = "strong-scaling"}).size(),
            0u);

  const auto all = store.summaries();
  EXPECT_EQ(all[0].run_id, "poisson_A_1");
  EXPECT_EQ(all[0].nranks, 4);
  EXPECT_EQ(all[0].duration, 1000.0);
  EXPECT_EQ(all[0].bottlenecks, 1u);
}

TEST_F(ExpStoreTest, DeletedIndexIsRebuilt) {
  {
    ExperimentStore store(dir_);
    for (int i = 0; i < 5; ++i) store.save(base_record());
  }
  ASSERT_TRUE(fs::remove(dir_ + "/index-v1.jsonl"));

  ExperimentStore fresh(dir_);
  EXPECT_EQ(fresh.summaries().size(), 5u);
  auto latest = fresh.latest({.app = "poisson", .version = "", .machine = "", .scenario = ""});
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->run_id, "poisson_A_5");
  EXPECT_TRUE(fs::exists(dir_ + "/index-v1.jsonl"));  // heal pass rewrote it
}

TEST_F(ExpStoreTest, CorruptIndexLineIsSkippedAndCompactedAway) {
  {
    ExperimentStore store(dir_);
    store.save(base_record());
  }
  {
    std::ofstream f(dir_ + "/index-v1.jsonl", std::ios::app);
    f << "{this line is garbage\n";
  }

  std::size_t warns_during_fold = 0;
  {
    LogCapture logs;
    ExperimentStore fresh(dir_);
    EXPECT_EQ(fresh.summaries().size(), 1u);
    warns_during_fold = logs.warn_count();
  }
  EXPECT_GE(warns_during_fold, 1u);

  // The fold flagged compaction: the rewritten file parses clean.
  LogCapture quiet;
  ExperimentStore again(dir_);
  EXPECT_EQ(again.summaries().size(), 1u);
  EXPECT_EQ(quiet.warn_count(), 0u);
}

TEST_F(ExpStoreTest, StaleIndexEntryForVanishedFileIsDropped) {
  {
    ExperimentStore store(dir_);
    store.save(base_record());
    store.save(base_record());
  }
  fs::remove(dir_ + "/poisson_A_1.histexp");

  ExperimentStore fresh(dir_);
  const auto entries = fresh.summaries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].run_id, "poisson_A_2");
  EXPECT_EQ(fresh.list().size(), 1u);
}

TEST_F(ExpStoreTest, RemoveTombstonesAcrossInstances) {
  {
    ExperimentStore store(dir_);
    store.save(base_record());
    store.save(base_record());
    EXPECT_TRUE(store.remove("poisson_A_1"));
    EXPECT_FALSE(store.remove("poisson_A_1"));
    EXPECT_EQ(store.summaries().size(), 1u);
  }
  // A fresh instance folds the tombstone line, not just the cached state.
  ExperimentStore fresh(dir_);
  EXPECT_EQ(fresh.summaries().size(), 1u);
  EXPECT_FALSE(fresh.load("poisson_A_1").has_value());
}

TEST_F(ExpStoreTest, SaveUpdatesTheLiveIndex) {
  ExperimentStore store(dir_);
  EXPECT_EQ(store.summaries().size(), 0u);  // index now cached (empty)
  store.save(base_record());
  EXPECT_EQ(store.summaries().size(), 1u);  // visible without a rebuild
  auto latest = store.latest({.app = "poisson", .version = "A", .machine = "", .scenario = ""});
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->run_id, "poisson_A_1");
}

TEST_F(ExpStoreTest, IndexedLatestMatchesScanOracle) {
  ExperimentStore store(dir_);
  ExperimentRecord r = base_record();
  for (int i = 0; i < 6; ++i) store.save(r);
  r.version = "B";
  for (int i = 0; i < 3; ++i) store.save(r);

  for (const auto& [app, version] :
       std::vector<std::pair<std::string, std::string>>{
           {"poisson", "A"}, {"poisson", "B"}, {"poisson", ""}, {"", ""}, {"other", ""}}) {
    auto indexed = store.latest(app, version);
    auto scanned = store.scan_latest(app, version);
    ASSERT_EQ(indexed.has_value(), scanned.has_value()) << app << "/" << version;
    if (indexed) {
      EXPECT_EQ(indexed->run_id, scanned->run_id) << app << "/" << version;
    }
  }
}

// ------------------------------------------------- natural run-id order

TEST(RunIdOrderTest, NumericTailsCompareNumerically) {
  EXPECT_TRUE(run_id_natural_less("run_9", "run_10"));
  EXPECT_FALSE(run_id_natural_less("run_10", "run_9"));
  EXPECT_TRUE(run_id_natural_less("run_2", "run_11"));
  EXPECT_FALSE(run_id_natural_less("run_3", "run_3"));
  // Different heads or non-numeric tails: plain lexicographic.
  EXPECT_TRUE(run_id_natural_less("alpha_2", "beta_1"));
  EXPECT_TRUE(run_id_natural_less("run_final", "run_last"));
}

TEST_F(ExpStoreTest, ListAndLatestSurviveNumericRollover) {
  ExperimentStore store(dir_);
  std::vector<std::string> ids;
  for (int i = 0; i < 13; ++i) ids.push_back(store.save(base_record()));
  ASSERT_EQ(ids.back(), "poisson_A_13");

  // list() must return 1..13 in numeric order: _9 before _10, not after _1.
  const auto listed = store.list();
  ASSERT_EQ(listed.size(), 13u);
  for (int i = 0; i < 13; ++i)
    EXPECT_EQ(listed[static_cast<std::size_t>(i)],
              "poisson_A_" + std::to_string(i + 1));

  auto latest = store.latest("poisson", "A");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->run_id, "poisson_A_13");  // not poisson_A_9

  // Same ordering through the filtered (index-backed) listing and after a
  // cold restart.
  EXPECT_EQ(store.list("poisson", "A"), listed);
  ExperimentStore fresh(dir_);
  EXPECT_EQ(fresh.list(), listed);
}

// --------------------------------------------------- N-run aggregation

DirectiveSet directives_for(std::initializer_list<std::pair<const char*, Priority>> pairs) {
  DirectiveSet s;
  for (const auto& [focus, prio] : pairs)
    s.priorities.push_back({"CPUbound", focus, prio});
  return s;
}

TEST(CombineRunsTest, NEqualsTwoMatchesPairwiseCombine) {
  // Pairs high/low/mixed/one-sided, plus prunes, thresholds and maps on
  // both sides — every field the paper's pairwise A ∩ B / A ∪ B touches.
  // The expected sets are the pairwise results for these inputs, written
  // out, so N = 2 stays pinned to the paper's operators.
  DirectiveSet a = directives_for({{"<f1>", Priority::High},
                                   {"<f2>", Priority::Low},
                                   {"<f3>", Priority::High},
                                   {"<f4>", Priority::Low}});
  a.prunes = {{"*", "/SyncObject"}, {"CPUbound", "/Code/init.f"}};
  a.pair_prunes = {{"CPUbound", "<f9>"}};
  a.thresholds = {{"CPUbound", 0.10}, {"*", 0.15}};
  a.maps = {{"/Code/oned.f", "/Code/onednb.f"}};

  DirectiveSet b = directives_for({{"<f1>", Priority::High},
                                   {"<f2>", Priority::High},
                                   {"<f3>", Priority::Low},
                                   {"<f5>", Priority::High}});
  b.prunes = {{"*", "/SyncObject"}, {"IObound", "/Code"}};
  b.thresholds = {{"CPUbound", 0.25}};
  b.maps = {{"/Code/a.f", "/Code/b.f"}};

  DirectiveSet inter;
  inter.prunes = {{"*", "/SyncObject"}, {"CPUbound", "/Code/init.f"}, {"IObound", "/Code"}};
  inter.thresholds = {{"CPUbound", 0.25}, {"*", 0.15}};  // conflict resolved to the max
  inter.maps = {{"/Code/oned.f", "/Code/onednb.f"}, {"/Code/a.f", "/Code/b.f"}};
  inter.priorities = {{"CPUbound", "<f1>", Priority::High}};  // pair prunes dropped
  DirectiveSet uni = inter;
  uni.priorities = {{"CPUbound", "<f1>", Priority::High},
                    {"CPUbound", "<f2>", Priority::High},
                    {"CPUbound", "<f3>", Priority::High},
                    {"CPUbound", "<f4>", Priority::Low},
                    {"CPUbound", "<f5>", Priority::High}};

  util::set_log_sink([](util::LogLevel, const std::string&) {});  // threshold conflict
  expect_same_directives(combine_runs({a, b}, CombineMode::Intersection), inter);
  expect_same_directives(combine_runs({a, b}, CombineMode::Union), uni);
  // Swapping the inputs changes only the order of the maps.
  std::swap(inter.maps[0], inter.maps[1]);
  std::swap(uni.maps[0], uni.maps[1]);
  expect_same_directives(combine_runs({b, a}, CombineMode::Intersection), inter);
  expect_same_directives(combine_runs({b, a}, CombineMode::Union), uni);
  util::set_log_sink({});
}

TEST(CombineRunsTest, ARunListingAPairTwiceVotesOnce) {
  // Run A names <f1> High twice and <f2> Low twice; run B names neither.
  // Intersection needs every run, so neither pair survives; union keeps
  // each at its level, once.
  const DirectiveSet a = directives_for({{"<f1>", Priority::High},
                                         {"<f1>", Priority::High},
                                         {"<f2>", Priority::Low},
                                         {"<f2>", Priority::Low}});
  const DirectiveSet b;
  EXPECT_TRUE(combine_runs({a, b}, CombineMode::Intersection).priorities.empty());
  EXPECT_TRUE(combine_runs({b, a}, CombineMode::Intersection).priorities.empty());
  const DirectiveSet uni = combine_runs({a, b}, CombineMode::Union);
  ASSERT_EQ(uni.priorities.size(), 2u);
  EXPECT_EQ(uni.priorities[0].priority, Priority::High);
  EXPECT_EQ(uni.priorities[1].priority, Priority::Low);
}

TEST(CombineRunsTest, IntersectionRequiresAllRunsUnionAnyRun) {
  const DirectiveSet s1 = directives_for({{"<f1>", Priority::High}, {"<f2>", Priority::Low}});
  const DirectiveSet s2 = directives_for({{"<f1>", Priority::High}, {"<f2>", Priority::Low}});
  const DirectiveSet s3 = directives_for({{"<f1>", Priority::High}, {"<f2>", Priority::High}});

  const DirectiveSet inter = combine_runs({s1, s2, s3}, CombineMode::Intersection);
  ASSERT_EQ(inter.priorities.size(), 1u);  // <f2> disagreed; <f1> high everywhere
  EXPECT_EQ(inter.priorities[0].focus, "<f1>");
  EXPECT_EQ(inter.priorities[0].priority, Priority::High);

  const DirectiveSet uni = combine_runs({s1, s2, s3}, CombineMode::Union);
  ASSERT_EQ(uni.priorities.size(), 2u);  // <f2> high in one run -> high
  EXPECT_EQ(uni.priorities[1].priority, Priority::High);
}

TEST(CombineWeightedTest, DeterministicAndSortedOutput) {
  DirectiveSet a = directives_for({{"<f2>", Priority::High}, {"<f1>", Priority::High}});
  a.prunes = {{"CPUbound", "/Code/z"}, {"*", "/SyncObject"}};
  DirectiveSet b = directives_for({{"<f3>", Priority::Low}, {"<f1>", Priority::High}});
  b.prunes = {{"*", "/SyncObject"}};

  const DirectiveSet once = combine_weighted({a, b});
  const DirectiveSet twice = combine_weighted({a, b});
  expect_same_directives(once, twice);
  for (std::size_t i = 1; i < once.priorities.size(); ++i)
    EXPECT_LE(once.priorities[i - 1].focus, once.priorities[i].focus);
}

TEST(CombineWeightedTest, RecentRunsOutvoteAncientOnes) {
  // Three old runs say <f1> is Low; the newest says High. With a short
  // half-life the newest run's weight (1.0) beats the decayed 0.875 of the
  // old trio, so the pair stays High. Pure frequency voting (no decay)
  // would flip it Low.
  const DirectiveSet old_low = directives_for({{"<f1>", Priority::Low}});
  const DirectiveSet new_high = directives_for({{"<f1>", Priority::High}});
  const std::vector<DirectiveSet> sets = {old_low, old_low, old_low, new_high};

  WeightedCombineOptions fast_decay;
  fast_decay.half_life_runs = 1.0;
  const DirectiveSet recency = combine_weighted(sets, fast_decay);
  ASSERT_EQ(recency.priorities.size(), 1u);
  EXPECT_EQ(recency.priorities[0].priority, Priority::High);

  WeightedCombineOptions no_decay;
  no_decay.half_life_runs = 0.0;
  const DirectiveSet frequency = combine_weighted(sets, no_decay);
  ASSERT_EQ(frequency.priorities.size(), 1u);
  EXPECT_EQ(frequency.priorities[0].priority, Priority::Low);
}

TEST(CombineWeightedTest, LoneAncientPruneIsDropped) {
  DirectiveSet ancient;
  ancient.prunes = {{"CPUbound", "/Code/init.f"}};
  DirectiveSet recent1, recent2;

  WeightedCombineOptions opts;
  opts.half_life_runs = 1.0;  // ancient weight 0.25 vs total 1.75
  const DirectiveSet out = combine_weighted({ancient, recent1, recent2}, opts);
  EXPECT_TRUE(out.prunes.empty());

  // The same prune proposed by the newest run survives.
  const DirectiveSet out2 = combine_weighted({recent1, recent2, ancient}, opts);
  ASSERT_EQ(out2.prunes.size(), 1u);
}

TEST(CombineWeightedTest, GeneratorWeightedPathAgreesWithManualPipeline) {
  // from_records_weighted must be exactly: harvest each record, then
  // combine_weighted — no hidden pooling.
  ExperimentRecord r1 = base_record();
  ExperimentRecord r2 = base_record();
  r2.nodes[1].status = NodeStatus::True;  // diverge the harvests

  const DirectiveGenerator gen;
  std::vector<DirectiveSet> sets = {gen.from_record(r1), gen.from_record(r2)};
  expect_same_directives(gen.from_records_weighted({r1, r2}), combine_weighted(sets));
}

// ------------------------------------------------------- run similarity

TEST(SimilarityTest, ScoresAreBoundedAndAppGated) {
  const ExperimentRecord ref = base_record();
  EXPECT_DOUBLE_EQ(run_similarity(ref, ref), 1.0);

  ExperimentRecord other_app = base_record();
  other_app.app = "fft";
  EXPECT_DOUBLE_EQ(run_similarity(ref, other_app), 0.0);

  ExperimentRecord drifted = base_record();
  drifted.version = "B";
  drifted.machine = "other-host";
  const double s = run_similarity(ref, drifted);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

TEST(SimilarityTest, SelectionIsDeterministicAndOldestFirst) {
  const ExperimentRecord ref = base_record();
  std::vector<ExperimentRecord> candidates;
  for (int i = 1; i <= 4; ++i) {
    ExperimentRecord c = base_record();
    c.run_id = "poisson_A_" + std::to_string(i);
    candidates.push_back(c);
  }
  ExperimentRecord foreign = base_record();
  foreign.app = "fft";
  foreign.run_id = "fft_A_1";
  candidates.push_back(foreign);

  const auto picked = select_similar_runs(candidates, ref, 3, 0.25);
  ASSERT_EQ(picked.size(), 3u);
  // Identical scores: ties break toward the smaller run_id, and the final
  // order is oldest-first for the weighted combiner.
  EXPECT_EQ(picked[0].run_id, "poisson_A_1");
  EXPECT_EQ(picked[1].run_id, "poisson_A_2");
  EXPECT_EQ(picked[2].run_id, "poisson_A_3");
  for (const auto& p : picked) EXPECT_DOUBLE_EQ(p.similarity, 1.0);

  // The foreign app scored 0 and can never clear min_similarity.
  const auto all = select_similar_runs(candidates, ref, 99, 0.0);
  for (const auto& p : all) EXPECT_NE(p.run_id, "fft_A_1");
}

// -------------------------------------------------- concurrent readers
//
// `histpc serve` points many worker threads at one ExperimentStore. These
// run under the tsan preset (see CMakePresets.json's test filter): a data
// race in the shared_mutex discipline fails the job even when the
// assertions below happen to pass.

class ExpStoreConcurrency : public ExpStoreTest {};

TEST_F(ExpStoreConcurrency, ParallelReadersMatchTheSerialOracle) {
  ExperimentStore store(dir_);
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    ExperimentRecord r = base_record();
    r.version = i % 2 ? "A" : "B";
    ids.push_back(store.save(r));
  }
  const auto oracle_summaries = store.summaries();
  const auto oracle_latest = store.latest("poisson", "A");
  ASSERT_TRUE(oracle_latest.has_value());

  // A fresh instance so the first readers also race on index build.
  ExperimentStore shared(dir_);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 20; ++iter) {
        if (shared.summaries().size() != oracle_summaries.size()) ++failures;
        const auto rec = shared.try_load(ids[(t + iter) % ids.size()]);
        if (!rec.has_value()) ++failures;
        const auto latest = shared.latest("poisson", "A");
        if (!latest.has_value() || latest->run_id != oracle_latest->run_id) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ExpStoreConcurrency, ConcurrentLazyMigrationIsRaceFree) {
  // Legacy JSON records migrate to binary on first read; many threads
  // hitting the same cold records must each get the full record and leave
  // one coherent index behind.
  fs::create_directories(dir_);
  std::vector<std::string> ids;
  for (int i = 1; i <= 6; ++i) {
    ExperimentRecord r = base_record();
    r.run_id = "poisson_A_" + std::to_string(i);
    write_file(dir_ + "/" + r.run_id + ".json", r.to_json().dump(2));
    ids.push_back(r.run_id);
  }

  ExperimentStore store(dir_);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto rec = store.try_load(ids[(t + i) % ids.size()]);
        if (!rec.has_value() || rec->app != "poisson") ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (const auto& id : ids) EXPECT_TRUE(fs::exists(dir_ + "/" + id + ".histexp"));
  // A cold instance sees every migrated record through the index.
  EXPECT_EQ(ExperimentStore(dir_).summaries().size(), ids.size());
}

TEST_F(ExpStoreConcurrency, ParallelMigrateAllIsDeterministic) {
  // migrate_all(jobs) parallelizes the parse/encode, then folds
  // sequentially in sorted order: count and resulting index must be
  // identical for every thread count.
  for (const int jobs : {1, 2, 4}) {
    const std::string dir = dir_ + "_jobs" + std::to_string(jobs);
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (int i = 1; i <= 5; ++i) {
      ExperimentRecord r = base_record();
      r.run_id = "poisson_A_" + std::to_string(i);
      write_file(dir + "/" + r.run_id + ".json", r.to_json().dump(2));
    }
    write_file(dir + "/broken.json", "{not json");

    LogCapture logs;
    ExperimentStore store(dir);
    EXPECT_EQ(store.migrate_all(jobs), 5u) << "jobs=" << jobs;
    EXPECT_EQ(store.summaries().size(), 5u) << "jobs=" << jobs;
    EXPECT_EQ(ExperimentStore(dir).migrate_all(jobs), 0u) << "jobs=" << jobs;
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace histpc::history
