#include <gtest/gtest.h>

#include "history/analysis.h"
#include "history/combiner.h"
#include "history/compare.h"
#include "history/execution_map.h"
#include "history/exp_snapshot.h"
#include "history/experiment.h"
#include "history/generator.h"
#include "history/mapper.h"
#include "history/report.h"
#include "history/store.h"
#include "scratch_dir.h"
#include "util/log.h"

namespace histpc::history {
namespace {

using pc::DirectiveSet;
using pc::NodeStatus;
using pc::Priority;

ExperimentRecord sample_record() {
  ExperimentRecord r;
  r.app = "poisson";
  r.version = "A";
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
      {"ExcessiveIOBlockingTime", "</Code,/Machine,/Process,/SyncObject>",
       NodeStatus::NeverRan, Priority::Low, -1.0, 0.0},
  };
  r.bottlenecks = {
      {"ExcessiveSyncWaitingTime", "</Code/sweep.f,/Machine,/Process,/SyncObject>", 100.0,
       0.45},
      {"CPUbound", "</Code,/Machine,/Process,/SyncObject>", 50.0, 0.35},
  };
  r.code_usage = {{"/Code/oned.f", 0.40},      {"/Code/oned.f/main", 0.40},
                  {"/Code/sweep.f", 0.55},     {"/Code/sweep.f/sweep1d", 0.55},
                  {"/Code/init.f", 0.002},     {"/Code/init.f/init", 0.002}};
  return r;
}

// ------------------------------------------------------------- experiment

TEST(Experiment, JsonRoundTrip) {
  ExperimentRecord r = sample_record();
  r.run_id = "poisson_A_1";
  ExperimentRecord back = ExperimentRecord::from_json(
      util::Json::parse(r.to_json().dump(2)));
  EXPECT_EQ(back.app, r.app);
  EXPECT_EQ(back.version, r.version);
  EXPECT_EQ(back.run_id, r.run_id);
  EXPECT_DOUBLE_EQ(back.duration, r.duration);
  EXPECT_EQ(back.nranks, r.nranks);
  EXPECT_EQ(back.machine_process_one_to_one, true);
  EXPECT_EQ(back.pairs_tested, 42u);
  ASSERT_EQ(back.nodes.size(), r.nodes.size());
  EXPECT_EQ(back.nodes[0].status, NodeStatus::True);
  EXPECT_EQ(back.nodes[3].status, NodeStatus::NeverRan);
  EXPECT_EQ(back.nodes[3].priority, Priority::Low);
  ASSERT_EQ(back.bottlenecks.size(), 2u);
  EXPECT_DOUBLE_EQ(back.bottlenecks[0].fraction, 0.45);
  EXPECT_EQ(back.code_usage.size(), r.code_usage.size());
  EXPECT_EQ(back.resources.all_resource_names(), r.resources.all_resource_names());
}

// ------------------------------------------------------------------ store

class StoreTest : public testing::Test {
 protected:
  // The store path lies inside a per-process scratch directory and does
  // not exist until the store creates it.
  StoreTest()
      : scratch_(std::string("store_") +
                 testing::UnitTest::GetInstance()->current_test_info()->name()),
        dir_(scratch_.file("store")) {}
  testing_support::ScratchDir scratch_;
  std::string dir_;
};

TEST_F(StoreTest, SaveAssignsSequentialRunIds) {
  ExperimentStore store(dir_);
  EXPECT_EQ(store.save(sample_record()), "poisson_A_1");
  EXPECT_EQ(store.save(sample_record()), "poisson_A_2");
  ExperimentRecord b = sample_record();
  b.version = "B";
  EXPECT_EQ(store.save(b), "poisson_B_1");
  EXPECT_EQ(store.list().size(), 3u);
  EXPECT_EQ(store.list("poisson", "A").size(), 2u);
  EXPECT_EQ(store.list("poisson", "B").size(), 1u);
  EXPECT_EQ(store.list("other").size(), 0u);
}

TEST_F(StoreTest, LoadRoundTrip) {
  ExperimentStore store(dir_);
  const std::string id = store.save(sample_record());
  auto r = store.load(id);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->app, "poisson");
  EXPECT_EQ(r->run_id, id);
  EXPECT_FALSE(store.load("missing").has_value());
}

TEST_F(StoreTest, LatestUsesNumericSequence) {
  ExperimentStore store(dir_);
  for (int i = 0; i < 11; ++i) store.save(sample_record());
  auto latest = store.latest("poisson", "A");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->run_id, "poisson_A_11");  // not poisson_A_9 lexicographically
}

TEST_F(StoreTest, SaveAfterRemovalNeverReusesIds) {
  ExperimentStore store(dir_);
  store.save(sample_record());              // poisson_A_1
  store.save(sample_record());              // poisson_A_2
  EXPECT_TRUE(store.remove("poisson_A_1"));
  // A new save must not collide with the surviving poisson_A_2.
  EXPECT_EQ(store.save(sample_record()), "poisson_A_3");
  ASSERT_TRUE(store.load("poisson_A_2").has_value());
}

TEST_F(StoreTest, CorruptedRecordThrowsOnLoad) {
  ExperimentStore store(dir_);
  const std::string id = store.save(sample_record());
  util::write_file(dir_ + "/" + id + ".histexp", "HPCEXB1\nnot a snapshot");
  EXPECT_THROW(store.load(id), ExpSnapshotError);
  // Legacy JSON records fail just as loudly.
  const std::string json_id = "poisson_A_7";
  util::write_file(dir_ + "/" + json_id + ".json", "{not json");
  EXPECT_THROW(store.load(json_id), util::JsonError);
}

TEST_F(StoreTest, TruncatedRecordIsQuarantinedByLatest) {
  ExperimentStore store(dir_);
  store.save(sample_record());                          // poisson_A_1
  const std::string id2 = store.save(sample_record());  // poisson_A_2
  // Simulate a crash mid-write: chop the newest record in half.
  const std::string path = dir_ + "/" + id2 + ".histexp";
  const std::string full = util::read_file(path);
  util::write_file(path, full.substr(0, full.size() / 2));

  std::vector<std::string> warnings;
  util::set_log_sink([&](util::LogLevel level, const std::string& msg) {
    if (level == util::LogLevel::Warn) warnings.push_back(msg);
  });
  // latest() skips the damaged file instead of aborting the diagnosis...
  auto latest = store.latest("poisson", "A");
  util::set_log_sink({});
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->run_id, "poisson_A_1");
  // ...and quarantines it by logging the path.
  ASSERT_FALSE(warnings.empty());
  EXPECT_NE(warnings[0].find(path), std::string::npos) << warnings[0];
  // Naming the damaged record explicitly still fails loudly.
  EXPECT_THROW(store.load(id2), ExpSnapshotError);
}

TEST_F(StoreTest, ForeignFilesAreSkippedNotAssociated) {
  ExperimentStore store(dir_);
  util::write_file(dir_ + "/poisson_A_junk.json", "not a record");
  util::write_file(dir_ + "/notes.json", "{\"anything\": true}");
  util::set_log_sink([](util::LogLevel, const std::string&) {});
  // Numbering ignores the junk (no numeric tail) and starts at 1.
  EXPECT_EQ(store.save(sample_record()), "poisson_A_1");
  // Filtered listing and latest() associate by stored fields, so the
  // foreign files never show up as poisson runs.
  EXPECT_EQ(store.list("poisson", "A"), std::vector<std::string>{"poisson_A_1"});
  auto latest = store.latest("poisson", "A");
  util::set_log_sink({});
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->run_id, "poisson_A_1");
  // The unfiltered listing is a plain directory view and still sees them.
  EXPECT_EQ(store.list().size(), 3u);
}

TEST_F(StoreTest, UnderscoreNamesCannotCrossMatch) {
  ExperimentStore store(dir_);
  ExperimentRecord r1 = sample_record();
  r1.app = "a";
  r1.version = "b_c";
  ExperimentRecord r2 = sample_record();
  r2.app = "a_b";
  r2.version = "c";
  // Both would have produced the id prefix "a_b_c_" before escaping, and
  // prefix-based list() would have associated each with the other.
  EXPECT_EQ(store.save(r1), "a_b-c_1");
  EXPECT_EQ(store.save(r2), "a-b_c_1");
  EXPECT_EQ(store.list("a", "b_c"), std::vector<std::string>{"a_b-c_1"});
  EXPECT_EQ(store.list("a_b", "c"), std::vector<std::string>{"a-b_c_1"});
  auto latest = store.latest("a", "b_c");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->app, "a");
  EXPECT_EQ(latest->version, "b_c");

  // An app/version pair that *natively* collides with an escaped id shares
  // the filename counter (so files stay unique) but not the association.
  ExperimentRecord r3 = sample_record();
  r3.app = "a";
  r3.version = "b-c";
  EXPECT_EQ(store.save(r3), "a_b-c_2");
  EXPECT_EQ(store.list("a", "b-c"), std::vector<std::string>{"a_b-c_2"});
  EXPECT_EQ(store.list("a", "b_c"), std::vector<std::string>{"a_b-c_1"});
}

TEST_F(StoreTest, RemoveDeletesRecord) {
  ExperimentStore store(dir_);
  const std::string id = store.save(sample_record());
  EXPECT_TRUE(store.remove(id));
  EXPECT_FALSE(store.remove(id));
  EXPECT_FALSE(store.load(id).has_value());
}

// -------------------------------------------------------------- generator

TEST(Generator, GeneralPrunes) {
  GeneratorOptions opts;
  opts.historic_prunes = false;
  opts.priorities = false;
  DirectiveSet d = DirectiveGenerator(opts).from_record(sample_record());
  // SyncObject pruned from the two non-sync hypotheses + redundant machine.
  auto has_prune = [&](const std::string& hyp, const std::string& res) {
    return std::any_of(d.prunes.begin(), d.prunes.end(), [&](const auto& p) {
      return p.hypothesis == hyp && p.resource_prefix == res;
    });
  };
  EXPECT_TRUE(has_prune("CPUbound", "/SyncObject"));
  EXPECT_TRUE(has_prune("ExcessiveIOBlockingTime", "/SyncObject"));
  EXPECT_FALSE(has_prune("ExcessiveSyncWaitingTime", "/SyncObject"));
  EXPECT_TRUE(has_prune("*", "/Machine"));
  EXPECT_TRUE(d.priorities.empty());
}

TEST(Generator, MachinePruneOnlyWhenRedundant) {
  ExperimentRecord rec = sample_record();
  rec.machine_process_one_to_one = false;
  GeneratorOptions opts;
  opts.historic_prunes = false;
  DirectiveSet d = DirectiveGenerator(opts).from_record(rec);
  EXPECT_FALSE(std::any_of(d.prunes.begin(), d.prunes.end(),
                           [](const auto& p) { return p.resource_prefix == "/Machine"; }));
}

TEST(Generator, HistoricPrunesSmallCodeOnly) {
  GeneratorOptions opts;
  opts.general_prunes = false;
  opts.priorities = false;
  DirectiveSet d = DirectiveGenerator(opts).from_record(sample_record());
  // init.f is negligible (0.2% of execution); only the module root is
  // emitted, the function inside is covered.
  ASSERT_EQ(d.prunes.size(), 1u);
  EXPECT_EQ(d.prunes[0].hypothesis, "*");
  EXPECT_EQ(d.prunes[0].resource_prefix, "/Code/init.f");
}

TEST(Generator, PrioritiesFromConclusions) {
  GeneratorOptions opts;
  opts.general_prunes = false;
  opts.historic_prunes = false;
  DirectiveSet d = DirectiveGenerator(opts).from_record(sample_record());
  ASSERT_EQ(d.priorities.size(), 3u);  // 2 true -> high, 1 false -> low; NeverRan skipped
  auto prio = [&](const std::string& hyp, const std::string& focus) {
    return d.priority_of(hyp, focus);
  };
  EXPECT_EQ(prio("ExcessiveSyncWaitingTime", "</Code/sweep.f,/Machine,/Process,/SyncObject>"),
            Priority::High);
  EXPECT_EQ(prio("CPUbound", "</Code,/Machine,/Process,/SyncObject>"), Priority::High);
  EXPECT_EQ(prio("CPUbound", "</Code/init.f,/Machine,/Process,/SyncObject>"), Priority::Low);
  EXPECT_EQ(prio("ExcessiveIOBlockingTime", "</Code,/Machine,/Process,/SyncObject>"),
            Priority::Medium);
}

TEST(Generator, MultiRunPrioritiesHighBeatsLow) {
  ExperimentRecord a = sample_record();
  ExperimentRecord b = sample_record();
  // In run b, the sync pair tested false.
  b.nodes[0].status = NodeStatus::False;
  GeneratorOptions opts;
  opts.general_prunes = false;
  opts.historic_prunes = false;
  DirectiveSet d = DirectiveGenerator(opts).from_records({a, b});
  EXPECT_EQ(d.priority_of("ExcessiveSyncWaitingTime",
                          "</Code/sweep.f,/Machine,/Process,/SyncObject>"),
            Priority::High);
}

TEST(Generator, ThresholdFromSmallestSignificantFraction) {
  GeneratorOptions opts;
  opts.general_prunes = false;
  opts.historic_prunes = false;
  opts.priorities = false;
  opts.thresholds = true;
  opts.significance_floor = 0.10;
  opts.threshold_margin = 0.95;
  DirectiveSet d = DirectiveGenerator(opts).from_record(sample_record());
  // Sync fractions >= 0.10: {0.45} -> 0.4275. CPU: {0.35} -> 0.3325;
  // the 0.004 false node is below the floor and ignored.
  auto sync = d.threshold_for("ExcessiveSyncWaitingTime");
  auto cpu = d.threshold_for("CPUbound");
  ASSERT_TRUE(sync && cpu);
  EXPECT_NEAR(*sync, 0.4275, 1e-9);
  EXPECT_NEAR(*cpu, 0.3325, 1e-9);
  EXPECT_FALSE(d.threshold_for("ExcessiveIOBlockingTime").has_value());
}

TEST(Generator, EmptyRecordListYieldsNothing) {
  EXPECT_TRUE(DirectiveGenerator().from_records({}).empty());
}

// ----------------------------------------------------------------- mapper

TEST(Mapper, PositionalMachineAndProcessMapping) {
  resources::ResourceDb a = resources::ResourceDb::with_standard_hierarchies();
  resources::ResourceDb b = resources::ResourceDb::with_standard_hierarchies();
  for (int i = 1; i <= 4; ++i) {
    a.add_resource("/Machine/poona0" + std::to_string(i));
    b.add_resource("/Machine/poona1" + std::to_string(i));
    a.add_resource("/Process/app:" + std::to_string(i));
    b.add_resource("/Process/app:" + std::to_string(i));  // identical: no map
  }
  auto maps = suggest_mappings(a, b);
  ASSERT_EQ(maps.size(), 4u);
  EXPECT_EQ(maps[0].from, "/Machine/poona01");
  EXPECT_EQ(maps[0].to, "/Machine/poona11");
}

TEST(Mapper, CodeSimilarityMapping) {
  // The paper's Figure 3 scenario: version A vs version B names.
  resources::ResourceDb a = resources::ResourceDb::with_standard_hierarchies();
  resources::ResourceDb b = resources::ResourceDb::with_standard_hierarchies();
  for (const char* r : {"/Code/oned.f/main", "/Code/sweep.f/sweep1d",
                        "/Code/exchng1.f/exchng1", "/Code/diff.f/diff"})
    a.add_resource(r);
  for (const char* r : {"/Code/onednb.f/main", "/Code/nbsweep.f/nbsweep",
                        "/Code/nbexchng.f/nbexchng1", "/Code/diff.f/diff"})
    b.add_resource(r);
  auto maps = suggest_mappings(a, b);
  auto mapped_to = [&](const std::string& from) -> std::string {
    for (const auto& m : maps)
      if (m.from == from) return m.to;
    return "";
  };
  EXPECT_EQ(mapped_to("/Code/oned.f"), "/Code/onednb.f");
  EXPECT_EQ(mapped_to("/Code/sweep.f"), "/Code/nbsweep.f");
  EXPECT_EQ(mapped_to("/Code/exchng1.f"), "/Code/nbexchng.f");
  // Shared module needs no mapping.
  EXPECT_EQ(mapped_to("/Code/diff.f"), "");
  // Function-level mappings resolve too.
  EXPECT_EQ(mapped_to("/Code/exchng1.f/exchng1"), "/Code/nbexchng.f/nbexchng1");
}

TEST(Mapper, SimilarityCutoffDropsDissimilar) {
  resources::ResourceDb a = resources::ResourceDb::with_standard_hierarchies();
  resources::ResourceDb b = resources::ResourceDb::with_standard_hierarchies();
  a.add_resource("/Code/alpha.c");
  b.add_resource("/Code/zzzzzz.c");
  MapperOptions opts;
  opts.min_similarity = 0.6;
  EXPECT_TRUE(suggest_mappings(a, b, opts).empty());
}

// ---------------------------------------------------------- execution map

TEST(ExecutionMap, TagsResourcesByMembership) {
  resources::ResourceDb a = resources::ResourceDb::with_standard_hierarchies();
  resources::ResourceDb b = resources::ResourceDb::with_standard_hierarchies();
  a.add_resource("/Code/oned.f/main");
  a.add_resource("/Code/diff.f/diff");
  b.add_resource("/Code/onednb.f/main");
  b.add_resource("/Code/diff.f/diff");
  ExecutionMap map = build_execution_map(a, b);
  EXPECT_EQ(map.tags.at("/Code/oned.f"), "1");
  EXPECT_EQ(map.tags.at("/Code/onednb.f"), "2");
  EXPECT_EQ(map.tags.at("/Code/diff.f"), "3");
  EXPECT_EQ(map.tags.at("/Code"), "3");
  auto u1 = map.unique_to(1);
  EXPECT_EQ(u1.size(), 2u);  // oned.f and oned.f/main
  std::string rendered = map.render();
  EXPECT_NE(rendered.find("oned.f [1]"), std::string::npos);
  EXPECT_NE(rendered.find("onednb.f [2]"), std::string::npos);
  EXPECT_NE(rendered.find("diff.f [3]"), std::string::npos);
}

// --------------------------------------------------------------- combiner

DirectiveSet priorities_only(std::vector<pc::PriorityDirective> ps) {
  DirectiveSet d;
  d.priorities = std::move(ps);
  return d;
}

TEST(Combiner, IntersectionRequiresAgreement) {
  DirectiveSet a = priorities_only({{"H", "<f1>", Priority::High},
                                    {"H", "<f2>", Priority::High},
                                    {"H", "<f3>", Priority::Low}});
  DirectiveSet b = priorities_only({{"H", "<f1>", Priority::High},
                                    {"H", "<f2>", Priority::Low},
                                    {"H", "<f3>", Priority::Low}});
  DirectiveSet c = combine_runs({a, b}, CombineMode::Intersection);
  EXPECT_EQ(c.priority_of("H", "<f1>"), Priority::High);
  EXPECT_EQ(c.priority_of("H", "<f2>"), Priority::Medium);  // disagreement
  EXPECT_EQ(c.priority_of("H", "<f3>"), Priority::Low);
}

TEST(Combiner, UnionHighWinsOverLow) {
  DirectiveSet a = priorities_only({{"H", "<f1>", Priority::High},
                                    {"H", "<f2>", Priority::Low}});
  DirectiveSet b = priorities_only({{"H", "<f2>", Priority::High},
                                    {"H", "<f3>", Priority::Low}});
  DirectiveSet c = combine_runs({a, b}, CombineMode::Union);
  EXPECT_EQ(c.priority_of("H", "<f1>"), Priority::High);
  EXPECT_EQ(c.priority_of("H", "<f2>"), Priority::High);  // true in either wins
  EXPECT_EQ(c.priority_of("H", "<f3>"), Priority::Low);
}

TEST(Combiner, UnionIsASupersetOfIntersection) {
  DirectiveSet a = priorities_only({{"H", "<f1>", Priority::High},
                                    {"H", "<f2>", Priority::High},
                                    {"H", "<f4>", Priority::Low}});
  DirectiveSet b = priorities_only({{"H", "<f1>", Priority::High},
                                    {"H", "<f3>", Priority::High},
                                    {"H", "<f4>", Priority::Low}});
  DirectiveSet inter = combine_runs({a, b}, CombineMode::Intersection);
  DirectiveSet uni = combine_runs({a, b}, CombineMode::Union);
  EXPECT_GE(uni.priorities.size(), inter.priorities.size());
  for (const auto& p : inter.priorities) {
    if (p.priority != Priority::High) continue;
    EXPECT_EQ(uni.priority_of(p.hypothesis, p.focus), Priority::High);
  }
}

TEST(Combiner, DedupsPrunesAndConcatenatesMaps) {
  DirectiveSet a, b;
  a.prunes.push_back({"*", "/Machine"});
  b.prunes.push_back({"*", "/Machine"});
  a.maps.push_back({"/Machine/a", "/Machine/b"});
  DirectiveSet c = combine_runs({a, b}, CombineMode::Union);
  EXPECT_EQ(c.prunes.size(), 1u);
  EXPECT_EQ(c.maps.size(), 1u);
}

// --------------------------------------------------------------- analysis

TEST(Analysis, PrioritySimilarityMasks) {
  // Three sets patterned after Table 4.
  DirectiveSet a = priorities_only({{"H", "<common>", Priority::High},
                                    {"H", "<a-only>", Priority::High},
                                    {"H", "<ab>", Priority::High},
                                    {"H", "<low-common>", Priority::Low}});
  DirectiveSet b = priorities_only({{"H", "<common>", Priority::High},
                                    {"H", "<ab>", Priority::High},
                                    {"H", "<low-common>", Priority::Low}});
  DirectiveSet c = priorities_only({{"H", "<common>", Priority::High},
                                    {"H", "<c-only>", Priority::Low},
                                    {"H", "<low-common>", Priority::Low}});
  PrioritySimilarity sim = priority_similarity({a, b, c});
  EXPECT_EQ(sim.high.count_for(0b111), 1u);  // <common>
  EXPECT_EQ(sim.high.count_for(0b001), 1u);  // <a-only>
  EXPECT_EQ(sim.high.count_for(0b011), 1u);  // <ab>
  EXPECT_EQ(sim.high.total, 3u);
  EXPECT_EQ(sim.low.count_for(0b111), 1u);   // <low-common>
  EXPECT_EQ(sim.low.count_for(0b100), 1u);   // <c-only>
  EXPECT_EQ(sim.both.total, 5u);
}

TEST(Analysis, BottleneckOverlap) {
  std::vector<std::vector<pc::BottleneckReport>> runs(3);
  runs[0] = {{"H", "<x>", 1, 0.5}, {"H", "<y>", 2, 0.5}};
  runs[1] = {{"H", "<x>", 1, 0.5}};
  runs[2] = {{"H", "<x>", 1, 0.5}, {"H", "<z>", 3, 0.5}};
  MembershipCounts overlap = bottleneck_overlap(runs);
  EXPECT_EQ(overlap.count_for(0b111), 1u);
  EXPECT_EQ(overlap.count_for(0b001), 1u);
  EXPECT_EQ(overlap.count_for(0b100), 1u);
  EXPECT_EQ(overlap.total, 3u);
}

TEST(Analysis, MaskLabels) {
  std::vector<std::string> names{"A", "B", "C"};
  EXPECT_EQ(mask_label(0b001, names), "A only");
  EXPECT_EQ(mask_label(0b011, names), "A,B");
  EXPECT_EQ(mask_label(0b111, names), "A,B,C");
  EXPECT_EQ(mask_label(0, names), "(none)");
}

// ---------------------------------------------------------------- compare

TEST(Compare, ClassifiesResolvedAppearedAndCommon) {
  ExperimentRecord a = sample_record();
  ExperimentRecord b = sample_record();
  b.bottlenecks = {
      // The sync pair persists with a smaller fraction...
      {"ExcessiveSyncWaitingTime", "</Code/sweep.f,/Machine,/Process,/SyncObject>", 90.0,
       0.30},
      // ...the CPU whole-program pair resolved, and a new one appeared.
      {"ExcessiveIOBlockingTime", "</Code,/Machine,/Process,/SyncObject>", 40.0, 0.25},
  };
  const RunComparison cmp = compare_records(a, b);
  ASSERT_EQ(cmp.resolved.size(), 1u);
  EXPECT_EQ(cmp.resolved[0].hypothesis, "CPUbound");
  ASSERT_EQ(cmp.appeared.size(), 1u);
  EXPECT_EQ(cmp.appeared[0].hypothesis, "ExcessiveIOBlockingTime");
  ASSERT_EQ(cmp.common.size(), 1u);
  EXPECT_NEAR(cmp.common[0].delta(), -0.15, 1e-9);

  const std::string text = render_comparison(cmp, "a1", "a2");
  EXPECT_NE(text.find("resolved: 1, appeared: 1, common: 1"), std::string::npos);
  EXPECT_NE(text.find("45.0% -> 30.0% (-15.0%)"), std::string::npos);
}

TEST(Compare, MapsRunANamesIntoRunBNamespace) {
  ExperimentRecord a = sample_record();
  ExperimentRecord b = sample_record();
  // Run B renamed the module; without the map nothing matches.
  b.bottlenecks = {{"ExcessiveSyncWaitingTime",
                    "</Code/nbsweep.f,/Machine,/Process,/SyncObject>", 100.0, 0.45},
                   {"CPUbound", "</Code,/Machine,/Process,/SyncObject>", 50.0, 0.35}};
  const RunComparison unmapped = compare_records(a, b);
  EXPECT_EQ(unmapped.common.size(), 1u);  // only the whole-program CPU pair
  const RunComparison mapped =
      compare_records(a, b, {{"/Code/sweep.f", "/Code/nbsweep.f"}});
  EXPECT_EQ(mapped.common.size(), 2u);
  EXPECT_TRUE(mapped.resolved.empty());
  EXPECT_TRUE(mapped.appeared.empty());
}

// ----------------------------------------------------------------- report

TEST(Report, CoversHeadlineBottlenecksAndHarvest) {
  ExperimentRecord rec = sample_record();
  rec.run_id = "poisson_A_1";
  // A refined bottleneck so the "dominant" section has content.
  rec.bottlenecks.push_back({"ExcessiveSyncWaitingTime",
                             "</Code/sweep.f/sweep1d,/Machine,/Process/poisson1d:1,/SyncObject>",
                             120.0, 0.52});
  const std::string report = tuning_report(rec);
  EXPECT_NE(report.find("# Tuning report: poisson version A"), std::string::npos);
  EXPECT_NE(report.find("Where the time goes"), std::string::npos);
  EXPECT_NE(report.find("CPUbound: 35.0% — significant"), std::string::npos);
  EXPECT_NE(report.find("Dominant bottlenecks"), std::string::npos);
  EXPECT_NE(report.find("52.0%"), std::string::npos);
  EXPECT_NE(report.find("Hot spots by view"), std::string::npos);
  EXPECT_NE(report.find("/Code/sweep.f (ExcessiveSyncWaitingTime)"), std::string::npos);
  EXPECT_NE(report.find("Knowledge harvested"), std::string::npos);
  EXPECT_NE(report.find("priority directives"), std::string::npos);
}

TEST(Report, EmptyRecordRendersGracefully) {
  ExperimentRecord rec = sample_record();
  rec.bottlenecks.clear();
  rec.nodes.clear();
  const std::string report = tuning_report(rec);
  EXPECT_NE(report.find("(no whole-program conclusions recorded)"), std::string::npos);
  EXPECT_NE(report.find("(no refined bottlenecks"), std::string::npos);
}

TEST(Report, PlainTextMode) {
  ReportOptions opts;
  opts.markdown = false;
  const std::string report = tuning_report(sample_record(), opts);
  EXPECT_EQ(report.find("# "), std::string::npos);
  EXPECT_NE(report.find("== Tuning report"), std::string::npos);
}

TEST(Analysis, FilterPrunedDropsExcludedFoci) {
  resources::ResourceDb db = resources::ResourceDb::with_standard_hierarchies();
  db.add_resource("/Machine/n1");
  db.add_resource("/Code/a.f");
  std::vector<pc::BottleneckReport> ref = {
      {"H", "</Code,/Machine/n1,/Process,/SyncObject>", 1, 0.5},
      {"H", "</Code/a.f,/Machine,/Process,/SyncObject>", 2, 0.5},
  };
  DirectiveSet d;
  d.prunes.push_back({"*", "/Machine"});
  auto filtered = filter_pruned(ref, d, db);
  ASSERT_EQ(filtered.size(), 1u);
  EXPECT_EQ(filtered[0].focus, "</Code/a.f,/Machine,/Process,/SyncObject>");
}

}  // namespace
}  // namespace histpc::history
