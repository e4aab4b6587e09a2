// DirectiveIndex vs the DirectiveSet scan, plus the directive-set
// robustness properties: serialize/parse round-trips, line-numbered parse
// failures, and deterministic threshold-conflict resolution in
// merge()/combine_runs().
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "history/combiner.h"
#include "pc/directive_index.h"
#include "pc/directives.h"
#include "pc/hypothesis.h"
#include "resources/focus.h"
#include "resources/focus_table.h"
#include "util/log.h"
#include "util/rng.h"

namespace histpc::pc {
namespace {

using resources::Focus;

// ------------------------------------------------------------- PrefixSet

TEST(PrefixSet, MatchesAncestorsExactAndSelf) {
  PrefixSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.contains_prefix_of("/Code/a.f"));
  set.insert("/Code/a.f");
  set.insert("/Machine");
  set.insert("/Code/a.f");  // duplicate: ignored
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains_prefix_of("/Code/a.f"));        // exact
  EXPECT_TRUE(set.contains_prefix_of("/Code/a.f/f1"));     // descendant
  EXPECT_TRUE(set.contains_prefix_of("/Machine/n1/cpu0"));  // deep descendant
  EXPECT_FALSE(set.contains_prefix_of("/Code/a.fx"));       // not a '/' boundary
  EXPECT_FALSE(set.contains_prefix_of("/Code"));            // ancestor of a stored prefix
  EXPECT_FALSE(set.contains_prefix_of("/SyncObject/sem"));
}

TEST(PrefixSet, EmptyPrefixMatchesEverySlashPath) {
  // util::is_path_prefix("", name) holds for any name starting with '/';
  // the truncation walk must descend all the way to the empty candidate.
  PrefixSet set;
  set.insert("");
  EXPECT_TRUE(set.contains_prefix_of("/Code"));
  EXPECT_TRUE(set.contains_prefix_of("/Code/a.f/f1"));
  EXPECT_FALSE(set.contains_prefix_of("Code"));  // no leading '/', no boundary
}

// --------------------------------------------- randomized set construction

/// Directive hypotheses: the wildcard, three of HypothesisSet::standard()'s,
/// and one it does not have (its directives must match nothing).
const std::vector<std::string>& hypothesis_pool() {
  static const std::vector<std::string> pool = {
      std::string(kAnyHypothesis), "CPUbound", "ExcessiveSyncWaitingTime",
      "ExcessiveIOBlockingTime",   "TotalExecutionTime"};
  return pool;
}

const std::vector<std::string>& resource_pool() {
  static const std::vector<std::string> pool = {
      "/Code",          "/Code/a.f",    "/Code/a.f/f1", "/Code/b.f",
      "/Code/b.f/main", "/Machine/n1",  "/Process/p1",  "/SyncObject/sem",
      "/Machine",       "/SyncObject/msgtag/42",        "/SyncObject"};
  return pool;
}

resources::ResourceDb make_db() {
  auto db = resources::ResourceDb::with_standard_hierarchies();
  db.add_resource("/Code/a.f/f1");
  db.add_resource("/Code/b.f/main");
  db.add_resource("/Machine/n1");
  db.add_resource("/Process/p1");
  db.add_resource("/SyncObject/sem");
  db.add_resource("/SyncObject/msgtag/42");
  return db;
}

/// Query foci spanning the interesting cases: unconstrained, one part
/// constrained at several depths, and multiple parts constrained at once.
std::vector<Focus> make_focus_pool(const resources::ResourceDb& db) {
  const Focus whole = Focus::whole_program(db);
  std::vector<Focus> pool = {whole};
  pool.push_back(whole.with_part(0, "/Code/a.f"));
  pool.push_back(whole.with_part(0, "/Code/a.f/f1"));
  pool.push_back(whole.with_part(0, "/Code/b.f/main"));
  pool.push_back(whole.with_part(1, "/Machine/n1"));
  pool.push_back(whole.with_part(2, "/Process/p1"));
  pool.push_back(whole.with_part(3, "/SyncObject/sem"));
  pool.push_back(whole.with_part(3, "/SyncObject/msgtag/42"));
  pool.push_back(
      whole.with_part(0, "/Code/a.f").with_part(3, "/SyncObject/sem"));
  pool.push_back(
      whole.with_part(0, "/Code/b.f/main").with_part(1, "/Machine/n1"));
  return pool;
}

template <typename T>
const T& pick(util::Rng& rng, const std::vector<T>& pool) {
  return pool[rng.next_below(pool.size())];
}

/// A random directive set drawing hypotheses (including "*"), resources,
/// and focus names from the shared pools. Deliberately generates duplicate
/// priority and threshold entries so the scan's tie-breaking rules (first
/// priority wins; first exact threshold wins, last wildcard is fallback)
/// are exercised, not just assumed.
DirectiveSet random_set(util::Rng& rng, const std::vector<Focus>& foci) {
  DirectiveSet set;
  const auto n_prunes = rng.next_below(6);
  for (std::uint64_t i = 0; i < n_prunes; ++i)
    set.prunes.push_back({pick(rng, hypothesis_pool()), pick(rng, resource_pool())});
  const auto n_pairs = rng.next_below(5);
  for (std::uint64_t i = 0; i < n_pairs; ++i)
    set.pair_prunes.push_back({pick(rng, hypothesis_pool()), pick(rng, foci).name()});
  const auto n_prios = rng.next_below(8);
  for (std::uint64_t i = 0; i < n_prios; ++i)
    set.priorities.push_back({pick(rng, hypothesis_pool()), pick(rng, foci).name(),
                              static_cast<Priority>(rng.next_below(3))});
  const auto n_thresholds = rng.next_below(6);
  for (std::uint64_t i = 0; i < n_thresholds; ++i)
    set.thresholds.push_back({pick(rng, hypothesis_pool()),
                              static_cast<double>(1 + rng.next_below(998)) / 1000.0});
  return set;
}

// ------------------------------------------------- scan-vs-index property

class DirectiveIndexFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(DirectiveIndexFuzz, IndexAgreesWithScanOnRandomQueries) {
  util::Rng rng(GetParam());
  const resources::ResourceDb db = make_db();
  const std::vector<Focus> foci = make_focus_pool(db);
  // The index answers for the standard hypotheses over the pool,
  // interned; the scan answers for their names and canonical focus names.
  // The queries add a focus whose SyncObject part names a resource the db
  // lacks, as a hypothesis's implicit sync scope can: a foreign part has
  // no ResourceId, so subtree prunes reach it through the PrefixSet
  // fallback instead of the cover bitmaps.
  const HypothesisSet hyps = HypothesisSet::standard();
  std::vector<Focus> queries = foci;
  queries.push_back(Focus::whole_program(db).with_part(3, "/SyncObject/Message"));
  resources::FocusTable table(db);
  std::vector<resources::FocusId> ids;
  for (const Focus& focus : queries) ids.push_back(table.intern(focus));

  for (int round = 0; round < 40; ++round) {
    const DirectiveSet set = random_set(rng, foci);
    const DirectiveIndex index(set, table, hyps);
    for (int h = 0; h < static_cast<int>(hyps.size()); ++h) {
      const std::string& name = hyps.at(h).name;
      for (std::size_t f = 0; f < queries.size(); ++f) {
        EXPECT_EQ(index.prune_match(h, ids[f]), set.prune_match(name, queries[f]))
            << "hyp=" << name << " focus=" << queries[f].name() << "\n"
            << set.serialize();
        EXPECT_EQ(index.priority_of(h, ids[f]), set.priority_of(name, queries[f].name()))
            << "hyp=" << name << " focus=" << queries[f].name() << "\n"
            << set.serialize();
      }
      EXPECT_EQ(index.threshold_for(h), set.threshold_for(name))
          << "hyp=" << name << "\n"
          << set.serialize();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectiveIndexFuzz, testing::Range<std::uint64_t>(1, 21));

TEST(DirectiveIndex, EmptySetMatchesScanDefaults) {
  const resources::ResourceDb db = make_db();
  const HypothesisSet hyps = HypothesisSet::standard();
  resources::FocusTable table(db);
  const DirectiveSet set;
  const DirectiveIndex index(set, table, hyps);
  const int cpu = *hyps.index_of("CPUbound");
  EXPECT_EQ(index.prune_match(cpu, table.whole_program()), DirectiveSet::PruneKind::None);
  EXPECT_EQ(index.priority_of(cpu, table.whole_program()), Priority::Medium);
  EXPECT_EQ(index.threshold_for(cpu), std::nullopt);
}

TEST(DirectiveIndex, SubtreeReportedOverPairWhenBothMatch) {
  // The scan checks subtree prunes before pair prunes; the index must
  // report the same kind for a pair covered by both.
  const resources::ResourceDb db = make_db();
  const HypothesisSet hyps = HypothesisSet::standard();
  resources::FocusTable table(db);
  const Focus narrowed = Focus::whole_program(db).with_part(0, "/Code/a.f/f1");
  const resources::FocusId fid = table.intern(narrowed);
  DirectiveSet set;
  set.pair_prunes.push_back({"CPUbound", narrowed.name()});
  set.prunes.push_back({"CPUbound", "/Code/a.f"});
  const DirectiveIndex index(set, table, hyps);
  EXPECT_EQ(set.prune_match("CPUbound", narrowed), DirectiveSet::PruneKind::Subtree);
  EXPECT_EQ(index.prune_match(*hyps.index_of("CPUbound"), fid),
            DirectiveSet::PruneKind::Subtree);
  // For another hypothesis neither prune applies.
  EXPECT_EQ(index.prune_match(*hyps.index_of("ExcessiveSyncWaitingTime"), fid),
            DirectiveSet::PruneKind::None);
}

// ------------------------------------------------- serialize/parse round-trip

class DirectiveRoundTrip : public testing::TestWithParam<std::uint64_t> {};

TEST_P(DirectiveRoundTrip, ParseOfSerializeReproducesTheSet) {
  util::Rng rng(GetParam());
  const resources::ResourceDb db = make_db();
  const std::vector<Focus> foci = make_focus_pool(db);
  for (int round = 0; round < 25; ++round) {
    DirectiveSet set = random_set(rng, foci);
    // Maps aren't produced by random_set; add some so every directive kind
    // round-trips. Thresholds are multiples of 1/1000, within
    // fmt_double's 4 digits, so the text form is exact.
    const auto n_maps = rng.next_below(3);
    for (std::uint64_t i = 0; i < n_maps; ++i)
      set.maps.push_back({pick(rng, resource_pool()), pick(rng, resource_pool())});
    const DirectiveSet reparsed = DirectiveSet::parse(set.serialize());
    EXPECT_EQ(reparsed, set) << set.serialize();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectiveRoundTrip, testing::Range<std::uint64_t>(1, 11));

TEST(Directives, MalformedLinesReportTheirLineNumber) {
  // The failing line's number (not just "line 1") must appear, with the
  // earlier valid lines parsed silently.
  const std::string text =
      "# comment\n"
      "prune * /Machine\n"
      "threshold CPUbound 1.5\n";
  try {
    DirectiveSet::parse(text);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
  try {
    DirectiveSet::parse("prune * /Machine\npriority A <f> sideways\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

// ------------------------------------------ threshold-conflict resolution

TEST(Directives, MergeResolvesThresholdConflictsToMaxWithWarning) {
  DirectiveSet a;
  a.thresholds.push_back({"CPUbound", 0.10});
  DirectiveSet b;
  b.thresholds.push_back({"CPUbound", 0.30});
  b.thresholds.push_back({"ExcessiveSyncWaitingTime", 0.20});

  std::vector<std::string> warnings;
  util::set_log_sink([&](util::LogLevel level, const std::string& msg) {
    if (level == util::LogLevel::Warn) warnings.push_back(msg);
  });
  a.merge(b);
  util::set_log_sink({});

  // Regardless of which input came first, the surviving value is the max.
  ASSERT_EQ(a.thresholds.size(), 2u);
  EXPECT_EQ(a.threshold_for("CPUbound"), 0.30);
  EXPECT_EQ(a.threshold_for("ExcessiveSyncWaitingTime"), 0.20);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("CPUbound"), std::string::npos) << warnings[0];
}

TEST(Directives, AgreeingDuplicateThresholdsCollapseSilently) {
  DirectiveSet set;
  set.thresholds.push_back({"CPUbound", 0.25});
  set.thresholds.push_back({"CPUbound", 0.25});
  std::vector<std::string> warnings;
  util::set_log_sink(
      [&](util::LogLevel, const std::string& msg) { warnings.push_back(msg); });
  set.resolve_threshold_conflicts();
  util::set_log_sink({});
  EXPECT_EQ(set.thresholds.size(), 1u);
  EXPECT_TRUE(warnings.empty());
}

TEST(Combiner, CombineThresholdsAreOrderIndependent) {
  DirectiveSet a;
  a.thresholds.push_back({"CPUbound", 0.10});
  a.thresholds.push_back({std::string(kAnyHypothesis), 0.05});
  DirectiveSet b;
  b.thresholds.push_back({"CPUbound", 0.40});

  util::set_log_sink([](util::LogLevel, const std::string&) {});
  const DirectiveSet ab = history::combine_runs({a, b}, history::CombineMode::Union);
  const DirectiveSet ba = history::combine_runs({b, a}, history::CombineMode::Union);
  util::set_log_sink({});

  EXPECT_EQ(ab.threshold_for("CPUbound"), 0.40);
  EXPECT_EQ(ba.threshold_for("CPUbound"), 0.40);
  EXPECT_EQ(ab.threshold_for("SomethingElse"), 0.05);  // wildcard survives
}

}  // namespace
}  // namespace histpc::pc
