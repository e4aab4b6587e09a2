// End-to-end tests of the paper's workflows: diagnose, store, harvest,
// map, re-diagnose — across runs and across code versions.
#include <gtest/gtest.h>

#include <cmath>

#include "core/session.h"
#include "history/analysis.h"
#include "history/combiner.h"
#include "history/execution_map.h"
#include "history/generator.h"
#include "history/mapper.h"
#include "history/store.h"
#include "scratch_dir.h"

namespace histpc {
namespace {

using history::DirectiveGenerator;
using history::ExperimentStore;
using pc::DiagnosisResult;
using pc::DirectiveSet;

apps::AppParams short_run(double duration = 500.0) {
  apps::AppParams p;
  p.target_duration = duration;
  return p;
}

/// Count of reference bottlenecks found by `result`.
std::size_t coverage(const DiagnosisResult& result,
                     const std::vector<pc::BottleneckReport>& reference) {
  std::size_t found = 0;
  for (const auto& ref : reference)
    for (const auto& b : result.bottlenecks)
      if (b.hypothesis == ref.hypothesis && b.focus == ref.focus) {
        ++found;
        break;
      }
  return found;
}

TEST(Integration, DirectedRunFindsBaseSetMuchFaster) {
  core::DiagnosisSession base_session("poisson_c", short_run());
  const DiagnosisResult base = base_session.diagnose();
  ASSERT_GT(base.stats.bottlenecks, 5u);

  DirectiveGenerator gen;
  DirectiveSet directives = gen.from_record(base_session.make_record(base, "C"));
  ASSERT_FALSE(directives.priorities.empty());
  ASSERT_FALSE(directives.prunes.empty());

  core::DiagnosisSession directed_session("poisson_c", short_run());
  const DiagnosisResult directed = directed_session.diagnose(directives);

  const auto reference = history::filter_pruned(base.bottlenecks, directives,
                                                directed_session.view().resources());
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(coverage(directed, reference), reference.size());

  const double t_base = base.time_to_find(reference, 100.0);
  const double t_directed = directed.time_to_find(reference, 100.0);
  EXPECT_LT(t_directed, 0.35 * t_base)
      << "directives should cut diagnosis time by well over 65%";
}

TEST(Integration, DirectedRunProducesMoreDetailedDiagnosis) {
  // The paper's a1 -> a2 observation: search directives let the second run
  // test refined pairs the first run never reached before program end.
  core::DiagnosisSession s1("poisson_c", short_run(400.0));
  const DiagnosisResult base = s1.diagnose();
  const std::size_t base_never_ran =
      std::count_if(base.nodes.begin(), base.nodes.end(), [](const auto& n) {
        return n.status == pc::NodeStatus::NeverRan;
      });
  EXPECT_GT(base_never_ran, 0u) << "the base run should be cost-limited";

  DirectiveSet directives = DirectiveGenerator().from_record(s1.make_record(base, "C"));
  core::DiagnosisSession s2("poisson_c", short_run(400.0));
  const DiagnosisResult directed = s2.diagnose(directives);
  EXPECT_GT(directed.stats.bottlenecks, base.stats.bottlenecks);
}

TEST(Integration, CrossVersionDirectivesWithMapping) {
  // Harvest from version A, map names (Figure 3), diagnose version B.
  // Long runs: the base searches must complete so the harvested directive
  // sets cover the full bottleneck space (as in the paper's setup).
  core::DiagnosisSession session_a("poisson_a", short_run(3000.0));
  const DiagnosisResult base_a = session_a.diagnose();
  const auto record_a = session_a.make_record(base_a, "A");

  core::DiagnosisSession session_b("poisson_b", short_run(3000.0));
  const DiagnosisResult base_b = session_b.diagnose();

  DirectiveSet directives = DirectiveGenerator().from_record(record_a);
  directives.maps =
      history::suggest_mappings(record_a.resources, session_b.view().resources());
  ASSERT_FALSE(directives.maps.empty());

  core::DiagnosisSession directed_session("poisson_b", short_run(3000.0));
  const DiagnosisResult directed = directed_session.diagnose(directives);

  // Reference: the clearly significant base bottlenecks not excluded by
  // pruning. Pairs measured right at the 20% threshold legitimately flap
  // across runs (the paper's 113-of-115 agreement).
  const auto reference = history::significant_bottlenecks(
      history::filter_pruned(base_b.bottlenecks, directives,
                             directed_session.view().resources()),
      0.22);
  const double t_base = base_b.time_to_find(reference, 100.0);
  const double t_directed = directed.time_to_find(reference, 100.0);
  ASSERT_FALSE(std::isinf(t_directed)) << "mapped directives must still find the set";
  EXPECT_LT(t_directed, 0.5 * t_base);
}

TEST(Integration, UnmappedCrossVersionDirectivesAreWeaker) {
  // Without mapping, version-A code foci do not resolve in version B, so
  // fewer pairs can be seeded at high priority.
  core::DiagnosisSession session_a("poisson_a", short_run());
  const auto record_a = session_a.make_record(session_a.diagnose(), "A");
  DirectiveSet unmapped = DirectiveGenerator().from_record(record_a);

  DirectiveSet mapped = unmapped;
  core::DiagnosisSession probe_b("poisson_b", short_run(150.0));
  mapped.maps = history::suggest_mappings(record_a.resources, probe_b.view().resources());

  core::DiagnosisSession run_unmapped("poisson_b", short_run());
  core::DiagnosisSession run_mapped("poisson_b", short_run());
  const DiagnosisResult r_unmapped = run_unmapped.diagnose(unmapped);
  const DiagnosisResult r_mapped = run_mapped.diagnose(mapped);
  // The mapped run starts more high-priority instrumentation and so finds
  // its first bottlenecks in the first observation window.
  EXPECT_LE(r_mapped.bottlenecks.front().t_found, r_unmapped.bottlenecks.front().t_found);
  EXPECT_GE(r_mapped.stats.bottlenecks, r_unmapped.stats.bottlenecks);
}

TEST(Integration, StoreRoundTripPreservesDirectiveQuality) {
  const testing_support::ScratchDir scratch("integration_store");
  ExperimentStore store(scratch.file("store"));

  core::DiagnosisSession s1("poisson_c", short_run());
  const DiagnosisResult base = s1.diagnose();
  const std::string run_id = store.save(s1.make_record(base, "C"));

  // A new process would reload from disk:
  auto loaded = store.load(run_id);
  ASSERT_TRUE(loaded.has_value());
  DirectiveSet from_disk = DirectiveGenerator().from_record(*loaded);
  DirectiveSet from_memory = DirectiveGenerator().from_record(s1.make_record(base, "C"));
  EXPECT_EQ(from_disk.serialize(), from_memory.serialize());
}

TEST(Integration, DirectiveTextFileDrivesDiagnosis) {
  // The paper's workflow reads directives from an input file.
  core::DiagnosisSession s1("poisson_c", short_run());
  const DiagnosisResult base = s1.diagnose();
  DirectiveSet d = DirectiveGenerator().from_record(s1.make_record(base, "C"));
  const testing_support::ScratchDir scratch("cycle_directives");
  const std::string path = scratch.file("directives.txt");
  d.save(path);
  DirectiveSet loaded = DirectiveSet::load(path);
  EXPECT_EQ(loaded, d);
  core::DiagnosisSession s2("poisson_c", short_run());
  const DiagnosisResult directed = s2.diagnose(loaded);
  EXPECT_GT(directed.stats.bottlenecks, 0u);
}

TEST(Integration, CombinedDirectivesFromTwoVersionsWork) {
  core::DiagnosisSession sa("poisson_a", short_run());
  core::DiagnosisSession sb("poisson_b", short_run());
  const auto rec_a = sa.make_record(sa.diagnose(), "A");
  const auto rec_b = sb.make_record(sb.diagnose(), "B");

  core::DiagnosisSession sc("poisson_c", short_run());
  DirectiveGenerator gen;
  DirectiveSet da = gen.from_record(rec_a);
  da.maps = history::suggest_mappings(rec_a.resources, sc.view().resources());
  da.apply_mappings();
  DirectiveSet db = gen.from_record(rec_b);
  db.maps = history::suggest_mappings(rec_b.resources, sc.view().resources());
  db.apply_mappings();

  for (auto mode : {history::CombineMode::Intersection, history::CombineMode::Union}) {
    DirectiveSet combined = history::combine_runs({da, db}, mode);
    core::DiagnosisSession run("poisson_c", short_run());
    const DiagnosisResult r = run.diagnose(combined);
    EXPECT_GT(r.stats.bottlenecks, 0u);
  }
}

TEST(Integration, ExecutionMapShowsVersionDifferences) {
  core::DiagnosisSession sa("poisson_a", short_run(100.0));
  core::DiagnosisSession sb("poisson_b", short_run(100.0));
  history::ExecutionMap map = history::build_execution_map(sa.view().resources(),
                                                           sb.view().resources());
  EXPECT_EQ(map.tags.at("/Code/oned.f"), "1");
  EXPECT_EQ(map.tags.at("/Code/onednb.f"), "2");
  EXPECT_EQ(map.tags.at("/Code/diff.f"), "3");
  EXPECT_FALSE(map.unique_to(1).empty());
  EXPECT_FALSE(map.unique_to(2).empty());
}

TEST(Integration, SessionExposesShgRendering) {
  core::DiagnosisSession s("poisson_c", short_run(200.0));
  s.diagnose();
  const std::string& shg = s.last_shg();
  EXPECT_NE(shg.find("TopLevelHypothesis"), std::string::npos);
  EXPECT_NE(shg.find("ExcessiveSyncWaitingTime"), std::string::npos);
}

TEST(Integration, ExternalTraceConstructor) {
  apps::AppParams p = short_run(120.0);
  simmpi::ExecutionTrace trace = apps::run_app("bubba", p);
  core::DiagnosisSession s(std::move(trace));
  const DiagnosisResult r = s.diagnose();
  // bubba is CPU-bound: partition.C should surface.
  EXPECT_TRUE(std::any_of(r.bottlenecks.begin(), r.bottlenecks.end(), [](const auto& b) {
    return b.hypothesis == "CPUbound" && b.focus.find("partition.C") != std::string::npos;
  }));
}

}  // namespace
}  // namespace histpc
