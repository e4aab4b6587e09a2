#include <gtest/gtest.h>

#include "core/session.h"
#include "core/variant_runner.h"

namespace histpc::core {
namespace {

apps::AppParams quick(double duration = 200.0) {
  apps::AppParams p;
  p.target_duration = duration;
  return p;
}

TEST(Session, AppConstructorRunsTheApplication) {
  DiagnosisSession s("tester", quick(60.0));
  EXPECT_EQ(s.app_name(), "tester");
  EXPECT_EQ(s.trace().num_ranks(), 4);
  EXPECT_GT(s.trace().duration, 30.0);
  EXPECT_TRUE(s.view().resources().contains("/Process/Tester:1"));
}

TEST(Session, UnknownAppThrows) {
  EXPECT_THROW(DiagnosisSession("not-an-app", quick()), std::invalid_argument);
}

TEST(Session, LastShgPopulatedByDiagnose) {
  DiagnosisSession s("bubba", quick());
  EXPECT_TRUE(s.last_shg().empty());
  s.diagnose();
  EXPECT_NE(s.last_shg().find("TopLevelHypothesis"), std::string::npos);
}

TEST(Session, ConfigMutationAffectsNextDiagnosis) {
  DiagnosisSession s("poisson_c", quick(400.0));
  const pc::DiagnosisResult normal = s.diagnose();
  s.config().threshold_override = 0.95;
  const pc::DiagnosisResult strict = s.diagnose();
  EXPECT_GT(normal.stats.bottlenecks, 0u);
  EXPECT_EQ(strict.stats.bottlenecks, 0u);
}

TEST(Session, RepeatedDiagnosesAreIndependent) {
  DiagnosisSession s("poisson_c", quick(400.0));
  const pc::DiagnosisResult a = s.diagnose();
  const pc::DiagnosisResult b = s.diagnose();
  EXPECT_EQ(a.stats.pairs_tested, b.stats.pairs_tested);
  EXPECT_EQ(a.stats.bottlenecks, b.stats.bottlenecks);
  // phase_seconds is this diagnosis's own cost, not the session's total.
  EXPECT_LT(b.telemetry.phase_seconds.at("pc.advance"), s.registry().timer("pc.advance").seconds);
}

TEST(Session, MakeRecordStripsVersionSuffixFromAppFamily) {
  DiagnosisSession s("poisson_c", quick(300.0));
  const auto record = s.make_record(s.diagnose(), "C");
  EXPECT_EQ(record.app, "poisson");
  EXPECT_EQ(record.version, "C");
  EXPECT_EQ(record.nranks, 4);
  EXPECT_DOUBLE_EQ(record.duration, s.trace().duration);
  EXPECT_TRUE(record.machine_process_one_to_one);
  EXPECT_FALSE(record.code_usage.empty());
}

TEST(Session, TraceConstructorUsesGivenName) {
  apps::AppParams p = quick(100.0);
  DiagnosisSession s(apps::run_app("ocean", p), pc::PcConfig{}, "oceanic");
  EXPECT_EQ(s.app_name(), "oceanic");
  const auto record = s.make_record(s.diagnose(), "1");
  EXPECT_EQ(record.app, "oceanic");
}

// --------------------------------------------------------- variant runner

TEST(VariantRunner, Table1VariantsCoverThePaperConfigurations) {
  DiagnosisSession s("poisson_c", quick(400.0));
  const auto record = s.make_record(s.diagnose(), "C");
  const auto variants = table1_variants(record);
  ASSERT_EQ(variants.size(), 6u);
  EXPECT_EQ(variants[0].name, "No Directives");
  EXPECT_TRUE(variants[0].directives.empty());
  EXPECT_EQ(variants[5].name, "Priorities & All Prunes");
  EXPECT_FALSE(variants[5].directives.empty());
  // Every directive-driven variant carries a distinct directive set name.
  for (std::size_t i = 1; i < variants.size(); ++i)
    for (std::size_t j = i + 1; j < variants.size(); ++j)
      EXPECT_NE(variants[i].name, variants[j].name);
}

TEST(VariantRunner, OutcomesDeterministicAcrossThreadCounts) {
  DiagnosisSession s("poisson_c", quick(400.0));
  const auto record = s.make_record(s.diagnose(), "C");
  const auto variants = table1_variants(record);

  const VariantRunReport seq = run_variants(s.view(), variants, /*threads=*/1);
  const VariantRunReport par = run_variants(s.view(), variants, /*threads=*/4);
  EXPECT_EQ(seq.threads, 1);
  EXPECT_EQ(par.threads, 4);

  // Same outcomes in input order regardless of which thread ran what.
  ASSERT_EQ(seq.outcomes.size(), variants.size());
  ASSERT_EQ(par.outcomes.size(), variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_EQ(seq.outcomes[i].name, variants[i].name);
    EXPECT_EQ(par.outcomes[i].name, variants[i].name);
    const auto& a = seq.outcomes[i].result;
    const auto& b = par.outcomes[i].result;
    EXPECT_EQ(a.stats.pairs_tested, b.stats.pairs_tested) << variants[i].name;
    EXPECT_EQ(a.stats.bottlenecks, b.stats.bottlenecks) << variants[i].name;
    EXPECT_DOUBLE_EQ(a.stats.end_time, b.stats.end_time) << variants[i].name;
    ASSERT_EQ(a.bottlenecks.size(), b.bottlenecks.size()) << variants[i].name;
    for (std::size_t k = 0; k < a.bottlenecks.size(); ++k) {
      EXPECT_EQ(a.bottlenecks[k].hypothesis, b.bottlenecks[k].hypothesis);
      EXPECT_EQ(a.bottlenecks[k].focus, b.bottlenecks[k].focus);
      EXPECT_DOUBLE_EQ(a.bottlenecks[k].t_found, b.bottlenecks[k].t_found);
    }
  }

  // The merged telemetry folds deterministically (counters are virtual-
  // time quantities; phase_seconds is wall clock and excluded).
  EXPECT_EQ(seq.combined.pairs_tested, par.combined.pairs_tested);
  EXPECT_EQ(seq.combined.conclusions_true, par.combined.conclusions_true);
  EXPECT_EQ(seq.combined.conclusions_false, par.combined.conclusions_false);
  EXPECT_EQ(seq.combined.refinements, par.combined.refinements);
  EXPECT_EQ(seq.combined.prune_hits_subtree, par.combined.prune_hits_subtree);
  EXPECT_EQ(seq.combined.prune_hits_pair, par.combined.prune_hits_pair);
  EXPECT_DOUBLE_EQ(seq.combined.peak_cost, par.combined.peak_cost);
  EXPECT_DOUBLE_EQ(seq.combined.avg_cost, par.combined.avg_cost);
}

TEST(VariantRunner, VariantErrorsPropagateByInputOrder) {
  DiagnosisSession s("bubba", quick(120.0));
  std::vector<DiagnosisVariant> variants(2);
  variants[0].name = "ok";
  variants[1].name = "broken";
  variants[1].config.tick = 0.0;  // rejected by the consultant
  EXPECT_THROW(run_variants(s.view(), variants, 2), std::invalid_argument);
}

TEST(VariantRunner, ZeroThreadsUsesHardwareConcurrency) {
  DiagnosisSession s("bubba", quick(120.0));
  std::vector<DiagnosisVariant> variants(1);
  variants[0].name = "only";
  const VariantRunReport report = run_variants(s.view(), variants, 0);
  EXPECT_GE(report.threads, 1);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].name, "only");
  EXPECT_GT(report.outcomes[0].wall_seconds, 0.0);
}

}  // namespace
}  // namespace histpc::core
