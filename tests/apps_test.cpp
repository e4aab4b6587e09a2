#include <gtest/gtest.h>

#include "apps/apps.h"
#include "core/session.h"
#include "metrics/trace_view.h"
#include "util/strings.h"

namespace histpc::apps {
namespace {

using metrics::MetricKind;
using metrics::TraceView;
using resources::Focus;

double fraction(const TraceView& view, MetricKind m, const std::string& part) {
  Focus f = Focus::whole_program(view.resources());
  if (!part.empty()) {
    auto comps = util::split(part, '/');
    int idx = view.resources().hierarchy_index(comps[1]);
    f = f.with_part(static_cast<std::size_t>(idx), part);
  }
  return view.fraction(m, f);
}

// ------------------------------------------------------------- registry

class EveryApp : public testing::TestWithParam<std::string> {};

TEST_P(EveryApp, BuildsSimulatesAndValidates) {
  AppParams params;
  params.target_duration = 80.0;
  simmpi::ExecutionTrace trace = run_app(GetParam(), params);
  EXPECT_NO_THROW(trace.validate());
  EXPECT_GT(trace.duration, 10.0);
  EXPECT_GT(trace.totals().cpu, 0.0);
}

TEST_P(EveryApp, IsDeterministic) {
  AppParams params;
  params.target_duration = 50.0;
  simmpi::ExecutionTrace a = run_app(GetParam(), params);
  simmpi::ExecutionTrace b = run_app(GetParam(), params);
  EXPECT_DOUBLE_EQ(a.duration, b.duration);
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  for (int r = 0; r < a.num_ranks(); ++r)
    EXPECT_EQ(a.ranks[r].intervals.size(), b.ranks[r].intervals.size());
}

INSTANTIATE_TEST_SUITE_P(All, EveryApp,
                         testing::ValuesIn(app_names()),
                         [](const auto& param_info) { return param_info.param; });

TEST(Registry, UnknownAppThrows) {
  EXPECT_THROW(build_app("nope"), std::invalid_argument);
  EXPECT_THROW(build_poisson('Z'), std::invalid_argument);
}

TEST(Registry, NodeBaseRenamesMachines) {
  AppParams p1, p2;
  p1.target_duration = p2.target_duration = 20.0;
  p1.node_base = 1;
  p2.node_base = 17;
  auto a = build_poisson('C', p1);
  auto b = build_poisson('C', p2);
  EXPECT_EQ(a.machine.node_names[0], "poona01");
  EXPECT_EQ(b.machine.node_names[0], "poona17");
}

// ------------------------------------------------------------- poisson C
// The calibration contract: version C reproduces the measured shape the
// paper reports in Section 4.2 for the 2-D decomposition on 4 nodes.

class PoissonCShape : public testing::Test {
 protected:
  static const simmpi::ExecutionTrace& trace() {
    static simmpi::ExecutionTrace t = [] {
      AppParams params;
      params.target_duration = 300.0;
      return run_app("poisson_c", params);
    }();
    return t;
  }
  static const TraceView& view() {
    static TraceView v(trace());
    return v;
  }
};

TEST_F(PoissonCShape, SyncDominatesExecution) {
  // "strongly dominated by synchronization waiting time".
  const double sync = fraction(view(), MetricKind::SyncWaitTime, "");
  EXPECT_GT(sync, 0.55);
  EXPECT_LT(sync, 0.75);
}

TEST_F(PoissonCShape, WaitConcentratedInExchng2AndMain) {
  // Paper: 45% of execution waiting in exchng2, 20% in main.
  EXPECT_NEAR(fraction(view(), MetricKind::SyncWaitTime, "/Code/exchng2.f"), 0.45, 0.05);
  EXPECT_NEAR(fraction(view(), MetricKind::SyncWaitTime, "/Code/twod.f/main"), 0.20, 0.05);
}

TEST_F(PoissonCShape, WaitSplitsAcrossThreeTags) {
  // Paper: tags 3/0, 3/1, 3/-1 carry 27%, 19%, 20%.
  EXPECT_NEAR(fraction(view(), MetricKind::SyncWaitTime, "/SyncObject/Message/3:0"), 0.27,
              0.05);
  EXPECT_NEAR(fraction(view(), MetricKind::SyncWaitTime, "/SyncObject/Message/3:1"), 0.19,
              0.05);
  EXPECT_NEAR(fraction(view(), MetricKind::SyncWaitTime, "/SyncObject/Message/3:-1"), 0.20,
              0.05);
}

TEST_F(PoissonCShape, ProcessesThreeAndFourAreWaitDominated) {
  // Paper: processes 3 and 4 wait 81% and 86%; 1 and 2 wait 46% and 47%.
  EXPECT_NEAR(fraction(view(), MetricKind::SyncWaitTime, "/Process/poisson2d:1"), 0.46, 0.06);
  EXPECT_NEAR(fraction(view(), MetricKind::SyncWaitTime, "/Process/poisson2d:2"), 0.47, 0.06);
  EXPECT_NEAR(fraction(view(), MetricKind::SyncWaitTime, "/Process/poisson2d:3"), 0.81, 0.06);
  EXPECT_NEAR(fraction(view(), MetricKind::SyncWaitTime, "/Process/poisson2d:4"), 0.86, 0.06);
}

TEST_F(PoissonCShape, IoIsNegligible) {
  EXPECT_LT(fraction(view(), MetricKind::IoWaitTime, ""), 0.02);
}

TEST_F(PoissonCShape, SmallFunctionsExistForHistoricPruning) {
  // init.f and stats.f give the directive generator something to prune.
  EXPECT_LT(fraction(view(), MetricKind::ExecTime, "/Code/init.f"), 0.01);
  EXPECT_LT(fraction(view(), MetricKind::ExecTime, "/Code/stats.f"), 0.01);
  EXPECT_TRUE(view().resources().contains("/Code/init.f/init"));
  EXPECT_TRUE(view().resources().contains("/Code/stats.f/printstats"));
}

// --------------------------------------------------------- version naming

TEST(PoissonNaming, VersionAMatchesPaperFigure3) {
  AppParams p;
  p.target_duration = 20.0;
  simmpi::ExecutionTrace trace = run_app("poisson_a", p);
  TraceView view(trace);
  for (const char* r : {"/Code/oned.f/main", "/Code/sweep.f/sweep1d",
                        "/Code/exchng1.f/exchng1", "/Code/diff.f/diff"})
    EXPECT_TRUE(view.resources().contains(r)) << r;
}

TEST(PoissonNaming, VersionBMatchesPaperFigure3) {
  AppParams p;
  p.target_duration = 20.0;
  simmpi::ExecutionTrace trace = run_app("poisson_b", p);
  TraceView view(trace);
  for (const char* r : {"/Code/onednb.f/main", "/Code/nbsweep.f/nbsweep",
                        "/Code/nbexchng.f/nbexchng1", "/Code/diff.f/diff"})
    EXPECT_TRUE(view.resources().contains(r)) << r;
}

TEST(PoissonNaming, VersionDIsVersionCCodeOnEightNodes) {
  AppParams p;
  p.target_duration = 20.0;
  auto c = build_poisson('C', p);
  auto d = build_poisson('D', p);
  EXPECT_EQ(c.num_ranks(), 4);
  EXPECT_EQ(d.num_ranks(), 8);
  // Same function table: same code.
  EXPECT_EQ(c.functions.size(), d.functions.size());
  for (std::size_t i = 0; i < c.functions.size(); ++i)
    EXPECT_EQ(c.functions[i], d.functions[i]);
}

// ------------------------------------------------------------------ ocean

TEST(Ocean, SignificantWaitsSitAboveTwentyPercent) {
  AppParams p;
  p.target_duration = 250.0;
  simmpi::ExecutionTrace trace = run_app("ocean", p);
  TraceView view(trace);
  // The dominant wait regions exceed ~21% (optimal threshold 20%) while
  // whole-program sync is clearly significant.
  const double sync = fraction(view, MetricKind::SyncWaitTime, "");
  EXPECT_GT(sync, 0.20);
  const double comm = fraction(view, MetricKind::SyncWaitTime, "/Code/comm.c");
  EXPECT_GT(comm, 0.20);
}

// ------------------------------------------------------------ tester/bubba

TEST(Tester, MatchesFigure1Resources) {
  AppParams p;
  // Long enough for the infrequent printstatus/vect::print calls to occur.
  p.target_duration = 60.0;
  simmpi::ExecutionTrace trace = run_app("tester", p);
  TraceView view(trace);
  for (const char* r :
       {"/Code/main.C/main", "/Code/main.C/printstatus", "/Code/testutil.C/verifyA",
        "/Code/testutil.C/verifyB", "/Code/vect.C/vect::addEl", "/Code/vect.C/vect::findEl",
        "/Code/vect.C/vect::print", "/Machine/CPU_1", "/Process/Tester:2"})
    EXPECT_TRUE(view.resources().contains(r)) << r;
}

TEST(TaskFarm, MasterWaitsOnResultsViaWildcards) {
  AppParams p;
  p.target_duration = 400.0;
  simmpi::ExecutionTrace trace = run_app("taskfarm", p);
  TraceView view(trace);
  // The master is wait-dominated, concentrated in collectResults on the
  // result tag; the slowest worker barely waits.
  EXPECT_GT(fraction(view, MetricKind::SyncWaitTime, "/Process/taskfarm:1"), 0.70);
  EXPECT_LT(fraction(view, MetricKind::SyncWaitTime, "/Process/taskfarm:4"), 0.30);
  EXPECT_GT(fraction(view, MetricKind::SyncWaitTime, "/Code/master.c/collectResults"), 0.15);
  EXPECT_TRUE(view.resources().contains("/SyncObject/Message/2"));
}

TEST(TaskFarm, DiagnosisFindsTheMasterBottleneck) {
  AppParams p;
  p.target_duration = 900.0;
  core::DiagnosisSession session("taskfarm", p);
  const pc::DiagnosisResult r = session.diagnose();
  EXPECT_TRUE(std::any_of(r.bottlenecks.begin(), r.bottlenecks.end(), [](const auto& b) {
    return b.hypothesis == "ExcessiveSyncWaitingTime" &&
           b.focus.find("/Code/master.c") != std::string::npos;
  }));
}

TEST(Bubba, PartitionAndGoatAreHot) {
  AppParams p;
  p.target_duration = 100.0;
  simmpi::ExecutionTrace trace = run_app("bubba", p);
  TraceView view(trace);
  EXPECT_TRUE(view.resources().contains("/Machine/goat"));
  // partition.C dominates CPU; goat does the most work.
  EXPECT_GT(fraction(view, MetricKind::CpuTime, "/Code/partition.C"), 0.20);
  EXPECT_GT(fraction(view, MetricKind::CpuTime, "/Machine/goat"),
            fraction(view, MetricKind::CpuTime, "/Machine/moose"));
  EXPECT_LT(fraction(view, MetricKind::CpuTime, "/Code/channel.C"), 0.20);
  EXPECT_LT(fraction(view, MetricKind::CpuTime, "/Code/graph.C"), 0.20);
}

}  // namespace
}  // namespace histpc::apps
