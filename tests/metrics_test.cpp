#include <gtest/gtest.h>

#include "metrics/metric.h"
#include "metrics/metric_instance.h"
#include "metrics/trace_view.h"
#include "scan_window.h"
#include "simmpi/program.h"
#include "simmpi/simulator.h"

namespace histpc::metrics {
namespace {

using resources::Focus;
using simmpi::FunctionScope;
using simmpi::Recorder;

/// Two ranks; rank 0: 2s compute in kernel, then sends; rank 1: waits ~2s
/// for the message (tag 5), then 1s compute in other, then 0.5s io.
simmpi::ExecutionTrace make_trace() {
  simmpi::MachineSpec m = simmpi::MachineSpec::one_to_one(2, "node", "proc");
  simmpi::ProgramBuilder b(m);
  b.record([](Recorder& r) {
    FunctionScope fmain(r, "main", "main.c");
    if (r.rank() == 0) {
      {
        FunctionScope f(r, "kernel", "kern.c");
        r.compute(2.0);
      }
      r.send(1, 5, 100);
      {
        FunctionScope f(r, "other", "other.c");
        r.compute(1.5);
      }
    } else {
      {
        FunctionScope f(r, "waitspot", "kern.c");
        r.recv(0, 5);
      }
      {
        FunctionScope f(r, "other", "other.c");
        r.compute(1.0);
      }
      r.io(0.5);
    }
  });
  simmpi::NetworkModel net;
  net.latency = 0.0;
  net.bytes_per_second = 1e9;
  return simmpi::Simulator(net).run(b.build());
}

class TraceViewTest : public testing::Test {
 protected:
  TraceViewTest() : trace_(make_trace()), view_(trace_) {}
  simmpi::ExecutionTrace trace_;
  TraceView view_;
};

TEST(Metric, NamesRoundTrip) {
  for (MetricKind m : kAllMetrics) {
    auto back = metric_from_name(metric_name(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(metric_from_name("bogus").has_value());
}

TEST(Metric, OnlySyncSupportsSyncConstraint) {
  EXPECT_TRUE(metric_supports_sync_constraint(MetricKind::SyncWaitTime));
  EXPECT_FALSE(metric_supports_sync_constraint(MetricKind::CpuTime));
  EXPECT_FALSE(metric_supports_sync_constraint(MetricKind::IoWaitTime));
}

TEST_F(TraceViewTest, BuildsAllHierarchies) {
  const auto& db = view_.resources();
  EXPECT_TRUE(db.contains("/Code/kern.c/kernel"));
  EXPECT_TRUE(db.contains("/Code/main.c/main"));
  EXPECT_TRUE(db.contains("/Machine/node01"));
  EXPECT_TRUE(db.contains("/Machine/node02"));
  EXPECT_TRUE(db.contains("/Process/proc:1"));
  EXPECT_TRUE(db.contains("/SyncObject/Message/5"));
}

TEST_F(TraceViewTest, WholeProgramTotals) {
  const Focus whole = Focus::whole_program(view_.resources());
  // rank0: 3.5 cpu; rank1: 1 cpu + 2 sync + 0.5 io.
  EXPECT_NEAR(view_.query(MetricKind::CpuTime, whole), 4.5, 1e-9);
  EXPECT_NEAR(view_.query(MetricKind::SyncWaitTime, whole), 2.0, 1e-6);
  EXPECT_NEAR(view_.query(MetricKind::IoWaitTime, whole), 0.5, 1e-9);
  EXPECT_NEAR(view_.query(MetricKind::ExecTime, whole), 7.0, 1e-6);
}

TEST_F(TraceViewTest, CodeConstraintSelectsFunction) {
  Focus f = Focus::whole_program(view_.resources()).with_part(0, "/Code/kern.c/kernel");
  EXPECT_NEAR(view_.query(MetricKind::CpuTime, f), 2.0, 1e-9);
  // Module-level selects both functions in kern.c (kernel cpu + waitspot sync).
  Focus mod = Focus::whole_program(view_.resources()).with_part(0, "/Code/kern.c");
  EXPECT_NEAR(view_.query(MetricKind::CpuTime, mod), 2.0, 1e-9);
  EXPECT_NEAR(view_.query(MetricKind::SyncWaitTime, mod), 2.0, 1e-6);
}

TEST_F(TraceViewTest, ProcessAndMachineConstraintsAgree) {
  Focus by_proc = Focus::whole_program(view_.resources()).with_part(2, "/Process/proc:2");
  Focus by_node = Focus::whole_program(view_.resources()).with_part(1, "/Machine/node02");
  EXPECT_NEAR(view_.query(MetricKind::SyncWaitTime, by_proc),
              view_.query(MetricKind::SyncWaitTime, by_node), 1e-9);
  EXPECT_EQ(view_.compile(by_proc).num_selected_ranks, 1);
  EXPECT_EQ(view_.compile(by_node).num_selected_ranks, 1);
}

TEST_F(TraceViewTest, SyncConstrainedCpuIsZero) {
  // The wasted tests that the paper's general prunes avoid: CPU time under
  // a SyncObject constraint has no data.
  Focus f = Focus::whole_program(view_.resources()).with_part(3, "/SyncObject/Message/5");
  EXPECT_DOUBLE_EQ(view_.query(MetricKind::CpuTime, f), 0.0);
  EXPECT_DOUBLE_EQ(view_.query(MetricKind::IoWaitTime, f), 0.0);
  EXPECT_NEAR(view_.query(MetricKind::SyncWaitTime, f), 2.0, 1e-6);
}

TEST_F(TraceViewTest, UnknownResourceSelectsNothing) {
  auto f = Focus::parse("</Code/ghost.c>", view_.resources(), false);
  ASSERT_TRUE(f.has_value());
  EXPECT_DOUBLE_EQ(view_.query(MetricKind::CpuTime, *f), 0.0);
}

TEST_F(TraceViewTest, EmptyFilterDiagnosticsNameTheFailingPart) {
  // A matching filter carries no diagnostics.
  Focus good = Focus::whole_program(view_.resources()).with_part(0, "/Code/kern.c");
  EXPECT_TRUE(view_.compile(good).diagnostics.empty());
  // Parts naming resources this trace never created (e.g. directives
  // mapped from another execution) say what failed against what.
  auto ghost = Focus::parse("</Code/ghost.c>", view_.resources(), false);
  ASSERT_TRUE(ghost.has_value());
  const auto code_diag = view_.compile(*ghost).diagnostics;
  ASSERT_EQ(code_diag.size(), 1u);
  EXPECT_EQ(code_diag[0], "part '/Code/ghost.c' matched no recorded function in hierarchy 'Code'");

  auto multi = Focus::parse("</Code/ghost.c,/Machine/node99,/Process/proc:9>",
                            view_.resources(), false);
  ASSERT_TRUE(multi.has_value());
  const auto diags = view_.compile(*multi).diagnostics;
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[1], "part '/Machine/node99' matched no node in hierarchy 'Machine'");
  EXPECT_EQ(diags[2], "part '/Process/proc:9' matched no process in hierarchy 'Process'");

  auto sync = Focus::parse("</SyncObject/Message/42>", view_.resources(), false);
  ASSERT_TRUE(sync.has_value());
  const auto sync_diag = view_.compile(*sync).diagnostics;
  ASSERT_EQ(sync_diag.size(), 1u);
  EXPECT_EQ(sync_diag[0],
            "part '/SyncObject/Message/42' matched no synchronization object in hierarchy "
            "'SyncObject'");
}

TEST_F(TraceViewTest, FractionNormalizesPerSelectedRank) {
  Focus f = Focus::whole_program(view_.resources()).with_part(2, "/Process/proc:2");
  // Rank 1 waits 2s of 3.5s program (its own end time is 3.5).
  const double frac = view_.fraction(MetricKind::SyncWaitTime, f);
  EXPECT_NEAR(frac, 2.0 / trace_.duration, 1e-6);
  // Whole-program normalizes by both ranks.
  const Focus whole = Focus::whole_program(view_.resources());
  EXPECT_NEAR(view_.fraction(MetricKind::SyncWaitTime, whole), 2.0 / (2 * trace_.duration),
              1e-6);
}

TEST_F(TraceViewTest, FractionOfEmptyWindowIsZero) {
  const Focus whole = Focus::whole_program(view_.resources());
  EXPECT_DOUBLE_EQ(
      scan_window(view_, MetricKind::CpuTime, view_.compiled(whole), 1.0, 1.0).fraction(), 0.0);
}

TEST_F(TraceViewTest, WindowQueriesClipIntervals) {
  const FocusFilter& f = view_.compiled(
      Focus::whole_program(view_.resources()).with_part(0, "/Code/kern.c/kernel"));
  // Kernel runs on rank 0 during [0, 2).
  EXPECT_NEAR(scan_window(view_, MetricKind::CpuTime, f, 0.5, 1.25).value(), 0.75, 1e-9);
  EXPECT_NEAR(scan_window(view_, MetricKind::CpuTime, f, 1.5, 10.0).value(), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(scan_window(view_, MetricKind::CpuTime, f, 2.5, 3.0).value(), 0.0);
}

TEST_F(TraceViewTest, FractionSeriesBinsSumToWholeFraction) {
  const Focus whole = Focus::whole_program(view_.resources());
  for (MetricKind metric : {MetricKind::CpuTime, MetricKind::SyncWaitTime}) {
    const auto series = view_.fraction_series(metric, whole, 0.0, trace_.duration, 7);
    ASSERT_EQ(series.size(), 7u);
    double mean = 0;
    for (double v : series) mean += v;
    mean /= 7.0;
    EXPECT_NEAR(mean, view_.fraction(metric, whole), 1e-9);
  }
}

TEST_F(TraceViewTest, FractionSeriesLocalizesActivity) {
  // The kernel runs only in [0, 2) on rank 0: the first bins carry all the
  // CPU fraction, the tail bins none.
  Focus f = Focus::whole_program(view_.resources()).with_part(0, "/Code/kern.c/kernel");
  const auto series = view_.fraction_series(MetricKind::CpuTime, f, 0.0, 3.5, 7);
  ASSERT_EQ(series.size(), 7u);
  EXPECT_GT(series[0], 0.4);
  EXPECT_DOUBLE_EQ(series[6], 0.0);
}

TEST_F(TraceViewTest, FractionSeriesEdgeCases) {
  const Focus whole = Focus::whole_program(view_.resources());
  EXPECT_TRUE(view_.fraction_series(MetricKind::CpuTime, whole, 0, 1, 0).empty());
  EXPECT_TRUE(view_.fraction_series(MetricKind::CpuTime, whole, 1, 1, 4).empty());
}

// -------------------------------------------------------- metric instance

TEST_F(TraceViewTest, InstanceStartTimeHidesHistory) {
  // Instrumentation inserted at t=2.1 misses the kernel phase entirely —
  // the Paradyn "missed data for interesting events" behaviour.
  Focus f = Focus::whole_program(view_.resources()).with_part(0, "/Code/kern.c/kernel");
  MetricInstance inst(view_, MetricKind::CpuTime, view_.compile(f), 2.1);
  inst.advance(trace_.duration);
  EXPECT_DOUBLE_EQ(inst.value(), 0.0);
  EXPECT_NEAR(inst.observed(), trace_.duration - 2.1, 1e-9);
}

TEST_F(TraceViewTest, InstanceStraddlingIntervalCountsPartially) {
  Focus f = Focus::whole_program(view_.resources()).with_part(0, "/Code/kern.c/kernel");
  MetricInstance inst(view_, MetricKind::CpuTime, view_.compile(f), 1.0);
  inst.advance(1.5);
  EXPECT_NEAR(inst.value(), 0.5, 1e-9);
  inst.advance(5.0);
  EXPECT_NEAR(inst.value(), 1.0, 1e-9);
}

TEST_F(TraceViewTest, AdvanceBackwardsIsANoop) {
  const Focus whole = Focus::whole_program(view_.resources());
  MetricInstance inst(view_, MetricKind::CpuTime, view_.compile(whole), 0.0);
  inst.advance(2.0);
  const double v = inst.value();
  inst.advance(1.0);
  EXPECT_DOUBLE_EQ(inst.value(), v);
}

/// Property: incremental accumulation across any tick pattern equals the
/// one-shot whole-window query.
class IncrementalEquivalence : public testing::TestWithParam<double> {};

TEST_P(IncrementalEquivalence, MatchesOneShot) {
  const simmpi::ExecutionTrace trace = make_trace();
  const TraceView view(trace);
  const double tick = GetParam();
  for (MetricKind metric : kAllMetrics) {
    const Focus whole = Focus::whole_program(view.resources());
    MetricInstance stepped(view, metric, view.compile(whole), 0.0);
    for (double t = tick; t < trace.duration + tick; t += tick) stepped.advance(t);
    MetricInstance oneshot(view, metric, view.compile(whole), 0.0);
    oneshot.advance(trace.duration + tick);
    EXPECT_NEAR(stepped.value(), oneshot.value(), 1e-9)
        << "metric " << metric_name(metric) << " tick " << tick;
  }
}

INSTANTIATE_TEST_SUITE_P(Ticks, IncrementalEquivalence,
                         testing::Values(0.05, 0.17, 0.5, 1.0, 3.3));

/// Property: windows partitioning [0, T] sum to the whole-run query.
class WindowAdditivity : public testing::TestWithParam<int> {};

TEST_P(WindowAdditivity, DisjointWindowsSum) {
  const simmpi::ExecutionTrace trace = make_trace();
  const TraceView view(trace);
  const int pieces = GetParam();
  const FocusFilter& whole = view.compiled(Focus::whole_program(view.resources()));
  for (MetricKind metric : {MetricKind::CpuTime, MetricKind::SyncWaitTime}) {
    double sum = 0;
    for (int i = 0; i < pieces; ++i) {
      const double t0 = trace.duration * i / pieces;
      const double t1 = trace.duration * (i + 1) / pieces;
      sum += scan_window(view, metric, whole, t0, t1).value();
    }
    EXPECT_NEAR(sum, view.query(metric, whole), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, WindowAdditivity, testing::Values(2, 3, 7, 16));

}  // namespace
}  // namespace histpc::metrics
