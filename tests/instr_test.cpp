#include <gtest/gtest.h>

#include "instr/cost_model.h"
#include "instr/instrumentation.h"
#include "simmpi/program.h"
#include "simmpi/simulator.h"

namespace histpc::instr {
namespace {

using metrics::MetricKind;
using resources::Focus;
using resources::FocusId;

simmpi::ExecutionTrace make_trace(int nranks = 4) {
  simmpi::ProgramBuilder b(simmpi::MachineSpec::one_to_one(nranks, "node", "proc"));
  b.record([](simmpi::Recorder& r) {
    simmpi::FunctionScope f(r, "work", "mod.c");
    for (int i = 0; i < 20; ++i) {
      r.compute(1.0);
      r.barrier();
    }
  });
  return simmpi::Simulator().run(b.build());
}

class InstrTest : public testing::Test {
 protected:
  InstrTest() : trace_(make_trace()), view_(trace_) {}
  /// The whole-program focus with part `h` replaced by `part`, interned.
  FocusId with_part(std::size_t h, const std::string& part) {
    return view_.foci().intern(Focus::whole_program(view_.resources()).with_part(h, part));
  }
  simmpi::ExecutionTrace trace_;
  metrics::TraceView view_;
  const FocusId whole_ = view_.foci().whole_program();
};

TEST_F(InstrTest, CostGrowsWithFocusBreadth) {
  CostModel cm;
  const FocusId mod = with_part(0, "/Code/mod.c");
  const FocusId func = with_part(0, "/Code/mod.c/work");
  const double c_whole = cm.probe_cost(view_, whole_, MetricKind::CpuTime);
  const double c_mod = cm.probe_cost(view_, mod, MetricKind::CpuTime);
  const double c_func = cm.probe_cost(view_, func, MetricKind::CpuTime);
  EXPECT_GT(c_whole, c_mod);
  EXPECT_GT(c_mod, c_func);
}

TEST_F(InstrTest, CostScalesWithSelectedRanks) {
  CostModel cm;
  const FocusId one = with_part(2, "/Process/proc:1");
  EXPECT_NEAR(cm.probe_cost(view_, whole_, MetricKind::CpuTime),
              4 * cm.probe_cost(view_, one, MetricKind::CpuTime), 1e-12);
}

TEST_F(InstrTest, SyncConstraintAddsCost) {
  CostModel cm;
  const FocusId sync = with_part(3, "/SyncObject/Collective/Barrier");
  EXPECT_GT(cm.probe_cost(view_, sync, MetricKind::SyncWaitTime),
            cm.probe_cost(view_, whole_, MetricKind::SyncWaitTime));
}

TEST_F(InstrTest, InsertionLatencyDelaysData) {
  InstrumentationManager mgr(view_, CostModel{}, /*insertion_latency=*/2.0);
  ProbeId p = mgr.insert(MetricKind::CpuTime, whole_, /*now=*/1.0);
  mgr.advance(2.5);  // data collection starts at 3.0
  EXPECT_DOUBLE_EQ(mgr.read(p).observed, 0.0);
  EXPECT_DOUBLE_EQ(mgr.read(p).value, 0.0);
  mgr.advance(5.0);
  EXPECT_NEAR(mgr.read(p).observed, 2.0, 1e-9);
  EXPECT_GT(mgr.read(p).value, 0.0);
}

TEST_F(InstrTest, RemoveFreesCost) {
  InstrumentationManager mgr(view_, CostModel{}, 0.0);
  ProbeId a = mgr.insert(MetricKind::CpuTime, whole_, 0.0);
  ProbeId b = mgr.insert(MetricKind::SyncWaitTime, whole_, 0.0);
  const double both = mgr.total_cost();
  EXPECT_GT(both, 0.0);
  EXPECT_EQ(mgr.num_active(), 2u);
  mgr.remove(a);
  EXPECT_LT(mgr.total_cost(), both);
  EXPECT_EQ(mgr.num_active(), 1u);
  EXPECT_FALSE(mgr.is_active(a));
  EXPECT_TRUE(mgr.is_active(b));
  EXPECT_THROW(mgr.remove(a), std::logic_error);
  mgr.remove(b);
  EXPECT_NEAR(mgr.total_cost(), 0.0, 1e-12);
  EXPECT_EQ(mgr.total_inserted(), 2u);
}

TEST_F(InstrTest, PeakCostTracksHighWaterMark) {
  InstrumentationManager mgr(view_, CostModel{}, 0.0);
  ProbeId a = mgr.insert(MetricKind::CpuTime, whole_, 0.0);
  const double peak = mgr.total_cost();
  mgr.remove(a);
  mgr.insert(MetricKind::CpuTime, with_part(2, "/Process/proc:1"), 0.0);
  EXPECT_DOUBLE_EQ(mgr.peak_cost(), peak);
}

TEST_F(InstrTest, PredictMatchesInsertCost) {
  InstrumentationManager mgr(view_, CostModel{}, 0.0);
  const FocusId f = with_part(0, "/Code/mod.c");
  const double predicted = CostModel{}.probe_cost(view_, f, MetricKind::CpuTime);
  ProbeId p = mgr.insert(MetricKind::CpuTime, f, 0.0);
  EXPECT_DOUBLE_EQ(mgr.probe_cost(p), predicted);
}

TEST_F(InstrTest, SampleFractionNormalizes) {
  InstrumentationManager mgr(view_, CostModel{}, 0.0);
  ProbeId p = mgr.insert(MetricKind::ExecTime, whole_, 0.0);
  mgr.advance(10.0);
  const ProbeSample s = mgr.read(p);
  EXPECT_EQ(s.selected_ranks, 4);
  EXPECT_NEAR(s.fraction, s.value / (s.observed * 4), 1e-12);
  // The program alternates compute/barrier, so exec fraction is ~1.
  EXPECT_NEAR(s.fraction, 1.0, 0.05);
}

TEST_F(InstrTest, NegativeLatencyRejected) {
  EXPECT_THROW(InstrumentationManager(view_, CostModel{}, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace histpc::instr
