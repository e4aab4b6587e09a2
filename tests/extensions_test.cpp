// Tests for the extension features: postmortem directive extraction
// (paper §6), trace serialization, SHG DOT export, perturbation modeling,
// and the I/O-bound workload's hypothesis path.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/apps.h"
#include "core/session.h"
#include "history/analysis.h"
#include "history/generator.h"
#include "history/postmortem.h"
#include "metrics/trace_view.h"
#include "pc/consultant.h"
#include "scratch_dir.h"
#include "simmpi/trace_io.h"

namespace histpc {
namespace {

using metrics::TraceView;

// ------------------------------------------------------------- postmortem

TEST(Postmortem, FindsSameSignificantBottlenecksAsOnlineSearch) {
  apps::AppParams p;
  p.target_duration = 1500.0;
  simmpi::ExecutionTrace trace = apps::run_app("poisson_c", p);
  TraceView view(trace);

  const pc::DiagnosisResult post = history::postmortem_diagnose(view);
  pc::PcConfig online_cfg;
  online_cfg.cost_limit = 1e9;  // unthrottled online search for comparison
  pc::PerformanceConsultant online_pc(view, online_cfg);
  const pc::DiagnosisResult online = online_pc.run();

  // Every clearly significant postmortem bottleneck appears online and
  // vice versa (marginal pairs may differ: whole-run vs windowed data).
  auto contains = [](const pc::DiagnosisResult& r, const pc::BottleneckReport& b) {
    return std::any_of(r.bottlenecks.begin(), r.bottlenecks.end(), [&](const auto& x) {
      return x.hypothesis == b.hypothesis && x.focus == b.focus;
    });
  };
  for (const auto& b : post.bottlenecks) {
    if (b.fraction > 0.25) {
      EXPECT_TRUE(contains(online, b)) << b.hypothesis << " " << b.focus;
    }
  }
  for (const auto& b : online.bottlenecks) {
    if (b.fraction > 0.25) {
      EXPECT_TRUE(contains(post, b)) << b.hypothesis << " " << b.focus;
    }
  }
}

TEST(Postmortem, TimestampsAreZeroAndPairsCounted) {
  apps::AppParams p;
  p.target_duration = 300.0;
  simmpi::ExecutionTrace trace = apps::run_app("bubba", p);
  TraceView view(trace);
  const pc::DiagnosisResult r = history::postmortem_diagnose(view);
  ASSERT_GT(r.stats.bottlenecks, 0u);
  for (const auto& b : r.bottlenecks) EXPECT_DOUBLE_EQ(b.t_found, 0.0);
  EXPECT_EQ(r.stats.pairs_tested, r.stats.nodes_created);
}

TEST(Postmortem, ThresholdOverrideRespected) {
  apps::AppParams p;
  p.target_duration = 300.0;
  simmpi::ExecutionTrace trace = apps::run_app("poisson_c", p);
  TraceView view(trace);
  history::PostmortemOptions strict;
  strict.threshold_override = 0.9;
  EXPECT_EQ(history::postmortem_diagnose(view, strict).stats.bottlenecks, 0u);
}

TEST(Postmortem, MaxPairsBoundStopsCleanly) {
  apps::AppParams p;
  p.target_duration = 300.0;
  simmpi::ExecutionTrace trace = apps::run_app("poisson_c", p);
  TraceView view(trace);
  history::PostmortemOptions bounded;
  bounded.max_pairs = 10;
  const pc::DiagnosisResult r = history::postmortem_diagnose(view, bounded);
  EXPECT_LE(r.stats.pairs_tested, 10u);
  const std::size_t never_ran =
      std::count_if(r.nodes.begin(), r.nodes.end(), [](const auto& n) {
        return n.status == pc::NodeStatus::NeverRan;
      });
  EXPECT_GT(never_ran, 0u);
}

TEST(Postmortem, RecordDrivesAnOnlineSearchEffectively) {
  // The §6 scenario: raw data from "another tool" (here: a serialized
  // trace), no SHG — harvest directives postmortem, then direct an online
  // search.
  apps::AppParams p;
  p.target_duration = 1500.0;
  simmpi::ExecutionTrace trace = apps::run_app("poisson_c", p);
  TraceView view(trace);
  const history::ExperimentRecord record =
      history::postmortem_record("poisson", "C", view, {});
  EXPECT_FALSE(record.bottlenecks.empty());
  EXPECT_FALSE(record.code_usage.empty());

  pc::DirectiveSet directives = history::DirectiveGenerator().from_record(record);
  core::DiagnosisSession cold("poisson_c", p);
  core::DiagnosisSession directed("poisson_c", p);
  const pc::DiagnosisResult base = cold.diagnose();
  const pc::DiagnosisResult guided = directed.diagnose(directives);
  const auto reference = history::significant_bottlenecks(
      history::filter_pruned(base.bottlenecks, directives, directed.view().resources()),
      0.22);
  EXPECT_LT(guided.time_to_find(reference, 100.0),
            0.5 * base.time_to_find(reference, 100.0));
}

TEST(Postmortem, ExtendedHypothesisTreeEvaluated) {
  apps::AppParams p;
  p.target_duration = 300.0;
  simmpi::ExecutionTrace trace = apps::run_app("poisson_c", p);
  TraceView view(trace);
  history::PostmortemOptions opts;
  opts.hypotheses = pc::HypothesisSet::standard_extended();
  const pc::DiagnosisResult r = history::postmortem_diagnose(view, opts);
  EXPECT_TRUE(std::any_of(r.bottlenecks.begin(), r.bottlenecks.end(), [](const auto& b) {
    return b.hypothesis == pc::kMessageWaitName;
  }));
}

// ---------------------------------------------------------------- trace IO

TEST(TraceIo, RoundTripPreservesEverything) {
  apps::AppParams p;
  p.target_duration = 60.0;
  const simmpi::ExecutionTrace trace = apps::run_app("poisson_c", p);
  const simmpi::ExecutionTrace back =
      simmpi::trace_from_json(simmpi::trace_to_json(trace));
  EXPECT_DOUBLE_EQ(back.duration, trace.duration);
  EXPECT_EQ(back.functions.size(), trace.functions.size());
  EXPECT_EQ(back.sync_objects, trace.sync_objects);
  EXPECT_EQ(back.machine.node_names, trace.machine.node_names);
  EXPECT_EQ(back.machine.process_names, trace.machine.process_names);
  ASSERT_EQ(back.num_ranks(), trace.num_ranks());
  for (int r = 0; r < trace.num_ranks(); ++r) {
    const auto& a = trace.ranks[r].intervals;
    const auto& b = back.ranks[r].intervals;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].t0, b[i].t0);
      EXPECT_DOUBLE_EQ(a[i].t1, b[i].t1);
      EXPECT_EQ(a[i].state, b[i].state);
      EXPECT_EQ(a[i].func, b[i].func);
      EXPECT_EQ(a[i].sync_object, b[i].sync_object);
    }
  }
}

TEST(TraceIo, FileRoundTripAndDiagnosis) {
  apps::AppParams p;
  p.target_duration = 200.0;
  const simmpi::ExecutionTrace trace = apps::run_app("bubba", p);
  const testing_support::ScratchDir scratch("trace_io");
  const std::string path = scratch.file("trace.json");
  simmpi::save_trace(trace, path);
  simmpi::ExecutionTrace loaded = simmpi::load_trace(path);
  // A loaded trace is diagnosable like a fresh one.
  core::DiagnosisSession session(std::move(loaded));
  EXPECT_GT(session.diagnose().stats.bottlenecks, 0u);
}

TEST(TraceIo, RejectsBadDocuments) {
  EXPECT_THROW(simmpi::trace_from_json(util::Json::parse("{}")), util::JsonError);
  EXPECT_THROW(simmpi::trace_from_json(util::Json::parse(
                   R"({"schema": "histpc-trace-v2"})")),
               util::JsonError);
  // Valid schema tag but inconsistent payload.
  apps::AppParams p;
  p.target_duration = 30.0;
  util::Json j = simmpi::trace_to_json(apps::run_app("tester", p));
  j["ranks"].as_array()[0]["intervals"].as_array().push_back(util::Json(1.0));
  EXPECT_THROW(simmpi::trace_from_json(j), util::JsonError);
}

TEST(TraceIo, ParseErrorsNameTheFieldAndSchema) {
  apps::AppParams p;
  p.target_duration = 30.0;
  util::Json j = simmpi::trace_to_json(apps::run_app("tester", p));
  // Corrupt one interval's state slot (index 2 within the third tuple).
  j["ranks"].as_array()[0]["intervals"].as_array()[2 * 5 + 2] = util::Json(7.0);
  try {
    simmpi::trace_from_json(j);
    FAIL() << "corrupt document parsed successfully";
  } catch (const util::JsonError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("histpc-trace-v1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ranks[0].intervals[2]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bad state 7"), std::string::npos) << msg;
  }
}

// --------------------------------------------------------------- DOT export

TEST(ShgDot, ContainsNodesEdgesAndColors) {
  apps::AppParams p;
  p.target_duration = 400.0;
  simmpi::ExecutionTrace trace = apps::run_app("bubba", p);
  metrics::TraceView view(trace);
  pc::PerformanceConsultant consultant(view, pc::PcConfig{});
  consultant.run();
  const std::string dot = consultant.shg().to_dot();
  EXPECT_NE(dot.find("digraph shg"), std::string::npos);
  EXPECT_NE(dot.find("TopLevelHypothesis"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("#5aa469"), std::string::npos);  // at least one true node
  EXPECT_NE(dot.find("#d3d3d3"), std::string::npos);  // at least one false node
  EXPECT_EQ(dot.find('"') == std::string::npos, false);
}

// ------------------------------------------------------------- perturbation

TEST(Perturbation, InflatedCpuReadingsCreateSpuriousBottlenecks) {
  // Balanced program at ~18% CPU per focus area: ideal measurement stays
  // under the 20% threshold, perturbed measurement crosses it.
  simmpi::ProgramBuilder b(simmpi::MachineSpec::one_to_one(2, "node", "app"));
  b.record([](simmpi::Recorder& r) {
    simmpi::FunctionScope fmain(r, "main", "main.c");
    for (int i = 0; i < 800; ++i) {
      {
        simmpi::FunctionScope f(r, "hot", "hot.c");
        r.compute(0.18);
      }
      r.io(0.82);
      r.barrier();
    }
  });
  const simmpi::ExecutionTrace trace = simmpi::Simulator().run(b.build());
  const metrics::TraceView view(trace);

  pc::PcConfig ideal;
  pc::PcConfig noisy = ideal;
  noisy.perturbation_factor = 8.0;  // strong, to make the effect decisive
  pc::PerformanceConsultant pc_ideal(view, ideal);
  pc::PerformanceConsultant pc_noisy(view, noisy);
  const auto count_cpu = [](const pc::DiagnosisResult& r) {
    return std::count_if(r.bottlenecks.begin(), r.bottlenecks.end(), [](const auto& x) {
      return x.hypothesis == pc::kCpuBoundName;
    });
  };
  EXPECT_EQ(count_cpu(pc_ideal.run()), 0);
  EXPECT_GT(count_cpu(pc_noisy.run()), 0);
}

TEST(Perturbation, NegativeFactorRejected) {
  apps::AppParams p;
  p.target_duration = 30.0;
  simmpi::ExecutionTrace trace = apps::run_app("tester", p);
  metrics::TraceView view(trace);
  pc::PcConfig cfg;
  cfg.perturbation_factor = -1.0;
  EXPECT_THROW(pc::PerformanceConsultant(view, cfg), std::invalid_argument);
}

// ------------------------------------------------- dynamic resource discovery

/// Two phases: a solver runs alone for ~300s, then a "remesh" function
/// appears and dominates (an adaptive code changing behaviour mid-run).
simmpi::ExecutionTrace adaptive_trace() {
  simmpi::ProgramBuilder b(simmpi::MachineSpec::one_to_one(2, "node", "amr"));
  b.record([](simmpi::Recorder& r) {
    simmpi::FunctionScope fmain(r, "main", "amr.c");
    for (int i = 0; i < 300; ++i) {
      simmpi::FunctionScope f(r, "solve", "solver.c");
      r.compute(1.0);
    }
    for (int i = 0; i < 500; ++i) {
      {
        simmpi::FunctionScope f(r, "remesh", "remesh.c");
        r.compute(0.7);
      }
      simmpi::FunctionScope f(r, "solve", "solver.c");
      r.compute(0.3);
    }
  });
  return simmpi::Simulator().run(b.build());
}

TEST(Discovery, TraceViewReportsFirstAppearance) {
  const simmpi::ExecutionTrace trace = adaptive_trace();
  const TraceView view(trace);
  EXPECT_DOUBLE_EQ(view.discovery_time("/Code/solver.c/solve"), 0.0);
  EXPECT_DOUBLE_EQ(view.discovery_time("/Code/solver.c"), 0.0);
  EXPECT_NEAR(view.discovery_time("/Code/remesh.c/remesh"), 300.0, 1.0);
  EXPECT_NEAR(view.discovery_time("/Code/remesh.c"), 300.0, 1.0);
  EXPECT_DOUBLE_EQ(view.discovery_time("/Machine/node01"), 0.0);
  EXPECT_DOUBLE_EQ(view.discovery_time("/Process/amr:1"), 0.0);
  EXPECT_DOUBLE_EQ(view.discovery_time("/Code"), 0.0);  // hierarchy roots
  EXPECT_TRUE(std::isinf(view.discovery_time("/Code/ghost.c")));
}

TEST(Discovery, PoissonResourcesAppearEarly) {
  apps::AppParams p;
  p.target_duration = 300.0;
  const simmpi::ExecutionTrace trace = apps::run_app("poisson_c", p);
  const TraceView view(trace);
  EXPECT_LT(view.discovery_time("/Code/exchng2.f/exchng2"), 5.0);
  EXPECT_LT(view.discovery_time("/SyncObject/Message/3:0"), 5.0);
  // printstats only runs every 200 iterations.
  EXPECT_GT(view.discovery_time("/Code/stats.f/printstats"), 100.0);
}

TEST(Discovery, RespectingDiscoveryDelaysRefinement) {
  const simmpi::ExecutionTrace trace = adaptive_trace();
  const TraceView view(trace);
  pc::PcConfig cfg;
  cfg.respect_discovery_times = true;
  pc::PerformanceConsultant consultant(view, cfg);
  const pc::DiagnosisResult r = consultant.run();
  double remesh_found = -1;
  for (const auto& b : r.bottlenecks)
    if (b.focus.find("/Code/remesh.c") != std::string::npos) remesh_found = b.t_found;
  ASSERT_GT(remesh_found, 0) << "remesh should eventually be diagnosed";
  EXPECT_GT(remesh_found, 300.0) << "but not before the resource exists";
}

TEST(Discovery, DefaultModeTestsUndiscoveredResourcesEarly) {
  // With hierarchies pre-populated (the default), nothing waits: the
  // remesh pair is created as soon as its parent tests true. It may
  // conclude false on pre-phase-2 data — exactly the artifact the
  // discovery-aware mode avoids.
  const simmpi::ExecutionTrace trace = adaptive_trace();
  const TraceView view(trace);
  pc::PerformanceConsultant consultant(view, pc::PcConfig{});
  const pc::DiagnosisResult r = consultant.run();
  double earliest_remesh_test = 1e18;
  for (const auto& n : r.nodes)
    if (n.focus.find("/Code/remesh.c") != std::string::npos && n.conclude_time >= 0)
      earliest_remesh_test = std::min(earliest_remesh_test, n.conclude_time);
  EXPECT_LT(earliest_remesh_test, 300.0);
}

// ------------------------------------------------------------- seismic app

TEST(Seismic, IoBlockingHypothesisPathExercised) {
  apps::AppParams p;
  p.target_duration = 1200.0;
  core::DiagnosisSession session("seismic", p);
  const pc::DiagnosisResult r = session.diagnose();
  auto has = [&](const std::string& hyp, const std::string& sub) {
    return std::any_of(r.bottlenecks.begin(), r.bottlenecks.end(), [&](const auto& b) {
      return b.hypothesis == hyp && b.focus.find(sub) != std::string::npos;
    });
  };
  EXPECT_TRUE(has(std::string(pc::kIoBlockingName), "/Code"));
  EXPECT_TRUE(has(std::string(pc::kIoBlockingName), "/Code/traceio.c"));
  // The shared-filesystem ranks read slowest.
  EXPECT_TRUE(has(std::string(pc::kIoBlockingName), "/Process/seismic:1"));
}

}  // namespace
}  // namespace histpc
