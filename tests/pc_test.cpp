#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "history/experiment.h"
#include "history/generator.h"
#include "metrics/trace_view.h"
#include "pc/consultant.h"
#include "pc/directives.h"
#include "pc/hypothesis.h"
#include "pc/shg.h"
#include "scratch_dir.h"
#include "simmpi/program.h"
#include "simmpi/simulator.h"
#include "util/rng.h"

namespace histpc::pc {
namespace {

using metrics::TraceView;
using resources::Focus;
using simmpi::FunctionScope;
using simmpi::Recorder;

/// 4 ranks; ranks 3 and 4 spend most of each iteration waiting on tag 9
/// inside "exchange" while ranks 1 and 2 compute: whole-program sync wait
/// is ~40%, concentrated on app:3/app:4, comm.c and Message/9.
// The default duration is generous so the undirected cost-limited search
// completes before program end; tests of truncation pass a short duration.
simmpi::ExecutionTrace bottleneck_trace(double duration = 2500.0) {
  simmpi::ProgramBuilder b(simmpi::MachineSpec::one_to_one(4, "node", "app"));
  const int iters = static_cast<int>(duration);
  b.record([&](Recorder& r) {
    FunctionScope fmain(r, "main", "main.c");
    for (int i = 0; i < iters; ++i) {
      {
        FunctionScope f(r, "work", "work.c");
        r.compute(r.rank() >= 2 ? 0.2 : 1.0);
      }
      {
        FunctionScope f(r, "exchange", "comm.c");
        if (r.rank() >= 2) {
          r.recv(r.rank() - 2, 9);
        } else {
          r.send(r.rank() + 2, 9, 64);
        }
        r.barrier();
      }
    }
  });
  simmpi::NetworkModel net;
  net.latency = 1e-4;
  return simmpi::Simulator(net).run(b.build());
}

/// Balanced program: everyone computes identically; no waits beyond noise.
simmpi::ExecutionTrace balanced_trace(double duration = 300.0) {
  simmpi::ProgramBuilder b(simmpi::MachineSpec::one_to_one(2, "node", "app"));
  b.record([&](Recorder& r) {
    FunctionScope fmain(r, "main", "main.c");
    for (int i = 0; i < static_cast<int>(duration); ++i) {
      r.compute(1.0);
      r.barrier();
    }
  });
  return simmpi::Simulator().run(b.build());
}

/// Phase change: no waiting for the first 200 iterations, then rank 1
/// waits ~70% of each iteration (a behaviour that emerges mid-run).
simmpi::ExecutionTrace phase_change_trace() {
  simmpi::ProgramBuilder b(simmpi::MachineSpec::one_to_one(2, "node", "app"));
  b.record([](Recorder& r) {
    FunctionScope fmain(r, "main", "main.c");
    for (int i = 0; i < 600; ++i) {
      const bool second_phase = i >= 200;
      if (r.rank() == 0) {
        r.compute(1.0);
        if (second_phase) r.send(1, 4, 64);
      } else {
        r.compute(second_phase ? 0.3 : 1.0);
        if (second_phase) r.recv(0, 4);
      }
      r.barrier();
    }
  });
  return simmpi::Simulator().run(b.build());
}

PcConfig quick_config() {
  PcConfig cfg;
  cfg.min_observation = 10.0;
  cfg.tick = 0.5;
  cfg.insertion_latency = 1.0;
  cfg.cost_limit = 0.05;
  return cfg;
}

// --------------------------------------------------------------- hypotheses

TEST(Hypotheses, StandardSet) {
  HypothesisSet set = HypothesisSet::standard();
  EXPECT_EQ(set.size(), 3u);
  ASSERT_TRUE(set.index_of(kSyncWaitName).has_value());
  EXPECT_TRUE(set.at(*set.index_of(kSyncWaitName)).sync_related);
  EXPECT_FALSE(set.at(*set.index_of(kCpuBoundName)).sync_related);
  EXPECT_FALSE(set.index_of("Nope").has_value());
}

// --------------------------------------------------------------- directives

TEST(Directives, ParseSerializeRoundTrip) {
  const char* text =
      "# harvested from poisson_A_1\n"
      "map /Code/oned.f /Code/onednb.f\n"
      "prune * /Machine\n"
      "prune CPUbound /SyncObject\n"
      "threshold ExcessiveSyncWaitingTime 0.12\n"
      "priority ExcessiveSyncWaitingTime </Code/exchng1.f,/Machine,/Process,/SyncObject> high\n"
      "priority CPUbound </Code,/Machine,/Process,/SyncObject> low\n";
  DirectiveSet d = DirectiveSet::parse(text);
  EXPECT_EQ(d.maps.size(), 1u);
  EXPECT_EQ(d.prunes.size(), 2u);
  EXPECT_EQ(d.thresholds.size(), 1u);
  EXPECT_EQ(d.priorities.size(), 2u);
  DirectiveSet back = DirectiveSet::parse(d.serialize());
  EXPECT_EQ(back, d);
}

TEST(Directives, ParseErrorsNameTheLine) {
  try {
    DirectiveSet::parse("prune *\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  EXPECT_THROW(DirectiveSet::parse("bogus x y\n"), std::invalid_argument);
  EXPECT_THROW(DirectiveSet::parse("priority H F wrong\n"), std::invalid_argument);
  EXPECT_THROW(DirectiveSet::parse("threshold H 1.5\n"), std::invalid_argument);
  EXPECT_THROW(DirectiveSet::parse("threshold H abc\n"), std::invalid_argument);
  EXPECT_THROW(DirectiveSet::parse("map noslash /a\n"), std::invalid_argument);
  EXPECT_THROW(DirectiveSet::parse("prune * noslash\n"), std::invalid_argument);
}

TEST(Directives, PruneSemantics) {
  resources::ResourceDb db = resources::ResourceDb::with_standard_hierarchies();
  db.add_resource("/Code/a.f/f1");
  db.add_resource("/Machine/n1");
  DirectiveSet d;
  d.prunes.push_back({"*", "/Machine"});
  d.prunes.push_back({"CPUbound", "/Code/a.f"});

  const Focus whole = Focus::whole_program(db);
  // Root parts are never pruned: the unconstrained view stays testable.
  EXPECT_FALSE(d.is_pruned("CPUbound", whole));
  // Below a pruned hierarchy root: pruned for every hypothesis.
  EXPECT_TRUE(d.is_pruned("AnyHyp", whole.with_part(1, "/Machine/n1")));
  // Hypothesis-specific prune.
  EXPECT_TRUE(d.is_pruned("CPUbound", whole.with_part(0, "/Code/a.f")));
  EXPECT_TRUE(d.is_pruned("CPUbound", whole.with_part(0, "/Code/a.f/f1")));
  EXPECT_FALSE(d.is_pruned("ExcessiveSyncWaitingTime", whole.with_part(0, "/Code/a.f")));
}

TEST(Directives, PriorityLookup) {
  DirectiveSet d;
  d.priorities.push_back({"H", "<f1>", Priority::High});
  d.priorities.push_back({"H", "<f2>", Priority::Low});
  EXPECT_EQ(d.priority_of("H", "<f1>"), Priority::High);
  EXPECT_EQ(d.priority_of("H", "<f2>"), Priority::Low);
  EXPECT_EQ(d.priority_of("H", "<f3>"), Priority::Medium);
  EXPECT_EQ(d.priority_of("Other", "<f1>"), Priority::Medium);
}

TEST(Directives, ThresholdPrecedence) {
  DirectiveSet d;
  d.thresholds.push_back({"*", 0.30});
  d.thresholds.push_back({"H", 0.12});
  EXPECT_DOUBLE_EQ(*d.threshold_for("H"), 0.12);
  EXPECT_DOUBLE_EQ(*d.threshold_for("Other"), 0.30);
  DirectiveSet none;
  EXPECT_FALSE(none.threshold_for("H").has_value());
}

TEST(Directives, MappingRewritesLongestPrefix) {
  std::vector<MapDirective> maps{{"/Code/oned.f", "/Code/onednb.f"},
                                 {"/Code/oned.f/sweep", "/Code/onednb.f/nbsweep"}};
  EXPECT_EQ(apply_maps_to_resource(maps, "/Code/oned.f"), "/Code/onednb.f");
  EXPECT_EQ(apply_maps_to_resource(maps, "/Code/oned.f/main"), "/Code/onednb.f/main");
  // Longest match wins over the shorter module-level map.
  EXPECT_EQ(apply_maps_to_resource(maps, "/Code/oned.f/sweep"), "/Code/onednb.f/nbsweep");
  EXPECT_EQ(apply_maps_to_resource(maps, "/Code/other.f"), "/Code/other.f");
}

TEST(Directives, ApplyMappingsRewritesFociAndPrunes) {
  DirectiveSet d;
  d.maps.push_back({"/Machine/node01", "/Machine/node17"});
  d.prunes.push_back({"*", "/Machine/node01"});
  d.priorities.push_back(
      {"H", "</Code,/Machine/node01,/Process,/SyncObject>", Priority::High});
  d.apply_mappings();
  EXPECT_EQ(d.prunes[0].resource_prefix, "/Machine/node17");
  EXPECT_EQ(d.priorities[0].focus, "</Code,/Machine/node17,/Process,/SyncObject>");
}

TEST(Directives, FileRoundTrip) {
  DirectiveSet d;
  d.prunes.push_back({"*", "/Machine"});
  const testing_support::ScratchDir scratch("directives");
  const std::string path = scratch.file("directives.txt");
  d.save(path);
  EXPECT_EQ(DirectiveSet::load(path), d);
}

// --------------------------------------------------------------------- shg

TEST(Shg, DedupAndMultiParent) {
  HypothesisSet hyps = HypothesisSet::standard();
  resources::ResourceDb db = resources::ResourceDb::with_standard_hierarchies();
  db.add_resource("/Code/a.f");
  const resources::FocusTable foci(db);
  SearchHistoryGraph shg(hyps, foci);
  const resources::FocusId whole = foci.whole_program();
  int a = shg.add_node(0, whole, shg.root(), 0.0);
  int b = shg.add_node(1, whole, shg.root(), 0.0);
  EXPECT_NE(a, b);
  // Same (hyp, focus) from a different parent converges to the same node.
  int c = shg.add_node(1, whole, a, 1.0);
  EXPECT_EQ(b, c);
  EXPECT_EQ(shg.node(b).parents.size(), 2u);
  EXPECT_EQ(shg.find(1, whole), b);
  EXPECT_EQ(shg.find(2, whole), -1);
  EXPECT_EQ(shg.hypothesis_name(shg.root()), "TopLevelHypothesis");
}

TEST(Shg, RenderListsNodesWithStatus) {
  HypothesisSet hyps = HypothesisSet::standard();
  const resources::ResourceDb db = resources::ResourceDb::with_standard_hierarchies();
  const resources::FocusTable foci(db);
  SearchHistoryGraph shg(hyps, foci);
  int a = shg.add_node(0, foci.whole_program(), shg.root(), 0.0);
  shg.node(a).status = NodeStatus::True;
  shg.node(a).fraction = 0.42;
  shg.node(a).conclude_time = 11.0;
  std::string s = shg.render();
  EXPECT_NE(s.find("TopLevelHypothesis"), std::string::npos);
  EXPECT_NE(s.find("CPUbound"), std::string::npos);
  EXPECT_NE(s.find("[true 42.0% @11.0s]"), std::string::npos);
}

// --------------------------------------------------------------- consultant

TEST(Consultant, FindsPlantedBottleneck) {
  const auto trace = bottleneck_trace();
  const TraceView view(trace);
  PerformanceConsultant consultant(view, quick_config());
  const DiagnosisResult r = consultant.run();
  ASSERT_GT(r.stats.bottlenecks, 0u);
  auto has = [&](const std::string& hyp, const std::string& focus_sub) {
    return std::any_of(r.bottlenecks.begin(), r.bottlenecks.end(), [&](const auto& b) {
      return b.hypothesis == hyp && b.focus.find(focus_sub) != std::string::npos;
    });
  };
  // The planted wait: rank 3, function exchange, tag 9.
  EXPECT_TRUE(has(std::string(kSyncWaitName), "/Process/app:4"));
  EXPECT_TRUE(has(std::string(kSyncWaitName), "/Code/comm.c"));
  EXPECT_TRUE(has(std::string(kSyncWaitName), "/SyncObject/Message/9"));
  EXPECT_TRUE(has(std::string(kCpuBoundName), "/Code/work.c"));
  // No I/O in the program.
  EXPECT_FALSE(has(std::string(kIoBlockingName), "/Code"));
}

TEST(Consultant, BalancedProgramYieldsOnlyCpu) {
  const auto trace = balanced_trace();
  const TraceView view(trace);
  PerformanceConsultant consultant(view, quick_config());
  const DiagnosisResult r = consultant.run();
  for (const auto& b : r.bottlenecks) EXPECT_EQ(b.hypothesis, kCpuBoundName);
  EXPECT_GT(r.stats.bottlenecks, 0u);  // CPUbound everywhere
}

TEST(Consultant, RunIsSingleUse) {
  const auto trace = balanced_trace(50.0);
  const TraceView view(trace);
  PerformanceConsultant consultant(view, quick_config());
  consultant.run();
  EXPECT_THROW(consultant.run(), std::logic_error);
}

TEST(Consultant, PrunesReduceTestingWithoutAddingBottlenecks) {
  const auto trace = bottleneck_trace();
  const TraceView view(trace);
  PerformanceConsultant base_pc(view, quick_config());
  const DiagnosisResult base = base_pc.run();

  DirectiveSet d;
  d.prunes.push_back({std::string(kCpuBoundName), "/SyncObject"});
  d.prunes.push_back({std::string(kIoBlockingName), "/SyncObject"});
  d.prunes.push_back({std::string(kAnyHypothesis), "/Machine"});
  PerformanceConsultant pruned_pc(view, quick_config(), d);
  const DiagnosisResult pruned = pruned_pc.run();

  EXPECT_LT(pruned.stats.pairs_tested, base.stats.pairs_tested);
  EXPECT_GT(pruned.stats.pruned_candidates, 0u);
  // Every pruned-run bottleneck also exists in the base run.
  for (const auto& b : pruned.bottlenecks) {
    EXPECT_TRUE(std::any_of(base.bottlenecks.begin(), base.bottlenecks.end(),
                            [&](const auto& x) {
                              return x.hypothesis == b.hypothesis && x.focus == b.focus;
                            }))
        << b.hypothesis << " : " << b.focus;
  }
}

TEST(Consultant, HighPriorityPairFoundImmediately) {
  const auto trace = bottleneck_trace();
  const TraceView view(trace);

  // Without directives, the refined pair is found late.
  PerformanceConsultant base_pc(view, quick_config());
  const DiagnosisResult base = base_pc.run();
  const std::string target_focus =
      "</Code/comm.c/exchange,/Machine,/Process/app:4,/SyncObject>";
  double base_time = -1;
  for (const auto& b : base.bottlenecks)
    if (b.focus == target_focus) base_time = b.t_found;
  ASSERT_GT(base_time, 0) << "base run should find the refined pair";

  DirectiveSet d;
  d.priorities.push_back({std::string(kSyncWaitName), target_focus, Priority::High});
  PerformanceConsultant directed_pc(view, quick_config(), d);
  const DiagnosisResult directed = directed_pc.run();
  double directed_time = -1;
  for (const auto& b : directed.bottlenecks)
    if (b.focus == target_focus) directed_time = b.t_found;
  ASSERT_GT(directed_time, 0);
  // Instrumented at search start: found right after the first observation
  // window, far earlier than in the undirected search.
  EXPECT_NEAR(directed_time, 11.0, 2.0);
  EXPECT_LT(directed_time, base_time);
}

TEST(Consultant, LowPriorityTestedAfterMedium) {
  const auto trace = bottleneck_trace();
  const TraceView view(trace);
  // Deprioritize the whole-program sync hypothesis; it should conclude
  // later than in the undirected run.
  const std::string whole = Focus::whole_program(view.resources()).name();
  DirectiveSet d;
  d.priorities.push_back({std::string(kSyncWaitName), whole, Priority::Low});
  PerformanceConsultant pc1(view, quick_config(), d);
  const DiagnosisResult low = pc1.run();
  PerformanceConsultant pc2(view, quick_config());
  const DiagnosisResult base = pc2.run();
  auto time_of = [&](const DiagnosisResult& r) {
    for (const auto& b : r.bottlenecks)
      if (b.hypothesis == kSyncWaitName && b.focus == whole) return b.t_found;
    return -1.0;
  };
  EXPECT_GE(time_of(low), time_of(base));
}

TEST(Consultant, PersistentHighPriorityCatchesEmergentBehaviour) {
  const auto trace = phase_change_trace();
  const TraceView view(trace);
  const std::string focus = "</Code,/Machine,/Process/app:2,/SyncObject/Message/4>";
  DirectiveSet d;
  d.priorities.push_back({std::string(kSyncWaitName), focus, Priority::High});

  PcConfig cfg = quick_config();
  cfg.persistent_high_priority = true;
  PerformanceConsultant pc(view, cfg, d);
  const DiagnosisResult r = pc.run();
  double found = -1;
  for (const auto& b : r.bottlenecks)
    if (b.focus == focus) found = b.t_found;
  // Concluded false at ~11s (quiet first phase), flipped true once the
  // second phase pushed the cumulative fraction over the threshold.
  ASSERT_GT(found, 0) << "persistent pair should flip to true";
  EXPECT_GT(found, 200.0);
}

TEST(Consultant, ThresholdOverrideChangesVerdicts) {
  const auto trace = bottleneck_trace();
  const TraceView view(trace);
  PcConfig strict = quick_config();
  strict.threshold_override = 0.9;  // nothing is 90% of execution
  PerformanceConsultant pc(view, strict);
  const DiagnosisResult r = pc.run();
  EXPECT_EQ(r.stats.bottlenecks, 0u);
}

/// Property: raising the threshold never increases the bottleneck count.
class ThresholdMonotonicity : public testing::TestWithParam<double> {};

TEST_P(ThresholdMonotonicity, CountsAreOrdered) {
  static const simmpi::ExecutionTrace trace = bottleneck_trace();
  const TraceView view(trace);
  const double threshold = GetParam();
  // Unthrottled budget: with a cost limit, a lower threshold's larger
  // search can be truncated by program end (the paper's "stopped before
  // completion"), which breaks strict monotonicity by design.
  PcConfig lo = quick_config();
  lo.cost_limit = 100.0;
  lo.threshold_override = threshold;
  PcConfig hi = quick_config();
  hi.cost_limit = 100.0;
  hi.threshold_override = threshold + 0.1;
  PerformanceConsultant pc_lo(view, lo);
  PerformanceConsultant pc_hi(view, hi);
  EXPECT_GE(pc_lo.run().stats.bottlenecks, pc_hi.run().stats.bottlenecks);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ThresholdMonotonicity,
                         testing::Values(0.05, 0.10, 0.15, 0.20, 0.30, 0.40));

TEST(Consultant, ShortProgramLeavesPairsUntested) {
  const auto trace = bottleneck_trace(60.0);  // barely enough for a few waves
  const TraceView view(trace);
  PerformanceConsultant pc(view, quick_config());
  const DiagnosisResult r = pc.run();
  const std::size_t never_ran =
      std::count_if(r.nodes.begin(), r.nodes.end(),
                    [](const NodeSnapshot& n) { return n.status == NodeStatus::NeverRan; });
  EXPECT_GT(never_ran, 0u);
  EXPECT_LE(r.stats.end_time, trace.duration + 1e-9);
}

TEST(Consultant, CostLimitThrottlesConcurrency) {
  const auto trace = bottleneck_trace();
  const TraceView view(trace);
  PcConfig tight = quick_config();
  tight.cost_limit = 0.01;
  PcConfig loose = quick_config();
  loose.cost_limit = 0.5;
  PerformanceConsultant pc_tight(view, tight);
  PerformanceConsultant pc_loose(view, loose);
  const DiagnosisResult rt = pc_tight.run();
  const DiagnosisResult rl = pc_loose.run();
  // A looser budget lets the search finish earlier (more concurrency).
  EXPECT_LE(rl.stats.end_time, rt.stats.end_time);
  EXPECT_GE(rl.stats.peak_cost, rt.stats.peak_cost);
}

TEST(Consultant, InvalidConfigRejected) {
  const auto trace = balanced_trace(50.0);
  const TraceView view(trace);
  PcConfig bad = quick_config();
  bad.tick = 0.0;
  EXPECT_THROW(PerformanceConsultant(view, bad), std::invalid_argument);
}

// ----------------------------------------------- hypothesis-tree expansion

TEST(Hypotheses, ExtendedSetHasSyncChildren) {
  HypothesisSet set = HypothesisSet::standard_extended();
  EXPECT_EQ(set.size(), 5u);
  const auto roots = set.roots();
  EXPECT_EQ(roots.size(), 3u);  // the two wait children are not roots
  const int sync = *set.index_of(kSyncWaitName);
  ASSERT_EQ(set.at(sync).children.size(), 2u);
  const Hypothesis& msg = set.at(set.at(sync).children[0]);
  EXPECT_EQ(msg.name, kMessageWaitName);
  EXPECT_EQ(msg.sync_scope, "/SyncObject/Message");
  EXPECT_TRUE(msg.sync_related);
}

TEST(Hypotheses, BadChildIndexRejected) {
  HypothesisSet set;
  Hypothesis h;
  h.name = "X";
  h.children = {5};
  EXPECT_THROW(set.add(h), std::out_of_range);
}

TEST(Consultant, HypothesisRefinementFindsScopedWaits) {
  const auto trace = bottleneck_trace();
  const TraceView view(trace);
  PcConfig cfg = quick_config();
  cfg.hypotheses = HypothesisSet::standard_extended();
  PerformanceConsultant pc(view, cfg);
  const DiagnosisResult r = pc.run();
  // The planted wait is message wait (tag 9): the scoped child hypothesis
  // tests true; the collective child (barrier only, negligible) does not
  // dominate.
  bool message_true = false;
  for (const auto& b : r.bottlenecks)
    if (b.hypothesis == kMessageWaitName) message_true = true;
  EXPECT_TRUE(message_true);
  // Child hypotheses are never tested at top level (not roots).
  for (const auto& n : r.nodes) {
    if (n.hypothesis != kMessageWaitName && n.hypothesis != kCollectiveWaitName) continue;
    // Every scoped node hangs below a true sync-wait parent, so its focus
    // never contradicts the scope.
    EXPECT_EQ(n.focus.find("/SyncObject/Collective"),
              n.hypothesis == kMessageWaitName ? std::string::npos : n.focus.find("/SyncObject/Collective"));
  }
}

TEST(Consultant, ScopeIncompatiblePairsAreNeverCreated) {
  const auto trace = bottleneck_trace();
  const TraceView view(trace);
  PcConfig cfg = quick_config();
  cfg.hypotheses = HypothesisSet::standard_extended();
  PerformanceConsultant pc(view, cfg);
  const DiagnosisResult r = pc.run();
  for (const auto& n : r.nodes) {
    if (n.hypothesis == kMessageWaitName) {
      EXPECT_EQ(n.focus.find("/SyncObject/Collective"), std::string::npos) << n.focus;
    }
    if (n.hypothesis == kCollectiveWaitName) {
      EXPECT_EQ(n.focus.find("/SyncObject/Message"), std::string::npos) << n.focus;
    }
  }
}

// ---------------------------------------------------------------- pair prunes

TEST(Directives, PairPruneParseAndSerialize) {
  const char* text =
      "prunepair CPUbound </Code/a.f,/Machine,/Process,/SyncObject>\n";
  DirectiveSet d = DirectiveSet::parse(text);
  ASSERT_EQ(d.pair_prunes.size(), 1u);
  EXPECT_EQ(d.pair_prunes[0].hypothesis, "CPUbound");
  EXPECT_EQ(DirectiveSet::parse(d.serialize()), d);
  EXPECT_THROW(DirectiveSet::parse("prunepair onlyone\n"), std::invalid_argument);
}

TEST(Directives, PairPruneMatchesExactPairOnly) {
  resources::ResourceDb db = resources::ResourceDb::with_standard_hierarchies();
  db.add_resource("/Code/a.f");
  DirectiveSet d;
  const Focus whole = Focus::whole_program(db);
  const Focus narrowed = whole.with_part(0, "/Code/a.f");
  d.pair_prunes.push_back({"CPUbound", narrowed.name()});
  EXPECT_TRUE(d.is_pruned("CPUbound", narrowed));
  EXPECT_FALSE(d.is_pruned("ExcessiveSyncWaitingTime", narrowed));
  EXPECT_FALSE(d.is_pruned("CPUbound", whole));
  // Wildcard hypothesis applies to all.
  DirectiveSet w;
  w.pair_prunes.push_back({"*", narrowed.name()});
  EXPECT_TRUE(w.is_pruned("Whatever", narrowed));
}

TEST(Directives, PairPruneMappingRewritesFocus) {
  DirectiveSet d;
  d.maps.push_back({"/Code/oned.f", "/Code/onednb.f"});
  d.pair_prunes.push_back({"H", "</Code/oned.f,/Machine,/Process,/SyncObject>"});
  d.apply_mappings();
  EXPECT_EQ(d.pair_prunes[0].focus, "</Code/onednb.f,/Machine,/Process,/SyncObject>");
}

TEST(Consultant, PairPrunesSkipExactTests) {
  const auto trace = bottleneck_trace();
  const TraceView view(trace);
  PerformanceConsultant base_pc(view, quick_config());
  const DiagnosisResult base = base_pc.run();

  // Prune every pair that tested false in the base run.
  DirectiveSet d;
  for (const auto& n : base.nodes)
    if (n.status == NodeStatus::False) d.pair_prunes.push_back({n.hypothesis, n.focus});
  ASSERT_FALSE(d.pair_prunes.empty());

  PerformanceConsultant pruned_pc(view, quick_config(), d);
  const DiagnosisResult pruned = pruned_pc.run();
  EXPECT_LE(pruned.stats.pairs_tested,
            base.stats.pairs_tested - d.pair_prunes.size() + 8 /*new deeper pairs*/);
  // All clearly-true base bottlenecks are still found (pairs measured at
  // the threshold can legitimately conclude differently run to run).
  for (const auto& b : base.bottlenecks) {
    if (b.fraction < 0.22) continue;
    EXPECT_TRUE(std::any_of(pruned.bottlenecks.begin(), pruned.bottlenecks.end(),
                            [&](const auto& x) {
                              return x.hypothesis == b.hypothesis && x.focus == b.focus;
                            }))
        << b.hypothesis << " : " << b.focus;
  }
}

TEST(Generator, FalsePairPrunesFromRecord) {
  const auto trace = bottleneck_trace(600.0);
  const TraceView view(trace);
  PerformanceConsultant pc(view, quick_config());
  const DiagnosisResult result = pc.run();
  const history::ExperimentRecord record =
      history::make_record("test", "1", view, result, 0.2);
  history::GeneratorOptions opts;
  opts.false_pair_prunes = true;
  opts.priorities = false;
  opts.general_prunes = false;
  opts.historic_prunes = false;
  const DirectiveSet d = history::DirectiveGenerator(opts).from_record(record);
  std::size_t false_nodes = 0;
  for (const auto& n : result.nodes)
    if (n.status == NodeStatus::False) ++false_nodes;
  EXPECT_EQ(d.pair_prunes.size(), false_nodes);
  EXPECT_TRUE(d.priorities.empty());
}

// ----------------------------------------------------- directive fuzzing

/// Property sweep: random directive sets (priorities, prunes, pair prunes,
/// thresholds drawn from the base run's own nodes) must never crash the
/// search, and basic invariants must hold regardless of direction.
class DirectiveFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(DirectiveFuzz, SearchInvariantsHoldUnderRandomDirection) {
  static const simmpi::ExecutionTrace trace = bottleneck_trace(800.0);
  const TraceView view(trace);
  PerformanceConsultant base_pc(view, quick_config());
  static const DiagnosisResult base = [&] {
    PerformanceConsultant pc(view, quick_config());
    return pc.run();
  }();

  util::Rng rng(GetParam());
  DirectiveSet d;
  for (const auto& n : base.nodes) {
    switch (rng.next_below(6)) {
      case 0:
        d.priorities.push_back({n.hypothesis, n.focus, Priority::High});
        break;
      case 1:
        d.priorities.push_back({n.hypothesis, n.focus, Priority::Low});
        break;
      case 2:
        d.pair_prunes.push_back({n.hypothesis, n.focus});
        break;
      default:
        break;  // leave the pair alone
    }
  }
  if (rng.next_below(2)) d.prunes.push_back({"*", "/Machine"});
  if (rng.next_below(2))
    d.thresholds.push_back({"ExcessiveSyncWaitingTime", rng.uniform(0.05, 0.5)});

  PerformanceConsultant pc(view, quick_config(), d);
  const DiagnosisResult r = pc.run();

  // Invariants: every reported bottleneck crossed its threshold; counters
  // are consistent; nothing pruned was tested.
  EXPECT_EQ(r.stats.bottlenecks, r.bottlenecks.size());
  EXPECT_LE(r.stats.pairs_tested, r.stats.nodes_created + d.priorities.size());
  for (const auto& b : r.bottlenecks) {
    EXPECT_GE(b.fraction, 0.05 - 1e-9);
    EXPECT_LE(b.t_found, r.stats.end_time + 1e-9);
  }
  for (const auto& n : r.nodes) {
    auto focus = resources::Focus::parse(n.focus, view.resources(), false);
    ASSERT_TRUE(focus.has_value());
    if (d.is_pruned(n.hypothesis, *focus))
      ADD_FAILURE() << "pruned pair was created: " << n.hypothesis << " " << n.focus;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectiveFuzz, testing::Range<std::uint64_t>(1, 13));

// ------------------------------------------------------------ time_to_find

TEST(TimeToFind, QuantileSemantics) {
  DiagnosisResult r;
  r.bottlenecks = {{"H", "<a>", 10.0, 0.5}, {"H", "<b>", 20.0, 0.5}, {"H", "<c>", 30.0, 0.5},
                   {"H", "<d>", 40.0, 0.5}};
  const auto& ref = r.bottlenecks;
  EXPECT_DOUBLE_EQ(r.time_to_find(ref, 25.0), 10.0);
  EXPECT_DOUBLE_EQ(r.time_to_find(ref, 50.0), 20.0);
  EXPECT_DOUBLE_EQ(r.time_to_find(ref, 75.0), 30.0);
  EXPECT_DOUBLE_EQ(r.time_to_find(ref, 100.0), 40.0);
  // 60% of 4 = 2.4 -> needs 3 found.
  EXPECT_DOUBLE_EQ(r.time_to_find(ref, 60.0), 30.0);
}

TEST(TimeToFind, MissingItemsYieldInfinity) {
  DiagnosisResult r;
  r.bottlenecks = {{"H", "<a>", 10.0, 0.5}};
  std::vector<BottleneckReport> ref = {{"H", "<a>", 0, 0}, {"H", "<zzz>", 0, 0}};
  EXPECT_DOUBLE_EQ(r.time_to_find(ref, 50.0), 10.0);
  EXPECT_TRUE(std::isinf(r.time_to_find(ref, 100.0)));
  EXPECT_DOUBLE_EQ(r.time_to_find({}, 100.0), 0.0);
}

}  // namespace
}  // namespace histpc::pc
