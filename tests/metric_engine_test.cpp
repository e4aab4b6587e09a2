// Property and unit tests for the indexed/batched metric engine: the
// columnar IntervalIndex and MetricBatch must agree with the retained
// linear-scan oracle (MetricInstance) on every trace, focus, and window.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/session.h"
#include "metrics/interval_index.h"
#include "metrics/metric_batch.h"
#include "metrics/metric_instance.h"
#include "metrics/trace_view.h"
#include "simmpi/program.h"
#include "simmpi/simulator.h"
#include "util/rng.h"

namespace histpc::metrics {
namespace {

using resources::Focus;
using simmpi::FunctionScope;
using simmpi::Recorder;

// ------------------------------------------------- random trace generation

struct RoundSpec {
  std::vector<int> func_of_rank;  ///< index into the pool, -1 = unscoped
  std::vector<double> compute;
  std::vector<double> io;  ///< 0 = no I/O this round
  int comm = 0;            ///< 0 = none, 1 = pairwise messages, 2 = barrier
  int tag = 0;
};

constexpr std::pair<const char*, const char*> kFuncPool[] = {
    {"kernel", "kern.c"}, {"solver", "kern.c"},     {"exchange", "comm.c"},
    {"pack", "comm.c"},   {"checkpoint", "disk.c"}, {"main", "main.c"},
};
constexpr int kPoolSize = static_cast<int>(std::size(kFuncPool));

/// A random-but-deterministic SPMD program: random per-rank function scopes,
/// compute and I/O bursts, interleaved with pairwise messages (random tags)
/// and barriers so every interval state and sync-object kind appears.
simmpi::ExecutionTrace random_trace(util::Rng& rng) {
  const int nranks = 2 + static_cast<int>(rng.next_below(4));  // 2..5
  const int nrounds = 6 + static_cast<int>(rng.next_below(10));

  std::vector<RoundSpec> rounds(static_cast<std::size_t>(nrounds));
  for (auto& round : rounds) {
    for (int r = 0; r < nranks; ++r) {
      round.func_of_rank.push_back(rng.next_double() < 0.15
                                       ? -1
                                       : static_cast<int>(rng.next_below(kPoolSize)));
      round.compute.push_back(rng.uniform(0.01, 0.6));
      round.io.push_back(rng.next_double() < 0.3 ? rng.uniform(0.01, 0.2) : 0.0);
    }
    const double p = rng.next_double();
    round.comm = p < 0.4 ? 1 : (p < 0.6 ? 2 : 0);
    round.tag = 1 + static_cast<int>(rng.next_below(3));
  }

  simmpi::MachineSpec m = simmpi::MachineSpec::one_to_one(nranks, "node", "proc");
  simmpi::ProgramBuilder b(m);
  b.record([&](Recorder& r) {
    FunctionScope fmain(r, "main", "main.c");
    for (const RoundSpec& round : rounds) {
      const auto rank = static_cast<std::size_t>(r.rank());
      const int f = round.func_of_rank[rank];
      if (f >= 0) {
        FunctionScope scope(r, kFuncPool[f].first, kFuncPool[f].second);
        r.compute(round.compute[rank]);
      } else {
        r.compute(round.compute[rank]);
      }
      if (round.io[rank] > 0) r.io(round.io[rank]);
      if (round.comm == 1 && nranks > 1) {
        // Even ranks send to their odd neighbour; a trailing odd-man-out
        // rank sits the exchange round out.
        if (r.rank() % 2 == 0 && r.rank() + 1 < r.size())
          r.send(r.rank() + 1, round.tag, 1 << 12);
        else if (r.rank() % 2 == 1)
          r.recv(r.rank() - 1, round.tag);
      } else if (round.comm == 2) {
        r.barrier();
      }
    }
  });
  return simmpi::Simulator().run(b.build());
}

/// A random focus drawn from resources that exist in the trace (plus the
/// unconstrained root for each hierarchy).
Focus random_focus(util::Rng& rng, const TraceView& view) {
  const simmpi::ExecutionTrace& trace = view.trace();
  Focus f = Focus::whole_program(view.resources());

  const double code = rng.next_double();
  if (code < 0.4 && !trace.functions.empty()) {
    const auto& fi = trace.functions[rng.next_below(trace.functions.size())];
    f = f.with_part(0, "/Code/" + fi.module + "/" + fi.function);
  } else if (code < 0.6 && !trace.functions.empty()) {
    const auto& fi = trace.functions[rng.next_below(trace.functions.size())];
    f = f.with_part(0, "/Code/" + fi.module);
  }

  const double where = rng.next_double();
  if (where < 0.25) {
    f = f.with_part(1, "/Machine/" +
                           trace.machine.node_names[rng.next_below(
                               trace.machine.node_names.size())]);
  } else if (where < 0.5) {
    f = f.with_part(2, "/Process/" +
                           trace.machine.process_names[rng.next_below(
                               trace.machine.process_names.size())]);
  }

  const double sync = rng.next_double();
  if (sync < 0.25 && !trace.sync_objects.empty()) {
    f = f.with_part(3, "/SyncObject/" +
                           trace.sync_objects[rng.next_below(trace.sync_objects.size())]);
  } else if (sync < 0.35) {
    f = f.with_part(3, "/SyncObject/Message");
  }
  return f;
}

// --------------------------------------------- indexed == scan (property)

TEST(MetricEngineProperty, IndexedQueryMatchesScanOracle) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed);
    const simmpi::ExecutionTrace trace = random_trace(rng);
    ASSERT_NO_THROW(trace.validate());
    const TraceView view(trace);
    for (int i = 0; i < 40; ++i) {
      const Focus focus = random_focus(rng, view);
      const FocusFilter& filter = view.compiled(focus);
      double t0 = rng.uniform(-0.5, trace.duration + 0.5);
      double t1 = rng.uniform(-0.5, trace.duration + 0.5);
      if (t1 < t0) std::swap(t0, t1);
      for (MetricKind metric : kAllMetrics) {
        const double indexed = view.query(metric, filter, t0, t1);
        const double scanned = view.query_scan(metric, filter, t0, t1);
        EXPECT_NEAR(indexed, scanned, 1e-9)
            << "seed " << seed << " focus " << focus.name() << " metric "
            << metric_name(metric) << " window [" << t0 << ", " << t1 << ")";
      }
    }
  }
}

// ------------------------------------- batch == per-instance scan (exact)

TEST(MetricEngineProperty, SequentialBatchIsBitIdenticalToInstances) {
  for (std::uint64_t seed = 10; seed <= 13; ++seed) {
    util::Rng rng(seed);
    const simmpi::ExecutionTrace trace = random_trace(rng);
    const TraceView view(trace);

    MetricBatch batch(view);
    std::vector<MetricInstance> instances;
    std::vector<MetricBatch::SlotId> slots;
    std::vector<const FocusFilter*> filters;

    // Slots join the batch mid-run (start >= current cursor), mirroring how
    // the consultant inserts probes over time.
    double now = 0.0;
    int added = 0;
    while (now < trace.duration) {
      const int join = static_cast<int>(rng.next_below(3));
      for (int j = 0; j < join && added < 12; ++j, ++added) {
        const Focus focus = random_focus(rng, view);
        const FocusFilter& filter = view.compiled(focus);
        const MetricKind metric = kAllMetrics[rng.next_below(std::size(kAllMetrics))];
        const double start = now + rng.uniform(0.0, 0.4);
        slots.push_back(batch.add(metric, filter, start));
        instances.emplace_back(view, metric, filter, start);
        filters.push_back(&filter);
      }
      now += rng.uniform(0.05, 0.9);
      batch.advance_all(now);
      for (auto& inst : instances) inst.advance(now);
      for (std::size_t k = 0; k < slots.size(); ++k) {
        EXPECT_DOUBLE_EQ(batch.value(slots[k]), instances[k].value()) << "seed " << seed;
        EXPECT_DOUBLE_EQ(batch.observed(slots[k]), instances[k].observed());
      }
    }
  }
}

TEST(MetricEngine, RemovedSlotStopsAccumulating) {
  util::Rng rng(42);
  const simmpi::ExecutionTrace trace = random_trace(rng);
  const TraceView view(trace);
  const FocusFilter& filter = view.compiled(Focus::whole_program(view.resources()));

  MetricBatch batch(view);
  const auto kept = batch.add(MetricKind::ExecTime, filter, 0.0);
  const auto removed = batch.add(MetricKind::ExecTime, filter, 0.0);
  const double mid = trace.duration / 2;
  batch.advance_all(mid);
  const double at_removal = batch.value(removed);
  EXPECT_GT(at_removal, 0.0);
  batch.remove(removed);
  batch.advance_all(trace.duration);
  EXPECT_DOUBLE_EQ(batch.value(removed), at_removal);
  EXPECT_GT(batch.value(kept), at_removal);
  EXPECT_EQ(batch.num_active(), 1u);
}

// ------------------------------------------------------------ unit tests

/// Fixed two-rank trace (same shape as metrics_test): rank 0 computes 2s in
/// kernel then sends; rank 1 waits ~2s, computes 1s, does 0.5s of I/O.
simmpi::ExecutionTrace small_trace() {
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
      r.compute(1.5);
    } else {
      r.recv(0, 5);
      r.compute(1.0);
      r.io(0.5);
    }
  });
  simmpi::NetworkModel net;
  net.latency = 0.0;
  net.bytes_per_second = 1e9;
  return simmpi::Simulator(net).run(b.build());
}

class MetricEngineUnit : public testing::Test {
 protected:
  MetricEngineUnit() : trace_(small_trace()), view_(trace_) {}
  simmpi::ExecutionTrace trace_;
  TraceView view_;
};

TEST_F(MetricEngineUnit, WindowInsideOneIntervalStraddlesBothEnds) {
  // [0.5, 1.25) lies strictly inside the kernel's [0, 2) interval: the
  // index's boundary clipping handles a window with no interior.
  Focus f = Focus::whole_program(view_.resources()).with_part(0, "/Code/kern.c/kernel");
  const FocusFilter& filter = view_.compiled(f);
  EXPECT_NEAR(view_.query(MetricKind::CpuTime, filter, 0.5, 1.25), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(view_.query(MetricKind::CpuTime, filter, 0.5, 1.25),
                   view_.query_scan(MetricKind::CpuTime, filter, 0.5, 1.25));
}

TEST_F(MetricEngineUnit, WindowStraddlingIntervalBoundaryClips) {
  Focus f = Focus::whole_program(view_.resources()).with_part(0, "/Code/kern.c/kernel");
  const FocusFilter& filter = view_.compiled(f);
  EXPECT_NEAR(view_.query(MetricKind::CpuTime, filter, 1.5, 10.0), 0.5, 1e-12);
  EXPECT_NEAR(view_.query(MetricKind::CpuTime, filter, -3.0, 0.25), 0.25, 1e-12);
}

TEST_F(MetricEngineUnit, ZeroWidthWindowIsZero) {
  const FocusFilter& filter = view_.compiled(Focus::whole_program(view_.resources()));
  for (MetricKind metric : kAllMetrics) {
    EXPECT_DOUBLE_EQ(view_.query(metric, filter, 1.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(view_.fraction(metric, filter, 1.0, 1.0), 0.0);
  }
}

TEST_F(MetricEngineUnit, EmptyRankSelectionIsZeroEverywhere) {
  FocusFilter filter = view_.compile(Focus::whole_program(view_.resources()));
  filter.ranks.assign(filter.ranks.size(), false);
  filter.finalize();
  EXPECT_EQ(filter.num_selected_ranks, 0);
  EXPECT_DOUBLE_EQ(view_.query(MetricKind::ExecTime, filter, 0.0, trace_.duration), 0.0);
  EXPECT_DOUBLE_EQ(view_.fraction(MetricKind::ExecTime, filter, 0.0, trace_.duration), 0.0);

  MetricBatch batch(view_);
  const auto slot = batch.add(MetricKind::ExecTime, filter, 0.0);
  batch.advance_all(trace_.duration);
  EXPECT_DOUBLE_EQ(batch.value(slot), 0.0);
  EXPECT_DOUBLE_EQ(batch.fraction(slot), 0.0);
}

TEST_F(MetricEngineUnit, CompiledCacheReturnsStableReferences) {
  const Focus whole = Focus::whole_program(view_.resources());
  const FocusFilter* first = &view_.compiled(whole);
  // Churn the cache with every function-level focus; the first reference
  // must survive (MetricBatch keeps such pointers for the whole search).
  for (const auto& fi : trace_.functions)
    view_.compiled(whole.with_part(0, "/Code/" + fi.module + "/" + fi.function));
  EXPECT_EQ(first, &view_.compiled(whole));
  EXPECT_EQ(first->num_selected_ranks, 2);
}

// ------------------------------------------- consultant end-to-end parity

TEST(MetricEngineConsultant, BatchedAndScanEnginesProduceIdenticalDiagnoses) {
  apps::AppParams params;
  params.target_duration = 300.0;
  pc::PcConfig batched;
  batched.batched_eval = true;
  pc::PcConfig scan;
  scan.batched_eval = false;

  core::DiagnosisSession a("poisson_a", params, batched);
  core::DiagnosisSession b("poisson_a", params, scan);
  const pc::DiagnosisResult ra = a.diagnose();
  const pc::DiagnosisResult rb = b.diagnose();

  EXPECT_EQ(ra.stats.pairs_tested, rb.stats.pairs_tested);
  EXPECT_EQ(ra.stats.nodes_created, rb.stats.nodes_created);
  ASSERT_EQ(ra.bottlenecks.size(), rb.bottlenecks.size());
  for (std::size_t i = 0; i < ra.bottlenecks.size(); ++i) {
    EXPECT_EQ(ra.bottlenecks[i].hypothesis, rb.bottlenecks[i].hypothesis);
    EXPECT_EQ(ra.bottlenecks[i].focus, rb.bottlenecks[i].focus);
    EXPECT_DOUBLE_EQ(ra.bottlenecks[i].t_found, rb.bottlenecks[i].t_found);
    EXPECT_DOUBLE_EQ(ra.bottlenecks[i].fraction, rb.bottlenecks[i].fraction);
  }
}

}  // namespace
}  // namespace histpc::metrics
