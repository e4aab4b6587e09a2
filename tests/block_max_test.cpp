// Property and unit tests for the block-max metric engine (BlockIndex +
// the SIMD masked-sum kernels + MetricBatch's block-skip fast path).
//
//  * query_blocks must agree with the interval index and the linear-scan
//    oracle on every trace, focus, window, and block size — including
//    block size 1, sizes that leave ragged tail blocks, and sizes larger
//    than any rank's interval count (single-block);
//  * the three SIMD dispatch levels (scalar / SSE4.2 / AVX2) must be
//    bit-identical to each other — the kernels share one deterministic
//    4-lane accumulation contract precisely so a forced-scalar fallback
//    run reproduces the vectorized bits;
//  * MetricBatch with block skipping stays bit-identical to the
//    per-instance scan engine (the skip path elides only provably-zero
//    work), and its telemetry records nonzero skips for narrow probes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "metrics/block_index.h"
#include "metrics/metric_batch.h"
#include "metrics/metric_instance.h"
#include "metrics/simd_kernels.h"
#include "metrics/trace_view.h"
#include "simmpi/program.h"
#include "simmpi/simulator.h"
#include "telemetry/registry.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace histpc::metrics {
namespace {

using resources::Focus;
using simmpi::FunctionScope;
using simmpi::Recorder;

// ------------------------------------------------- random trace generation
// (same generator shape as metric_engine_test: every interval state and
// sync-object kind appears, functions cluster per round so block summaries
// actually discriminate).

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

// ------------------------------------- block-max == index == scan (property)

TEST(BlockMaxProperty, QueryMatchesIndexAndScanOracles) {
  // Block sizes hit the edge shapes: per-interval (1), ragged tails (3, 7),
  // the production default, and single-block (larger than any rank).
  const std::size_t kBlockSizes[] = {1, 3, 7, BlockIndex::kDefaultBlockSize, 1u << 20};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(seed);
    const simmpi::ExecutionTrace trace = random_trace(rng);
    ASSERT_NO_THROW(trace.validate());
    const TraceView view(trace);
    // unique_ptr elements: BlockIndex owns atomics, so it is immovable.
    std::vector<std::unique_ptr<BlockIndex>> indexes;
    for (std::size_t bs : kBlockSizes)
      indexes.push_back(std::make_unique<BlockIndex>(trace, nullptr, bs));

    for (int i = 0; i < 25; ++i) {
      const Focus focus = random_focus(rng, view);
      const FocusFilter& filter = view.compiled(focus);
      double t0 = rng.uniform(-0.5, trace.duration + 0.5);
      double t1 = rng.uniform(-0.5, trace.duration + 0.5);
      if (t1 < t0) std::swap(t0, t1);
      for (MetricKind metric : kAllMetrics) {
        const double indexed = view.query(metric, filter, t0, t1);
        const double scanned = view.query_scan(metric, filter, t0, t1);
        const double viewed = view.query_blocks(metric, filter, t0, t1);
        EXPECT_NEAR(viewed, indexed, 1e-9)
            << "seed " << seed << " focus " << focus.name() << " metric "
            << metric_name(metric) << " window [" << t0 << ", " << t1 << ")";
        EXPECT_NEAR(viewed, scanned, 1e-9) << "seed " << seed;
        for (std::size_t bi = 0; bi < indexes.size(); ++bi) {
          const double blocked = indexes[bi]->query(filter, metric, t0, t1);
          EXPECT_NEAR(blocked, indexed, 1e-9)
              << "seed " << seed << " block size " << kBlockSizes[bi] << " focus "
              << focus.name() << " metric " << metric_name(metric) << " window ["
              << t0 << ", " << t1 << ")";
        }
      }
    }
    // The summaries must actually have pruned work somewhere across the
    // randomized workload (narrow foci exist by construction).
    const BlockIndex::Stats s = indexes[0]->stats();
    EXPECT_GT(s.blocks_visited, 0u);
  }
}

// ------------------------- SIMD dispatch levels are bit-identical (property)

TEST(BlockMaxProperty, SimdLevelsAreBitIdentical) {
  const util::CpuFeatures& cpu = util::cpu_features();
  std::vector<util::SimdLevel> levels = {util::SimdLevel::Scalar};
  if (cpu.has_sse42) levels.push_back(util::SimdLevel::Sse42);
  if (cpu.has_avx2) levels.push_back(util::SimdLevel::Avx2);
  if (levels.size() == 1)
    GTEST_LOG_(INFO) << "no vector units compiled/available; scalar-only run";

  // Direct kernel check on adversarial lengths (0, tails of 1..3, longer).
  util::Rng krng(7);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 64u, 1001u}) {
    std::vector<double> a(n), b(n);
    std::vector<std::uint8_t> state(n), mask0(n), maskl(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = krng.uniform(0.0, 100.0);
      b[i] = a[i] + krng.uniform(0.0, 2.0);
      state[i] = static_cast<std::uint8_t>(krng.next_below(3));
    }
    for (int pat = 0; pat < 8; ++pat) {
      const bool acc[3] = {(pat & 1) != 0, (pat & 2) != 0, (pat & 4) != 0};
      simd::build_state_mask(mask0.data(), state.data(), acc, n,
                             util::SimdLevel::Scalar);
      const double ref =
          simd::masked_sum(a.data(), b.data(), mask0.data(), n, util::SimdLevel::Scalar);
      for (util::SimdLevel level : levels) {
        simd::build_state_mask(maskl.data(), state.data(), acc, n, level);
        EXPECT_EQ(mask0, maskl) << "n=" << n << " pat=" << pat;
        EXPECT_DOUBLE_EQ(ref,
                         simd::masked_sum(a.data(), b.data(), maskl.data(), n, level))
            << "n=" << n << " pat=" << pat << " level " << util::simd_level_name(level);
      }
    }
  }

  // Whole-query check: a BlockIndex forced to each level returns the exact
  // bits of the forced-scalar one (the scalar-fallback variant of the
  // acceptance criteria).
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    util::Rng rng(seed);
    const simmpi::ExecutionTrace trace = random_trace(rng);
    const TraceView view(trace);
    std::vector<std::unique_ptr<BlockIndex>> forced;
    for (util::SimdLevel level : levels)
      forced.push_back(std::make_unique<BlockIndex>(trace, nullptr, std::size_t{16}, level));
    for (int i = 0; i < 20; ++i) {
      const Focus focus = random_focus(rng, view);
      const FocusFilter& filter = view.compiled(focus);
      double t0 = rng.uniform(-0.5, trace.duration + 0.5);
      double t1 = rng.uniform(-0.5, trace.duration + 0.5);
      if (t1 < t0) std::swap(t0, t1);
      for (MetricKind metric : kAllMetrics) {
        const double scalar = forced[0]->query(filter, metric, t0, t1);
        for (std::size_t li = 1; li < forced.size(); ++li)
          EXPECT_DOUBLE_EQ(scalar, forced[li]->query(filter, metric, t0, t1))
              << "seed " << seed << " level "
              << util::simd_level_name(forced[li]->simd_level()) << " metric "
              << metric_name(metric);
      }
    }
  }
}

// --------------------- batch skip path == per-instance scan (bit-identical)

TEST(BlockMaxProperty, BatchWithBlockSkippingIsBitIdenticalToInstances) {
  for (std::uint64_t seed = 41; seed <= 44; ++seed) {
    util::Rng rng(seed);
    const simmpi::ExecutionTrace trace = random_trace(rng);
    const TraceView view(trace);

    MetricBatch batch(view);
    std::vector<MetricInstance> instances;
    std::vector<MetricBatch::SlotId> slots;

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
      }
      now += rng.uniform(0.05, 0.9);
      batch.advance_all(now);
      for (auto& inst : instances) inst.advance(now);
      for (std::size_t k = 0; k < slots.size(); ++k)
        EXPECT_DOUBLE_EQ(batch.value(slots[k]), instances[k].value()) << "seed " << seed;
    }
  }
}

TEST(BlockMax, BatchTelemetryRecordsBlockSkips) {
  // One big advance with probes that can never match anything (a sync
  // constraint on CpuTime) forces every whole block to be skipped.
  util::Rng rng(99);
  const simmpi::ExecutionTrace trace = random_trace(rng);
  const TraceView view(trace);
  ASSERT_FALSE(trace.sync_objects.empty());
  const Focus narrow = Focus::whole_program(view.resources())
                           .with_part(3, "/SyncObject/" + trace.sync_objects[0]);
  telemetry::Registry registry;
  MetricBatch batch(view, &registry);
  batch.add(MetricKind::CpuTime, view.compiled(narrow), 0.0);
  batch.advance_all(trace.duration + 1.0);
  EXPECT_GT(registry.counter("metrics.batch.blocks_considered"), 0u);
  EXPECT_EQ(registry.counter("metrics.batch.blocks_skipped"),
            registry.counter("metrics.batch.blocks_considered"));
}

// ------------------------------------------------------------ unit tests

/// Fixed two-rank trace: rank 0 computes 2s in kernel then sends; rank 1
/// waits ~2s, computes 1s, does 0.5s of I/O.
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

class BlockMaxUnit : public testing::Test {
 protected:
  BlockMaxUnit() : trace_(small_trace()), view_(trace_) {}
  simmpi::ExecutionTrace trace_;
  TraceView view_;
};

TEST_F(BlockMaxUnit, WindowInsideOneIntervalStraddlesBothEnds) {
  Focus f = Focus::whole_program(view_.resources()).with_part(0, "/Code/kern.c/kernel");
  const FocusFilter& filter = view_.compiled(f);
  EXPECT_NEAR(view_.query_blocks(MetricKind::CpuTime, filter, 0.5, 1.25), 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(view_.query_blocks(MetricKind::CpuTime, filter, 0.5, 1.25),
                   view_.query_scan(MetricKind::CpuTime, filter, 0.5, 1.25));
}

TEST_F(BlockMaxUnit, ZeroWidthAndOutOfRangeWindowsAreZero) {
  const FocusFilter& filter = view_.compiled(Focus::whole_program(view_.resources()));
  for (MetricKind metric : kAllMetrics) {
    EXPECT_DOUBLE_EQ(view_.query_blocks(metric, filter, 1.0, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(view_.query_blocks(metric, filter, -5.0, -1.0), 0.0);
    EXPECT_DOUBLE_EQ(view_.query_blocks(metric, filter, trace_.duration + 1.0,
                                        trace_.duration + 2.0),
                     0.0);
  }
}

TEST_F(BlockMaxUnit, SingleBlockCoversWholeTrace) {
  // Block size far larger than any rank's interval count: one block per
  // rank; full-window queries exercise the fully-covered SUM path.
  BlockIndex one_block(trace_, nullptr, 1u << 20);
  ASSERT_EQ(one_block.num_blocks(0), 1u);
  const FocusFilter& filter = view_.compiled(Focus::whole_program(view_.resources()));
  for (MetricKind metric : kAllMetrics)
    EXPECT_NEAR(one_block.query(filter, metric, -1.0, trace_.duration + 1.0),
                view_.query(metric, filter, -1.0, trace_.duration + 1.0), 1e-9);
}

TEST_F(BlockMaxUnit, BlockSizeOneMatchesIndexEverywhere) {
  BlockIndex fine(trace_, nullptr, 1);
  const FocusFilter& filter = view_.compiled(Focus::whole_program(view_.resources()));
  for (double t0 = -0.25; t0 < trace_.duration; t0 += 0.45)
    for (double t1 = t0; t1 < trace_.duration + 0.5; t1 += 0.6)
      for (MetricKind metric : kAllMetrics)
        EXPECT_NEAR(fine.query(filter, metric, t0, t1),
                    view_.query(metric, filter, t0, t1), 1e-9)
            << "window [" << t0 << ", " << t1 << ")";
}

TEST_F(BlockMaxUnit, RebuiltFromSnapshotColumnsMatches) {
  // The trace-cache hit path: a BlockIndex adopting SoA columns must equal
  // one derived from the AoS intervals.
  simmpi::TraceColumns columns;
  columns.ranks.resize(trace_.ranks.size());
  for (std::size_t r = 0; r < trace_.ranks.size(); ++r) {
    auto& rc = columns.ranks[r];
    for (const auto& iv : trace_.ranks[r].intervals) {
      rc.t0.push_back(iv.t0);
      rc.t1.push_back(iv.t1);
      rc.state.push_back(static_cast<std::uint8_t>(iv.state));
      rc.func.push_back(iv.func);
      rc.sync.push_back(iv.sync_object);
    }
  }
  ASSERT_TRUE(columns.matches(trace_));
  BlockIndex from_columns(trace_, &columns, 4);
  BlockIndex from_trace(trace_, nullptr, 4);
  const FocusFilter& filter = view_.compiled(Focus::whole_program(view_.resources()));
  for (MetricKind metric : kAllMetrics)
    EXPECT_DOUBLE_EQ(from_columns.query(filter, metric, 0.0, trace_.duration),
                     from_trace.query(filter, metric, 0.0, trace_.duration));
}

// ------------------------------------------- consultant end-to-end parity

TEST(BlockMaxConsultant, DiagnosesIdenticalToScanEngine) {
  // The batched engine now rides the block-skip fast path; diagnoses must
  // still be bit-identical to the per-instance scan engine.
  apps::AppParams params;
  params.target_duration = 200.0;
  pc::PcConfig batched;
  batched.batched_eval = true;
  pc::PcConfig scan;
  scan.batched_eval = false;

  core::DiagnosisSession a("poisson_b", params, batched);
  core::DiagnosisSession b("poisson_b", params, scan);
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
