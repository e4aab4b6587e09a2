// The search runs on interned FocusIds: a counters-only diagnosis builds
// canonical focus names only for its result snapshot. (Search output
// itself is pinned by the golden diagnoses, tests/golden_test.cpp.)
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "metrics/trace_view.h"
#include "pc/consultant.h"
#include "simmpi/program.h"
#include "simmpi/simulator.h"
#include "util/rng.h"

namespace histpc::pc {
namespace {

using metrics::TraceView;
using simmpi::FunctionScope;
using simmpi::Recorder;

/// Randomized bottleneck workload: `ranks` ranks where the upper half
/// waits on messages from the lower half inside "exchange"; rng varies
/// the rank count, compute asymmetry, message tag, and an optional extra
/// hot function so different seeds exercise different SHG shapes.
simmpi::ExecutionTrace random_trace(util::Rng& rng) {
  const int pairs = 1 + static_cast<int>(rng.next_below(2));  // 2 or 4 ranks
  const int ranks = 2 * pairs;
  const int tag = 3 + static_cast<int>(rng.next_below(5));
  const double fast = 0.1 + 0.1 * static_cast<double>(rng.next_below(3));
  const bool extra_func = rng.next_below(2) == 0;
  const int iters = 900;
  simmpi::ProgramBuilder b(simmpi::MachineSpec::one_to_one(ranks, "node", "app"));
  b.record([&](Recorder& r) {
    FunctionScope fmain(r, "main", "main.c");
    for (int i = 0; i < iters; ++i) {
      {
        FunctionScope f(r, "work", "work.c");
        r.compute(r.rank() >= pairs ? fast : 1.0);
      }
      if (extra_func) {
        FunctionScope f(r, "checkpoint", "io.c");
        r.compute(0.05);
      }
      {
        FunctionScope f(r, "exchange", "comm.c");
        if (r.rank() >= pairs) {
          r.recv(r.rank() - pairs, tag);
        } else {
          r.send(r.rank() + pairs, tag, 64);
        }
        r.barrier();
      }
    }
  });
  simmpi::NetworkModel net;
  net.latency = 1e-4;
  return simmpi::Simulator(net).run(b.build());
}

/// With no event sink attached, the search builds canonical focus names
/// only when the result snapshot is materialized — exactly one per
/// distinct node focus, never for probe foci, pruned or deferred
/// candidates.
TEST(InternTelemetry, CountersOnlySearchBuildsOnlySnapshotNames) {
  util::Rng rng(99);
  const simmpi::ExecutionTrace trace = random_trace(rng);
  const TraceView view(trace);
  ASSERT_EQ(view.foci().names_built(), 0u);

  PerformanceConsultant pc(view, PcConfig{});
  const DiagnosisResult result = pc.run();

  std::set<std::string> distinct_node_foci;
  for (const auto& node : result.nodes) distinct_node_foci.insert(node.focus);
  EXPECT_EQ(view.foci().names_built(), distinct_node_foci.size());
  EXPECT_GE(view.foci().size(), distinct_node_foci.size());
}

}  // namespace
}  // namespace histpc::pc
