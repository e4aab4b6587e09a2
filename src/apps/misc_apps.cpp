// Small demonstration programs: "Tester" (paper Figure 1) and "bubba"
// (paper Figure 2).
#include <vector>

#include "apps/apps.h"

namespace histpc::apps {

using simmpi::FunctionScope;
using simmpi::MachineSpec;
using simmpi::Recorder;

/// The example program of Figure 1: three resource hierarchies —
/// Code {main.C, testutil.C, vect.C}, Machine {CPU_1..4},
/// Process {Tester:1..4}.
simmpi::ProgramSpec tester_spec(const AppParams& params) {
  const int nranks = 4;
  MachineSpec machine;
  for (int i = 0; i < nranks; ++i) {
    machine.node_names.push_back("CPU_" + std::to_string(params.node_base + i));
    machine.node_speeds.push_back(1.0);
    machine.rank_to_node.push_back(i);
    machine.process_names.push_back("Tester:" + std::to_string(i + 1));
  }

  const int iterations = std::max(1, static_cast<int>(params.target_duration / 1.0));
  auto body = [=](Recorder& r) {
    const int rank = r.rank();
    FunctionScope fn_main(r, "main", "main.C");
    for (int iter = 0; iter < iterations; ++iter) {
      {
        FunctionScope fn(r, "vect::addEl", "vect.C");
        r.compute(0.25);
      }
      {
        FunctionScope fn(r, "vect::findEl", "vect.C");
        r.compute(0.35);
      }
      {
        FunctionScope fn(r, "verifyA", "testutil.C");
        r.compute(rank == 1 ? 0.30 : 0.05);  // Tester:2's verifyA is hot (Fig. 1 focus)
      }
      {
        FunctionScope fn(r, "verifyB", "testutil.C");
        r.compute(0.05);
      }
      if (iter % 10 == 9) {
        FunctionScope fn(r, "printstatus", "main.C");
        r.compute(0.002);
      }
      if (iter % 50 == 49) {
        FunctionScope fn(r, "vect::print", "vect.C");
        r.compute(0.002);
      }
      r.barrier();
    }
  };
  return {std::move(machine), {params.compute_jitter, params.seed}, std::move(body)};
}

/// The program of the Figure 2 search: a CPU-bound graph partitioner.
/// CPUbound tests true and refines; the modules bubba.C, channel.C,
/// anneal.C, outchan.C and graph.C test false while partition.C and the
/// machine node "goat" test true.
simmpi::ProgramSpec bubba_spec(const AppParams& params) {
  const int nranks = 4;
  MachineSpec machine;
  const char* nodes[] = {"goat", "moose", "elk", "bison"};
  for (int i = 0; i < nranks; ++i) {
    machine.node_names.push_back(nodes[i]);
    machine.node_speeds.push_back(1.0);
    machine.rank_to_node.push_back(i);
    machine.process_names.push_back("bubba:" + std::to_string(i + 1));
  }

  const int iterations = std::max(1, static_cast<int>(params.target_duration / 2.2));
  auto body = [=](Recorder& r) {
    const int rank = r.rank();
    // goat (rank 0) carries the dominant partitioning load.
    const double hot = rank == 0 ? 1.6 : 0.9;
    FunctionScope fn_main(r, "main", "bubba.C");
    for (int iter = 0; iter < iterations; ++iter) {
      {
        FunctionScope fn(r, "partition", "partition.C");
        r.compute(hot * 0.9);
      }
      {
        FunctionScope fn(r, "anneal", "anneal.C");
        r.compute(0.12);
      }
      {
        FunctionScope fn(r, "buildGraph", "graph.C");
        r.compute(0.08);
      }
      {
        FunctionScope fn(r, "sendChannel", "channel.C");
        r.compute(0.04);
        const int peer = rank ^ 1;
        if (rank < peer) {
          r.send(peer, 0, 2048);
          r.recv(peer, 0);
        } else {
          r.recv(peer, 0);
          r.send(peer, 0, 2048);
        }
      }
      {
        FunctionScope fn(r, "writeOut", "outchan.C");
        r.io(0.03);
      }
      r.barrier();
    }
  };
  return {std::move(machine), {params.compute_jitter, params.seed}, std::move(body)};
}

}  // namespace histpc::apps
