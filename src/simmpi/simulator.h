// Deterministic discrete-event simulation of recorded SPMD programs.
//
// Messaging model (LogP-flavored):
//  * eager sends (bytes <= eager_limit) complete locally at post time; the
//    message arrives at the destination latency + bytes/bandwidth later.
//  * rendezvous sends block until the matching receive is posted; the
//    transfer then runs from max(post times) and both sides complete at its
//    end. A blocked rendezvous sender accrues synchronization wait time.
//  * receives complete at max(post time, message arrival); the gap is
//    synchronization wait attributed to the message's tag resource.
//  * collectives (barrier / allreduce) release all ranks at the latest
//    arrival plus a log2(N) tree cost; the gap from each rank's arrival is
//    synchronization wait on the collective's sync object.
//
// Matching is FIFO per (src, dst, tag, comm) channel, which — together with
// per-rank sequential execution — preserves MPI's non-overtaking rule.
// Wildcard receives (kAnySource, which the taskfarm master uses to collect
// results) match the earliest-posted pending send addressed to the rank,
// ties broken by the lowest source rank, so matching stays deterministic
// (see kAnySource in ops.h).
#pragma once

#include <cstddef>

#include "simmpi/program.h"
#include "simmpi/trace.h"
#include "telemetry/tracer.h"

namespace histpc::simmpi {

struct NetworkModel {
  double latency = 40e-6;              ///< per-message latency (seconds)
  double bytes_per_second = 90.0e6;    ///< point-to-point bandwidth
  std::size_t eager_limit = 16 * 1024; ///< eager/rendezvous protocol switch
  /// Local CPU cost of posting a send/receive. Zero by default so traces
  /// stay compact; applications model their own messaging overhead as
  /// explicit compute.
  double post_overhead = 0.0;

  double transfer_time(std::size_t bytes) const {
    return latency + static_cast<double>(bytes) / bytes_per_second;
  }
  /// Tree-structured collective cost for `nranks` participants.
  double collective_cost(int nranks, std::size_t bytes) const;
};

class Simulator {
 public:
  explicit Simulator(NetworkModel net = {}) : net_(net) {}

  const NetworkModel& network() const { return net_; }

  /// Execute `program` to completion. Throws std::runtime_error on
  /// deadlock (with a per-rank diagnostic) and std::logic_error on
  /// malformed programs (collective kind mismatch, double wait, ...).
  ExecutionTrace run(const SimProgram& program) const { return run(program, nullptr); }

  /// As above, with telemetry: a "simulate" phase spanning the virtual
  /// execution, simulation volume counters (ranks, ops, intervals), and a
  /// wall-clock "sim.run" timer in the tracer's registry.
  ExecutionTrace run(const SimProgram& program, telemetry::Tracer* tracer) const;

 private:
  NetworkModel net_;
};

}  // namespace histpc::simmpi
