// Ocean-circulation analogue (Section 4.2's PVM code on SPARCstations).
//
// Its bottleneck profile is deliberately different from the Poisson code:
// the significant synchronization fractions cluster above ~21% and the
// insignificant ones below ~12%, so the most useful threshold is ~20%
// rather than the MPI application's ~12% — demonstrating why historical,
// application-specific thresholds beat a global default.
#include <vector>

#include "apps/apps.h"

namespace histpc::apps {

using simmpi::FunctionScope;
using simmpi::MachineSpec;
using simmpi::Recorder;
using simmpi::RequestId;

simmpi::NetworkModel ocean_network() {
  simmpi::NetworkModel net;
  // 10 Mbit Ethernet between workstations: high latency, low bandwidth.
  net.latency = 800e-6;
  net.bytes_per_second = 1.1e6;
  net.eager_limit = 4 * 1024;
  return net;
}

simmpi::ProgramSpec ocean_spec(const AppParams& params) {
  const int nranks = 4;
  std::string node_prefix = params.node_prefix.empty() ? "spark" : params.node_prefix;
  MachineSpec machine = MachineSpec::one_to_one(nranks, node_prefix, "ocean", params.node_base);

  // Moderate imbalance: coastal strips (ranks 0, 3) carry more work.
  const std::vector<double> factors = {1.0, 0.62, 0.58, 0.92};
  const double c_step = 0.55;    // barotropic step
  const double c_relax = 0.25;   // relaxation solve
  const std::size_t halo = 96 * 1024;
  const std::size_t reduce_bytes = 48 * 1024;

  const simmpi::NetworkModel net = ocean_network();
  const double iter_time = c_step + c_relax + 2 * net.transfer_time(halo) +
                           net.transfer_time(reduce_bytes);
  const int iterations = std::max(1, static_cast<int>(params.target_duration / iter_time));

  auto body = [=](Recorder& r) {
    const int rank = r.rank();
    const double f = factors.at(static_cast<std::size_t>(rank));
    FunctionScope fn_main(r, "main", "ocean.c");
    {
      FunctionScope fn(r, "readgrid", "gridio.c");
      r.io(1.2);  // one-time grid load
    }
    const int lo = rank > 0 ? rank - 1 : -1;
    const int hi = rank + 1 < nranks ? rank + 1 : -1;

    for (int iter = 0; iter < iterations; ++iter) {
      {
        FunctionScope fn(r, "step", "step.c");
        r.compute(f * c_step);
      }
      {
        FunctionScope fn(r, "exchange", "comm.c");
        std::vector<RequestId> recvs;
        if (lo >= 0) recvs.push_back(r.irecv(lo, 0));
        if (hi >= 0) recvs.push_back(r.irecv(hi, 0));
        if (lo >= 0) r.send(lo, 0, halo);
        if (hi >= 0) r.send(hi, 0, halo);
        for (RequestId req : recvs) r.wait(req);
      }
      {
        FunctionScope fn(r, "relax", "solver.c");
        r.compute(f * c_relax);
      }
      {
        // Global sum gathered at rank 0 and broadcast back (PVM style).
        FunctionScope fn(r, "globalsum", "comm.c");
        if (rank == 0) {
          for (int src = 1; src < nranks; ++src) r.recv(src, 1);
          for (int dst = 1; dst < nranks; ++dst) r.send(dst, 2, reduce_bytes);
        } else {
          r.send(0, 1, reduce_bytes);
          r.recv(0, 2);
        }
      }
      if (iter % 300 == 299) {
        FunctionScope fn(r, "checkpoint", "gridio.c");
        r.io(0.4);
      }
    }
  };
  return {std::move(machine), {params.compute_jitter, params.seed}, std::move(body)};
}

}  // namespace histpc::apps
