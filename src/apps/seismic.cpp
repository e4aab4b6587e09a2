// I/O-bound workload: a seismic-migration-style code that streams trace
// gathers from disk, migrates them, and checkpoints images. Unlike the
// Poisson and ocean codes it is dominated by I/O blocking time, so it
// exercises the ExcessiveIOBlockingTime hypothesis path (true at top
// level, refined to the reading function and the slow-disk ranks).
#include "apps/apps.h"

namespace histpc::apps {

using simmpi::FunctionScope;
using simmpi::MachineSpec;
using simmpi::Recorder;

simmpi::ProgramSpec seismic_spec(const AppParams& params) {
  const int nranks = 4;
  std::string node_prefix = params.node_prefix.empty() ? "disknode" : params.node_prefix;
  MachineSpec machine =
      MachineSpec::one_to_one(nranks, node_prefix, "seismic", params.node_base);

  // Ranks 0 and 1 read from the slow shared filesystem; 2 and 3 from
  // local scratch.
  const double read_cost[] = {0.55, 0.50, 0.18, 0.16};
  const double c_migrate = 0.35;
  const double iter_time = 0.55 + c_migrate + 0.1;
  const int iterations = std::max(1, static_cast<int>(params.target_duration / iter_time));

  auto body = [=](Recorder& r) {
    const int rank = r.rank();
    FunctionScope fmain(r, "main", "seismic.c");
    for (int iter = 0; iter < iterations; ++iter) {
      {
        FunctionScope fn(r, "readGather", "traceio.c");
        r.io(read_cost[rank]);
      }
      {
        FunctionScope fn(r, "migrate", "kernel.c");
        r.compute(c_migrate);
      }
      {
        // Small halo of image tiles; keeps everyone loosely in step.
        FunctionScope fn(r, "exchangeTiles", "comm.c");
        const int peer = rank ^ 1;
        const simmpi::RequestId req = r.irecv(peer, 0);
        r.send(peer, 0, 8 * 1024);
        r.wait(req);
      }
      if (iter % 50 == 49) {
        FunctionScope fn(r, "writeImage", "imageio.c");
        r.io(0.8);
      }
      r.barrier();
    }
  };
  return {std::move(machine), {params.compute_jitter, params.seed}, std::move(body)};
}

}  // namespace histpc::apps
