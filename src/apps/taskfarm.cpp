// Master/worker task farm: rank 0 deals work units to three workers and
// collects results with wildcard receives (MPI_ANY_SOURCE) — results are
// consumed in arrival order, not rank order. The workers' compute rates
// differ, so the master spends most of each round blocked in collectResults
// waiting on the slowest worker: a master-side synchronization bottleneck
// on the result tag.
#include "apps/apps.h"

namespace histpc::apps {

using simmpi::FunctionScope;
using simmpi::MachineSpec;
using simmpi::Recorder;

namespace {
constexpr int kTaskTag = 1;
constexpr int kResultTag = 2;
}  // namespace

simmpi::ProgramSpec taskfarm_spec(const AppParams& params) {
  const int nranks = 4;  // 1 master + 3 workers
  std::string node_prefix = params.node_prefix.empty() ? "farm" : params.node_prefix;
  MachineSpec machine =
      MachineSpec::one_to_one(nranks, node_prefix, "taskfarm", params.node_base);

  const double work_cost[] = {0.0, 0.35, 0.6, 1.0};  // per task, worker-dependent
  const std::size_t task_bytes = 32 * 1024;
  const std::size_t result_bytes = 8 * 1024;
  const double round_time = 1.1;
  const int rounds = std::max(1, static_cast<int>(params.target_duration / round_time));

  auto body = [=](Recorder& r) {
    const int rank = r.rank();
    FunctionScope fmain(r, "main", "farm.c");
    for (int round = 0; round < rounds; ++round) {
      if (rank == 0) {
        {
          FunctionScope fn(r, "dealTasks", "master.c");
          r.compute(0.05);
          for (int w = 1; w < nranks; ++w) r.send(w, kTaskTag, task_bytes);
        }
        {
          // Results come back in whatever order workers finish.
          FunctionScope fn(r, "collectResults", "master.c");
          for (int w = 1; w < nranks; ++w) r.recv(simmpi::kAnySource, kResultTag);
        }
        {
          FunctionScope fn(r, "reduceResults", "master.c");
          r.compute(0.08);
        }
      } else {
        {
          FunctionScope fn(r, "awaitTask", "worker.c");
          r.recv(0, kTaskTag);
        }
        {
          FunctionScope fn(r, "processTask", "worker.c");
          r.compute(work_cost[rank]);
        }
        r.send(0, kResultTag, result_bytes);
      }
    }
  };
  return {std::move(machine), {params.compute_jitter, params.seed}, std::move(body)};
}

}  // namespace histpc::apps
