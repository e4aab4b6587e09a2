#include <cmath>
#include <stdexcept>
#include <vector>

#include "apps/apps.h"

namespace histpc::apps {

using simmpi::FunctionScope;
using simmpi::MachineSpec;
using simmpi::Recorder;
using simmpi::RequestId;

namespace {

/// Message communicator id: the paper reports version C's tags as 3/0, 3/1
/// and 3/-1, i.e. communicator 3.
constexpr int kComm = 3;
constexpr int kTagX = 0;   ///< x-direction halo exchange
constexpr int kTagY = 1;   ///< y-direction halo exchange
constexpr int kTagM = -1;  ///< butterfly reduction in main

/// Workload shape. Calibrated (see tests/apps/poisson_shape_test.cpp)
/// so version C reproduces the paper's measured distribution: ~2/3 of
/// execution in synchronization waits, concentrated in exchng2 and main,
/// tags 3:0 > 3:-1 > 3:1, processes 3 and 4 wait-dominated.
struct PoissonShape {
  int gx = 2, gy = 2;             ///< process grid
  double c_x = 0.30;              ///< sweep compute before the x exchange (s)
  double c_y = 0.10;              ///< sweep compute before the y exchange (s)
  double c_main = 0.12;           ///< diff computation in main (s)
  std::vector<double> factors;    ///< per-rank compute scaling (imbalance)
  std::size_t bytes_x = 14 << 20; ///< halo sizes (rendezvous-protocol range)
  std::size_t bytes_y = 14 << 20;
  std::size_t bytes_m = 5 << 20;
  int io_every = 256;             ///< checkpoint cadence (iterations)
  double io_seconds = 0.05;
  int stats_every = 200;          ///< tiny printstats cadence
};

struct Naming {
  const char* main_module;
  const char* sweep_module;
  const char* sweep_func;
  const char* exchng_module;
  const char* exchng_func;
  const char* process_prefix;
};

PoissonShape shape_for(char version) {
  PoissonShape s;
  switch (version) {
    case 'A':
    case 'B':
      s.gx = 4;  // 1-D decomposition: a chain of 4
      s.gy = 1;
      s.factors = {1.0, 0.98, 0.35, 0.26};
      // 1-D strips exchange a single (larger) boundary; no y direction.
      s.c_x = 0.40;
      s.c_y = 0.0;
      s.bytes_x = 13 << 20;
      s.bytes_y = 0;
      break;
    case 'C':
      s.factors = {1.0, 0.98, 0.35, 0.26};
      break;
    case 'D':
      s.gx = 4;
      s.gy = 2;
      s.factors = {1.0, 0.97, 0.93, 0.90, 0.42, 0.38, 0.30, 0.26};
      break;
    default:
      throw std::invalid_argument(std::string("unknown poisson version '") + version + "'");
  }
  return s;
}

Naming naming_for(char version) {
  switch (version) {
    case 'A':
      return {"oned.f", "sweep.f", "sweep1d", "exchng1.f", "exchng1", "poisson1d"};
    case 'B':
      return {"onednb.f", "nbsweep.f", "nbsweep", "nbexchng.f", "nbexchng1", "poisson1dnb"};
    case 'C':
    case 'D':
      // D runs the same code as C; only the machine changes.
      return {"twod.f", "sweep2d.f", "sweep2d", "exchng2.f", "exchng2", "poisson2d"};
    default:
      throw std::invalid_argument("unknown poisson version");
  }
}

/// Nonblocking neighbour exchange: post receives, send, complete receives.
/// Used by versions B, C and D (the paper's nonblocking/2-D variants).
void nonblocking_exchange(Recorder& r, const std::vector<int>& neighbours, int tag,
                          std::size_t bytes) {
  std::vector<RequestId> recvs;
  recvs.reserve(neighbours.size());
  for (int n : neighbours) recvs.push_back(r.irecv(n, tag, kComm));
  for (int n : neighbours) r.send(n, tag, bytes, kComm);
  for (RequestId req : recvs) r.wait(req);
}

/// Blocking ordered exchange of version A (Gropp et al.'s exchng1): even
/// ranks send first, odd ranks receive first, avoiding rendezvous
/// deadlock without any nonblocking operations.
void blocking_exchange(Recorder& r, int lo, int hi, std::size_t bytes) {
  if (r.rank() % 2 == 0) {
    if (hi >= 0) r.send(hi, kTagX, bytes, kComm);
    if (hi >= 0) r.recv(hi, kTagY, kComm);
    if (lo >= 0) r.send(lo, kTagY, bytes, kComm);
    if (lo >= 0) r.recv(lo, kTagX, kComm);
  } else {
    if (lo >= 0) r.recv(lo, kTagX, kComm);
    if (lo >= 0) r.send(lo, kTagY, bytes, kComm);
    if (hi >= 0) r.recv(hi, kTagY, kComm);
    if (hi >= 0) r.send(hi, kTagX, bytes, kComm);
  }
}

}  // namespace

simmpi::NetworkModel poisson_network() {
  simmpi::NetworkModel net;
  net.latency = 40e-6;
  net.bytes_per_second = 90.0e6;
  net.eager_limit = 16 * 1024;
  return net;
}

simmpi::ProgramSpec poisson_spec(char version, const AppParams& params) {
  const PoissonShape shape = shape_for(version);
  const Naming names = naming_for(version);
  const int nranks = shape.gx * shape.gy;

  std::string node_prefix = params.node_prefix.empty() ? "poona" : params.node_prefix;
  MachineSpec machine =
      MachineSpec::one_to_one(nranks, node_prefix, names.process_prefix, params.node_base);

  // Iteration wall time estimate for sizing the iteration count: slowest
  // rank's compute plus the transfer times it waits through.
  const simmpi::NetworkModel net = poisson_network();
  const double compute = shape.c_x + shape.c_y + shape.c_main;
  const double comm = net.transfer_time(shape.bytes_x) + net.transfer_time(shape.bytes_y) +
                      2 * net.transfer_time(shape.bytes_m);
  const int iterations = std::max(1, static_cast<int>(params.target_duration / (compute + comm)));

  auto body = [=](Recorder& r) {
    const int rank = r.rank();
    const double f = shape.factors.at(static_cast<std::size_t>(rank));
    const int x = rank / shape.gy;
    const int y = rank % shape.gy;

    FunctionScope fn_main(r, "main", names.main_module);

    {  // one-time initialization: a historic-prune candidate
      FunctionScope fn(r, "init", "init.f");
      r.compute(0.4);
    }

    std::vector<int> x_neighbours, y_neighbours;
    if (x > 0) x_neighbours.push_back(rank - shape.gy);
    if (x + 1 < shape.gx) x_neighbours.push_back(rank + shape.gy);
    if (y > 0) y_neighbours.push_back(rank - 1);
    if (y + 1 < shape.gy) y_neighbours.push_back(rank + 1);

    for (int iter = 0; iter < iterations; ++iter) {
      // Sweep: the local relaxation, imbalanced across ranks (uneven
      // domain decomposition).
      {
        FunctionScope fn(r, names.sweep_func, names.sweep_module);
        r.compute(f * shape.c_x);
      }
      {
        FunctionScope fn(r, names.exchng_func, names.exchng_module);
        if (version == 'A') {
          const int lo = rank > 0 ? rank - 1 : -1;
          const int hi = rank + 1 < nranks ? rank + 1 : -1;
          blocking_exchange(r, lo, hi, shape.bytes_x);
        } else {
          nonblocking_exchange(r, x_neighbours, kTagX, shape.bytes_x);
        }
      }
      if (shape.gy > 1) {
        {
          FunctionScope fn(r, names.sweep_func, names.sweep_module);
          r.compute(f * shape.c_y);
        }
        FunctionScope fn(r, names.exchng_func, names.exchng_module);
        nonblocking_exchange(r, y_neighbours, kTagY, shape.bytes_y);
      }

      // Convergence check in main: local diff then a butterfly reduction
      // (tag 3:-1) plus a small allreduce of the residual.
      {
        FunctionScope fn(r, "diff", "diff.f");
        r.compute(f * shape.c_main);
      }
      for (int stage = 1; stage < nranks; stage <<= 1) {
        const int partner = rank ^ stage;
        if (partner < nranks) nonblocking_exchange(r, {partner}, kTagM, shape.bytes_m);
      }
      r.allreduce(8);

      if (shape.io_every > 0 && iter % shape.io_every == shape.io_every - 1)
        r.io(shape.io_seconds);
      if (shape.stats_every > 0 && iter % shape.stats_every == shape.stats_every - 1) {
        FunctionScope fn(r, "printstats", "stats.f");
        r.compute(0.002);
      }
    }
  };
  return {std::move(machine), {params.compute_jitter, params.seed}, std::move(body)};
}

}  // namespace histpc::apps
