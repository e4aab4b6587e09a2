// Simulated test applications.
//
// These stand in for the paper's real workloads on the IBM SP/2:
//
//  * poisson A-D — the iterative Poisson decomposition of Gropp, Lusk &
//    Skjellum ch. 4 used throughout Section 4:
//      A: 1-D decomposition, blocking send/recv   (oned.f / sweep.f / exchng1.f)
//      B: 1-D decomposition, nonblocking          (onednb.f / nbsweep.f / nbexchng.f)
//      C: 2-D decomposition                        (twod.f / sweep2d.f / exchng2.f)
//      D: the same code as C across 8 nodes
//    All versions compute a fixed number of iterations (as the paper's
//    modified versions did). Per-rank compute imbalance and large halo
//    messages reproduce the measured shape for version C: execution
//    dominated by synchronization waiting, concentrated in exchng2 and
//    main, split across message tags 3:0 / 3:1 / 3:-1, with processes 3
//    and 4 waiting far more than 1 and 2.
//
//  * ocean — the PVM ocean-circulation analogue of Section 4.2, whose
//    bottleneck fractions sit higher, so its useful threshold (~20%)
//    differs from the MPI code's (~12%): the argument for
//    application-specific historical thresholds.
//
//  * tester — the example program of Figure 1 (resource hierarchies).
//  * bubba — the program of the Figure 2 search (CPU-bound partitioner).
#pragma once

#include <string>

#include "simmpi/program.h"
#include "simmpi/simulator.h"

namespace histpc::apps {

struct AppParams {
  /// Approximate virtual duration of the run; the iteration count is
  /// derived from it.
  double target_duration = 1600.0;
  /// First machine-node number; change between runs to reproduce the
  /// "same machine, differently named nodes" mapping scenario.
  int node_base = 1;
  /// Override the machine-node name prefix (app-specific default if empty).
  std::string node_prefix;
  /// Run-to-run variability: relative stddev of compute durations and the
  /// seed that makes each simulated "run" reproducible. Zero jitter (the
  /// default) gives exact repeatability.
  double compute_jitter = 0.0;
  std::uint64_t seed = 0;
};

// Each app gives what recording it needs in one place, its ProgramSpec:
// the machine, the recording options and the per-rank body. build_* and
// build_app record that spec into a SimProgram (simmpi::record_program); a
// trace-cache session records it straight into the cache key
// (simmpi::record_trace_key) and builds a program only on a miss.

/// Poisson decomposition, version in {'A','B','C','D'}.
simmpi::ProgramSpec poisson_spec(char version, const AppParams& params = {});
simmpi::SimProgram build_poisson(char version, const AppParams& params = {});

/// Network model matching the simulated SP/2 runs (shared by versions so
/// cross-version comparisons are apples-to-apples).
simmpi::NetworkModel poisson_network();

simmpi::ProgramSpec ocean_spec(const AppParams& params = {});
simmpi::SimProgram build_ocean(const AppParams& params = {});
simmpi::NetworkModel ocean_network();

simmpi::ProgramSpec tester_spec(const AppParams& params = {});
simmpi::SimProgram build_tester(const AppParams& params = {});

/// I/O-dominated seismic-migration-style workload (exercises the
/// ExcessiveIOBlockingTime hypothesis path).
simmpi::ProgramSpec seismic_spec(const AppParams& params = {});
simmpi::SimProgram build_seismic(const AppParams& params = {});

/// Master/worker task farm using wildcard receives (master-side
/// synchronization bottleneck).
simmpi::ProgramSpec taskfarm_spec(const AppParams& params = {});
simmpi::SimProgram build_taskfarm(const AppParams& params = {});
simmpi::ProgramSpec bubba_spec(const AppParams& params = {});
simmpi::SimProgram build_bubba(const AppParams& params = {});

/// Uniform entry point: name in {"poisson_a", ..., "poisson_d", "ocean",
/// "tester", "bubba", "seismic", "taskfarm"}. Throws std::invalid_argument for unknown names.
simmpi::ProgramSpec app_spec(const std::string& name, const AppParams& params = {});
simmpi::SimProgram build_app(const std::string& name, const AppParams& params = {});
/// The network model an app should be simulated with.
simmpi::NetworkModel network_for(const std::string& name);
/// All registered app names.
std::vector<std::string> app_names();

/// Convenience: build and simulate in one call.
simmpi::ExecutionTrace run_app(const std::string& name, const AppParams& params = {});

}  // namespace histpc::apps
