// Seeded generator of scaled SPMD workloads with known bottlenecks.
//
// Emits a WorkloadSpec (apps/workload_spec.h) for a many-rank,
// many-function iterative program plus the ground truth of what was
// injected into it. The injection kinds follow the SPMD bottleneck
// taxonomy of Liu et al. (arXiv 1002.4264):
//
//   imbalance       one function runs 7x longer on ranks 0 and 8; the
//                   rest wait at the barrier that follows it
//   hot_function    one function takes most of every iteration's CPU time
//   slow_node       one node computes at 80% speed
//   tag_contention  one message tag carries large rendezvous transfers
//
// The background is the other 10 of 12 small functions in 3 modules, so
// the Performance Consultant has a Code hierarchy and a rank per node to
// refine — the search is a visible share of a diagnosis, not only
// simulation.
// The same seed always yields byte-identical JSON text.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pc/consultant.h"

namespace histpc::e2e {

struct Injection {
  std::string kind;        ///< imbalance | hot_function | slow_node | tag_contention
  std::string hypothesis;  ///< hypothesis the report must carry
  std::string focus_part;  ///< substring the reported focus must contain
};

struct GeneratedSpec {
  std::string name;
  std::string json;  ///< WorkloadSpec text
  std::vector<Injection> truth;
};

/// A 16-rank program of 700 iterations over 12 compute functions in 3
/// modules, plus a barrier, two ring exchanges and an allreduce.
GeneratedSpec generate_spmd(std::uint64_t seed);

/// True when some reported bottleneck matches the injection.
bool reported(const Injection& injection, const std::vector<pc::BottleneckReport>& bottlenecks);

}  // namespace histpc::e2e
