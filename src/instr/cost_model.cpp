#include "instr/cost_model.h"

#include <algorithm>

namespace histpc::instr {

double CostModel::probe_cost(const metrics::TraceView& view, resources::FocusId focus,
                             metrics::MetricKind metric) const {
  (void)metric;  // all time metrics instrument the same points in this model
  const auto& db = view.resources();
  resources::FocusTable& table = view.foci();
  double cost = base_per_rank;

  // Code-part breadth: 0 = root, 1 = module, 2 = function.
  int code_idx = db.hierarchy_index(resources::kCodeHierarchy);
  if (code_idx >= 0 && static_cast<std::size_t>(code_idx) < table.num_hierarchies()) {
    const auto h = static_cast<std::size_t>(code_idx);
    const int depth = table.part_depth(h, table.part(focus, h));
    if (depth == 0) cost *= whole_code_multiplier;
    else if (depth == 1) cost *= module_multiplier;
  }

  // SyncObject constraint.
  int sync_idx = db.hierarchy_index(resources::kSyncObjectHierarchy);
  if (sync_idx >= 0 && static_cast<std::size_t>(sync_idx) < table.num_hierarchies()) {
    const auto h = static_cast<std::size_t>(sync_idx);
    if (table.part_depth(h, table.part(focus, h)) > 0) cost *= sync_constrained_multiplier;
  }

  // Number of instrumented processes (cached compile: the manager compiles
  // the same focus again when the probe is inserted).
  cost *= std::max(1, view.compiled(focus).num_selected_ranks);
  return cost;
}

}  // namespace histpc::instr
