// Instrumentation cost model.
//
// Dynamic instrumentation perturbs the application; Paradyn continually
// tracks the predicted cost of enabled instrumentation as a fraction of
// execution and halts search expansion above a threshold. We model a
// probe's cost from the breadth of its focus: instrumenting every function
// on every process costs far more than one function on one process.
#pragma once

#include "metrics/metric.h"
#include "metrics/trace_view.h"
#include "resources/focus_table.h"

namespace histpc::instr {

struct CostModel {
  /// Cost (fraction of one process's execution) of a function-granularity
  /// probe on a single process.
  double base_per_rank = 0.004;
  /// Multiplier when the Code part selects a whole module (more
  /// instrumentation points).
  double module_multiplier = 2.5;
  /// Multiplier when the Code part is the hierarchy root (every function).
  double whole_code_multiplier = 8.0;
  /// Extra factor when the focus constrains the SyncObject hierarchy
  /// (per-message filtering at each synchronization point).
  double sync_constrained_multiplier = 1.5;

  /// Predicted cost fraction of a probe for (metric : focus), with part
  /// depths read from the view's FocusTable.
  double probe_cost(const metrics::TraceView& view, resources::FocusId focus,
                    metrics::MetricKind metric) const;
};

}  // namespace histpc::instr
