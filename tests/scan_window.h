// Windowed metric values for tests. TraceView answers whole-run queries
// only; the reference for any window [t0, t1) is a MetricInstance inserted
// at t0 and advanced to t1, which is what a consultant probe computes.
#pragma once

#include "metrics/metric_instance.h"
#include "metrics/trace_view.h"

namespace histpc::metrics {

/// A MetricInstance over [t0, t1): value() is the metric seconds in the
/// window, fraction() normalizes them by the window and the selected ranks.
inline MetricInstance scan_window(const TraceView& view, MetricKind metric,
                                  const FocusFilter& filter, double t0, double t1) {
  MetricInstance inst(view, metric, filter, t0);
  inst.advance(t1);
  return inst;
}

}  // namespace histpc::metrics
