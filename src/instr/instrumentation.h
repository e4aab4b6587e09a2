// InstrumentationManager: the Dyninst/Paradyn dynamic-instrumentation
// substitute. Probes are inserted and deleted at virtual times; a probe
// observes data only after its insertion completes (request time +
// insertion latency), and the sum of active probe costs is the load the
// Performance Consultant's expansion throttle watches.
//
// Two metric-evaluation engines service the probes:
//  * batched (default): all probes share one MetricBatch — each rank's new
//    intervals are visited once per advance and fanned out to every
//    matching probe;
//  * per-instance scan: one MetricInstance per probe, each walking its own
//    cursors. Kept as the reference oracle; the batched engine is
//    property-tested bit-identical against it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "instr/cost_model.h"
#include "metrics/metric_batch.h"
#include "metrics/metric_instance.h"
#include "telemetry/tracer.h"

namespace histpc::instr {

using ProbeId = std::int32_t;
inline constexpr ProbeId kNoProbe = -1;

struct ProbeSample {
  double value = 0.0;     ///< metric seconds since insertion
  double observed = 0.0;  ///< seconds of data collected
  double fraction = 0.0;  ///< value / (observed * selected ranks)
  int selected_ranks = 0;
};

class InstrumentationManager {
 public:
  /// `perturbation_factor` models the measurement error instrumentation
  /// itself introduces: probe executions burn CPU, so CPU-time samples
  /// read high by factor * (current total cost). Zero (the default) gives
  /// ideal measurements; the cost ceiling exists precisely to keep this
  /// term small on a real machine.
  /// `batched` selects the batched engine (one interval pass fanned out to
  /// all probes) over the reference per-instance scan; values are
  /// bit-identical. `tracer`, when given, receives probe_insert/probe_remove
  /// events and instrumentation counters; the batched engine reports its
  /// per-tick evaluation volume into the same registry. Null = no telemetry.
  InstrumentationManager(const metrics::TraceView& view, CostModel cost_model,
                         double insertion_latency, double perturbation_factor = 0.0,
                         bool batched = true, telemetry::Tracer* tracer = nullptr);

  /// Request insertion of a probe for (metric : focus) at time `now`. Data
  /// collection begins at now + insertion latency.
  ProbeId insert(metrics::MetricKind metric, const resources::Focus& focus, double now);

  /// Id twin: the focus is an id in the view's FocusTable. No focus-name
  /// string is built unless event tracing is on.
  ProbeId insert(metrics::MetricKind metric, resources::FocusId focus, double now);

  /// Delete a probe, releasing its cost immediately.
  void remove(ProbeId id);

  bool is_active(ProbeId id) const;

  /// Advance all active probes' accumulators to `now`.
  void advance(double now);

  /// Current sample for an active probe (advance() first).
  ProbeSample read(ProbeId id) const;

  double probe_cost(ProbeId id) const;
  /// Predicted cost of a probe that has not been inserted yet.
  double predict_cost(metrics::MetricKind metric, const resources::Focus& focus) const;

  /// Sum of active probe costs (the expansion throttle input).
  double total_cost() const { return total_cost_; }
  /// Largest total cost seen over the run.
  double peak_cost() const { return peak_cost_; }
  /// Lifetime number of insertions.
  std::size_t total_inserted() const { return total_inserted_; }
  std::size_t num_active() const { return num_active_; }

  double insertion_latency() const { return insertion_latency_; }

 private:
  /// Common insertion tail once the filter, cost, and (only-if-tracing)
  /// focus name have been resolved by the string or id front end.
  ProbeId insert_probe(metrics::MetricKind metric, const metrics::FocusFilter& filter,
                       double cost, double now, std::string focus_name_if_tracing);

  struct Probe {
    std::optional<metrics::MetricInstance> instance;  ///< scan engine only
    metrics::MetricBatch::SlotId slot = -1;           ///< batched engine only
    metrics::MetricKind metric = metrics::MetricKind::CpuTime;
    std::string focus_name;  ///< populated only while event tracing is on
    int selected_ranks = 0;
    double cost = 0.0;
    bool active = false;
  };

  const metrics::TraceView& view_;
  CostModel cost_model_;
  double insertion_latency_;
  double perturbation_factor_;
  telemetry::Tracer* tracer_ = nullptr;
  std::unique_ptr<metrics::MetricBatch> batch_;  ///< null = per-instance scan
  std::vector<Probe> probes_;
  double last_time_ = 0.0;  ///< most recent insert/advance time (for removals)
  double total_cost_ = 0.0;
  double peak_cost_ = 0.0;
  std::size_t total_inserted_ = 0;
  std::size_t num_active_ = 0;
};

}  // namespace histpc::instr
