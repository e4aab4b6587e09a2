// MetricBatch: batched evaluation of many concurrent metric-focus pairs.
//
// The Performance Consultant keeps tens of probes live at once and ticks
// them all to the same virtual time. Advancing each MetricInstance
// separately walks every rank's cursor once per instance per tick; the
// batch inverts the loop — each rank's new intervals are visited once per
// tick and fanned out to every active slot whose filter selects that rank.
//
// Slots share one time cursor and one per-rank position, so a tick costs
// O(new intervals * matching slots) instead of
// O(instances * (ranks + new intervals)).
//
// Equivalence: a slot's value is accumulated in exactly the same order as
// a MetricInstance advanced over the same tick pattern (rank-major,
// interval order), so values are bit-identical to the scan path.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/trace_view.h"
#include "telemetry/registry.h"

namespace histpc::metrics {

class MetricBatch {
 public:
  using SlotId = std::int32_t;

  /// `registry`, when given, receives per-tick evaluation counters
  /// ("metrics.batch.ticks" and "metrics.batch.intervals").
  explicit MetricBatch(const TraceView& view, telemetry::Registry* registry = nullptr);

  /// Register a metric-focus pair observing data from `start_time` on.
  /// Keeps a pointer to `filter`; the caller guarantees it outlives the
  /// batch (TraceView::compiled references qualify).
  SlotId add(MetricKind metric, const FocusFilter& filter, double start_time);
  void remove(SlotId id);

  /// Accumulate every active slot's data in [cursor, to). All slots share
  /// the cursor; backwards targets are no-ops.
  void advance_all(double to);

  double value(SlotId id) const;
  /// Length of the observed window: cursor minus slot start (never negative).
  double observed(SlotId id) const;
  /// value / (observed * selected ranks); 0 when nothing observed.
  double fraction(SlotId id) const;

  std::size_t num_active() const { return num_active_; }
  double cursor() const { return cursor_; }

 private:
  struct Slot {
    const FocusFilter* filter = nullptr;
    MetricKind metric = MetricKind::CpuTime;
    double start = 0.0;
    double value = 0.0;
    bool active = false;
  };

  /// Walk rank `r`'s new intervals in [cursor_, to) and add each one's
  /// clipped duration to the rank's matching active slots. An interval
  /// that straddles `to` stays at the rank's position for the next advance.
  void process_rank(std::size_t r, double to);

  void rebuild_rank_slots();

  const TraceView& view_;
  telemetry::Registry* registry_ = nullptr;
  std::vector<Slot> slots_;
  std::vector<std::size_t> rank_pos_;          ///< shared per-rank cursor
  std::vector<std::vector<SlotId>> rank_slots_;  ///< active slots per rank
  bool rank_slots_dirty_ = true;
  double cursor_ = 0.0;
  std::size_t num_active_ = 0;
};

}  // namespace histpc::metrics
