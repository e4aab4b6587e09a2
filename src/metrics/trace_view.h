// TraceView: the bridge between a simulated execution and the diagnosis
// layers. It derives the program's resource hierarchies from the trace,
// compiles foci into fast per-interval filters (cached by interned focus
// id) and answers whole-run queries from per-rank totals. Windowed values
// come from MetricInstance (or MetricBatch), which see only data after
// their start.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/metric.h"
#include "resources/focus.h"
#include "resources/focus_table.h"
#include "resources/resource_db.h"
#include "simmpi/trace.h"

namespace histpc::metrics {

/// A Focus compiled against one trace: constant-time per-interval matching.
struct FocusFilter {
  /// Per-FuncId acceptance; `accept_nofunc` covers intervals outside any
  /// recorded function (only when the Code part is the hierarchy root).
  std::vector<bool> funcs;
  bool accept_nofunc = true;
  /// Per-rank acceptance (Machine and Process parts combined).
  std::vector<bool> ranks;
  /// Per-SyncObjectId acceptance for wait intervals.
  std::vector<bool> sync_objects;
  /// True when the SyncObject part is the hierarchy root (no constraint).
  bool sync_unconstrained = true;

  int num_selected_ranks = 0;

  /// Derived selections (finalize() computes them; whole-run queries
  /// dispatch on them instead of re-scanning the bitmaps per query).
  bool all_funcs = true;                     ///< every function + nofunc accepted
  std::vector<std::int32_t> selected_funcs;  ///< accepted FuncIds when !all_funcs
  std::vector<std::int32_t> selected_syncs;  ///< accepted ids when !sync_unconstrained

  /// Why the filter selects nothing, when it does: one line per focus part
  /// that matched no function/rank/sync-object in this trace (directives
  /// mapped from another run may name resources this execution never
  /// created). Empty for filters that select at least one interval source.
  std::vector<std::string> diagnostics;

  bool rank_selected(int rank) const { return ranks[static_cast<std::size_t>(rank)]; }

  /// Does `iv` contribute to `metric` under this filter?
  bool matches(const simmpi::Interval& iv, MetricKind metric) const;

  /// Recompute num_selected_ranks and the derived selection lists from the
  /// bitmaps. TraceView::compile calls this; hand-built filters must too
  /// before they are queried.
  void finalize();
};

class TraceView {
 public:
  /// Builds resource hierarchies, discovery times and whole-run totals
  /// from the trace. The view keeps a reference to `trace`; the trace must
  /// outlive the view.
  explicit TraceView(const simmpi::ExecutionTrace& trace);

  const simmpi::ExecutionTrace& trace() const { return trace_; }
  const resources::ResourceDb& resources() const { return db_; }

  /// The focus interner over this view's (immutable) resource db. Returned
  /// non-const from a const view: the table is internally synchronized and
  /// append-only, like the filter cache (interning is memoization, not
  /// observable mutation). Shared by every consultant — and every parallel
  /// variant — diagnosing this view.
  resources::FocusTable& foci() const { return *foci_; }

  /// Compile `focus` for interval matching. Parts naming resources missing
  /// from this trace select nothing (relevant when directives from another
  /// run were not fully mapped).
  FocusFilter compile(const resources::Focus& focus) const;

  /// Cached compile: one filter per FocusId for the lifetime of the view,
  /// with no name materialization. The returned reference is stable (never
  /// invalidated by later calls). Thread-safe, so parallel variant runs may
  /// compile concurrently.
  const FocusFilter& compiled(resources::FocusId focus) const;

  /// compiled(foci().intern(focus)): the same cache entry as the id.
  const FocusFilter& compiled(const resources::Focus& focus) const;

  /// Whole-run query: metric seconds accumulated in [0, trace().duration)
  /// across the focus's selected ranks, read from the per-rank totals.
  /// Agrees with a MetricInstance scan of the same window to
  /// floating-point summation order.
  double query(MetricKind metric, const resources::Focus& focus) const;
  /// Overload for callers that already hold a compiled filter (it must be
  /// finalized; TraceView::compile qualifies).
  double query(MetricKind metric, const FocusFilter& filter) const;

  /// Whole-run fraction of execution: query(...) normalized by the
  /// duration times the selected ranks; 0 for an empty run or selection.
  double fraction(MetricKind metric, const resources::Focus& focus) const;
  double fraction(MetricKind metric, const FocusFilter& filter) const;

  /// Time histogram (Paradyn's phase view): the metric's fraction of
  /// execution in each of `bins` equal slices of [t0, t1). Useful for
  /// spotting behaviour that changes over the run.
  std::vector<double> fraction_series(MetricKind metric, const resources::Focus& focus,
                                      double t0, double t1, std::size_t bins) const;

  /// Virtual time a resource first became observable: the first interval
  /// attributed to a function (and its module) or synchronization object.
  /// Machine and process resources exist from t=0. Unknown resources
  /// return +infinity. An online tool cannot refine into a resource before
  /// it is discovered (PcConfig::respect_discovery_times).
  double discovery_time(const std::string& resource_name) const;

  /// Id-keyed twin: discovery time of resource `rid` in hierarchy
  /// `hierarchy_idx` (precomputed per-resource vectors, no name lookup).
  double discovery_time(std::size_t hierarchy_idx, resources::ResourceId rid) const {
    return discovery_by_resource_.at(hierarchy_idx)[static_cast<std::size_t>(rid)];
  }

 private:
  static constexpr std::size_t kNumStates = 3;  // Cpu, SyncWait, IoWait

  /// One rank's whole-run answer, less its clipped edges. The intervals
  /// intersecting [0, duration) are the contiguous positions [lo, hi);
  /// when hi - lo > 2, the interior [lo+1, hi-1) is summed here and the
  /// two edge intervals are clipped at query time (see query_rank).
  struct RankTotals {
    std::size_t lo = 0, hi = 0;
    /// Interior seconds per state.
    std::array<double, kNumStates> state{};
    /// Interior seconds per (function slot, state), at [slot * kNumStates
    /// + state]; slot nfuncs stands for kNoFunc.
    std::vector<double> func_state;
    /// Interior SyncWait seconds per sync object.
    std::vector<double> sync;
    /// Interior SyncWait positions per sync object, ascending: the one
    /// filter shape no total answers (SyncObject and Code both
    /// constrained) walks these.
    std::vector<std::vector<std::uint32_t>> sync_positions;
  };

  /// The one pass over every rank's intervals: first sightings for the
  /// discovery times, and each rank's RankTotals.
  void walk_intervals();
  double query_rank(std::size_t rank, const FocusFilter& filter, MetricKind metric) const;

  const simmpi::ExecutionTrace& trace_;
  resources::ResourceDb db_;
  std::unordered_map<std::string, double> discovery_;
  /// discovery_ mirrored onto ResourceIds: [hierarchy][rid] (roots 0.0).
  std::vector<std::vector<double>> discovery_by_resource_;
  std::vector<RankTotals> totals_;
  /// Focus interner over db_. unique_ptr: the table is non-movable and
  /// snapshots hierarchy pointers, which stay valid if the view moves.
  std::unique_ptr<resources::FocusTable> foci_;
  /// Guards filters_by_id_.
  mutable std::mutex filter_mu_;
  /// The compiled() cache, indexed by FocusId; unique_ptr slots keep
  /// references stable.
  mutable std::vector<std::unique_ptr<FocusFilter>> filters_by_id_;
};

}  // namespace histpc::metrics
