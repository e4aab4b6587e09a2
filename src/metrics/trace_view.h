// TraceView: the bridge between a simulated execution and the diagnosis
// layers. It derives the program's resource hierarchies from the trace,
// compiles foci into fast per-interval filters (cached by interned focus
// id), and answers window queries through a columnar interval index.
#pragma once

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

class BlockIndex;
class IntervalIndex;

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

  /// Derived selections (finalize() computes them; the interval index
  /// dispatches on them instead of re-scanning the bitmaps per query).
  bool all_funcs = true;                     ///< every function + nofunc accepted
  std::vector<std::int32_t> selected_funcs;  ///< accepted FuncIds when !all_funcs
  std::vector<std::int32_t> selected_syncs;  ///< accepted ids when !sync_unconstrained

  /// Word-packed twins of the acceptance bitmaps for the block-max engine's
  /// summary intersections: bit f of func_words mirrors funcs[f], and one
  /// extra trailing bit (index funcs.size()) mirrors accept_nofunc — the
  /// same slot layout BlockIndex uses for its per-block coverage words.
  /// sync_words is empty while sync_unconstrained.
  std::vector<std::uint64_t> func_words;
  std::vector<std::uint64_t> sync_words;

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
  /// before reaching the interval index.
  void finalize();
};

class TraceView {
 public:
  /// Builds resource hierarchies and the interval index from the trace.
  /// The view keeps a reference to `trace`; the trace must outlive the
  /// view. `columns` — the SoA buffers decoded from a binary trace
  /// snapshot — lets the interval index adopt ready-made columns instead
  /// of re-deriving them (see IntervalIndex); it is only read during
  /// construction.
  explicit TraceView(const simmpi::ExecutionTrace& trace,
                     const simmpi::TraceColumns* columns = nullptr);
  ~TraceView();
  TraceView(TraceView&&) = default;

  const simmpi::ExecutionTrace& trace() const { return trace_; }
  const resources::ResourceDb& resources() const { return db_; }
  const IntervalIndex& index() const { return *index_; }
  /// The block-max summary tier (block_index.h). MetricBatch consults its
  /// per-block probes to skip provably-zero blocks; query_blocks() serves
  /// whole windows through its skip/sum/SIMD-kernel classification.
  const BlockIndex& blocks() const { return *blocks_; }

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

  /// Direct whole-window query: metric seconds accumulated in [t0, t1).
  /// Served by the interval index in O(log n) per rank.
  double query(MetricKind metric, const resources::Focus& focus, double t0, double t1) const;
  /// Overload for callers that already hold a compiled filter.
  double query(MetricKind metric, const FocusFilter& filter, double t0, double t1) const;

  /// Reference oracle: the same window query answered by a linear
  /// MetricInstance scan. Kept for property-testing the indexed path.
  double query_scan(MetricKind metric, const FocusFilter& filter, double t0, double t1) const;

  /// The same window query answered by the block-max engine: skip blocks
  /// the summaries prove empty, O(1)-accumulate fully-covered blocks, run
  /// the SIMD masked-sum kernel over the rest. Agrees with query() and
  /// query_scan() to floating-point summation order (property-tested in
  /// block_max_test.cpp).
  double query_blocks(MetricKind metric, const FocusFilter& filter, double t0,
                      double t1) const;

  /// Fraction of execution: query(...) normalized by window * selected ranks.
  double fraction(MetricKind metric, const resources::Focus& focus, double t0, double t1) const;
  double fraction(MetricKind metric, const FocusFilter& filter, double t0, double t1) const;

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
  void compute_discovery_times();

  const simmpi::ExecutionTrace& trace_;
  resources::ResourceDb db_;
  std::unordered_map<std::string, double> discovery_;
  /// discovery_ mirrored onto ResourceIds: [hierarchy][rid] (roots 0.0).
  std::vector<std::vector<double>> discovery_by_resource_;
  std::unique_ptr<IntervalIndex> index_;
  std::unique_ptr<BlockIndex> blocks_;
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
