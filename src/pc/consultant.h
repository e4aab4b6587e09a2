// The Performance Consultant: online, automated bottleneck search over a
// (simulated) running program, optionally guided by historical search
// directives.
//
// Search mechanics (Section 2 of the paper):
//  * The virtual root (TopLevelHypothesis : WholeProgram) expands into each
//    hypothesis at WholeProgram.
//  * A node is tested by instrumenting its (hypothesis : focus) pair; after
//    a minimum observation window the measured fraction of execution time
//    is compared with the hypothesis threshold: true = bottleneck.
//  * True nodes are refined: one child per single-edge move down a resource
//    hierarchy. False nodes are not refined and their instrumentation is
//    deleted.
//  * Expansion halts while the predicted cost of enabled instrumentation
//    exceeds the cost limit and resumes when deletions bring it back down.
//
// Directive handling (Section 3):
//  * prunes remove (hypothesis : focus) candidates before they are created;
//  * high-priority pairs are instrumented at search start and persist for
//    the entire run (their conclusions can flip as data accumulates);
//  * priorities order the pending queue (high > medium > low, FIFO within);
//  * thresholds override hypothesis defaults.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "instr/instrumentation.h"
#include "metrics/trace_view.h"
#include "pc/directive_index.h"
#include "pc/directives.h"
#include "pc/hypothesis.h"
#include "pc/shg.h"
#include "telemetry/tracer.h"

namespace histpc::pc {

struct PcConfig {
  HypothesisSet hypotheses = HypothesisSet::standard();
  instr::CostModel cost_model;
  /// Seconds of collected data required before a conclusion.
  double min_observation = 10.0;
  /// Virtual sampling interval of the search loop.
  double tick = 0.5;
  /// Expansion halts while total instrumentation cost exceeds this
  /// fraction of execution.
  double cost_limit = 0.05;
  /// Delay between an instrumentation request and data collection.
  double insertion_latency = 1.0;
  /// When > 0, overrides every hypothesis threshold (used for the paper's
  /// threshold sweeps). Directive thresholds still take precedence.
  double threshold_override = -1.0;
  /// Wall-clock budget for one run() in seconds; <= 0 (default) means
  /// unlimited. When the budget expires the search stops at the end of the
  /// current tick and the result carries stats.deadline_hit — this is how
  /// `histpc serve` propagates a request's deadline into the consultant
  /// loop. A deadline makes the *extent* of the search timing-dependent,
  /// so deadline-limited results are never bit-identity oracles (and the
  /// server never caches them).
  double wall_budget_seconds = 0.0;
  /// Keep high-priority pairs instrumented for the whole run (paper
  /// behaviour). Off = treat them as ordinary one-shot tests (ablation).
  bool persistent_high_priority = true;
  /// Measurement-perturbation model: CPU-time samples read high by this
  /// factor times the currently enabled instrumentation cost. Zero = ideal
  /// measurement (default); see instr::InstrumentationManager.
  double perturbation_factor = 0.0;
  /// When on, the search can only refine into resources the application
  /// has already exercised (TraceView::discovery_time): an online tool
  /// learns about functions and message tags as they first appear.
  /// Candidates naming undiscovered resources wait until their discovery
  /// time. Off by default (resources known up front, as when a static
  /// analysis pre-populated the hierarchies).
  bool respect_discovery_times = false;
  /// Structured-event destination (see telemetry/tracer.h). Null — the
  /// default — discards events at the cost of one pointer test per
  /// decision; counters and the DiagnosisResult telemetry summary are
  /// collected either way.
  telemetry::EventSink* trace_sink = nullptr;
  /// Directory of the content-addressed binary trace-snapshot cache
  /// (simmpi::TraceCache). Empty — the default — simulates every session
  /// from scratch. When set, a DiagnosisSession built from an app name
  /// keys the cache on (recorded program, network model) and reloads an
  /// already-simulated trace instead of re-running the simulator; the
  /// telemetry swap is `session.simulate` → `session.trace_load`, with
  /// `trace_cache.hit` / `trace_cache.miss` counters either way.
  std::string trace_cache_dir;
  /// Byte cap on the snapshot cache directory (LRU-evicted past it).
  std::uint64_t trace_cache_max_bytes = 256ull << 20;
};

struct BottleneckReport {
  std::string hypothesis;
  std::string focus;
  double t_found = 0.0;   ///< virtual time the node first tested true
  double fraction = 0.0;  ///< measured fraction at that conclusion
};

struct NodeSnapshot {
  std::string hypothesis;
  std::string focus;
  NodeStatus status = NodeStatus::Pending;
  Priority priority = Priority::Medium;
  double conclude_time = -1.0;
  double fraction = 0.0;
};

struct DiagnosisStats {
  std::size_t nodes_created = 0;   ///< SHG nodes excluding the virtual root
  std::size_t pairs_tested = 0;    ///< nodes that were instrumented
  std::size_t pruned_candidates = 0;
  std::size_t bottlenecks = 0;     ///< nodes that tested true
  double end_time = 0.0;           ///< virtual time the search stopped
  double last_true_time = 0.0;     ///< time the final bottleneck was found
  double peak_cost = 0.0;
  /// True when PcConfig::wall_budget_seconds expired before the search
  /// finished on its own — the reported bottlenecks are a prefix of what
  /// an unbounded search would have found.
  bool deadline_hit = false;
};

/// Search-telemetry rollup, filled for every diagnosis (tracing on or
/// off): what the search did, what the directives saved it from doing, and
/// where the wall-clock went.
struct TelemetrySummary {
  std::uint64_t pairs_tested = 0;       ///< probes inserted (== stats.pairs_tested)
  std::uint64_t conclusions_true = 0;   ///< includes persistent-pair flips
  std::uint64_t conclusions_false = 0;
  std::uint64_t refinements = 0;        ///< true nodes expanded
  std::uint64_t prune_hits_subtree = 0; ///< candidates cut by subtree prunes
  std::uint64_t prune_hits_pair = 0;    ///< candidates cut by exact-pair prunes
  std::uint64_t priority_seeds = 0;     ///< high-priority pairs queued at start
  std::uint64_t cost_gate_engagements = 0;  ///< times the cost ceiling halted expansion
  double peak_cost = 0.0;               ///< max active instrumentation cost
  double avg_cost = 0.0;                ///< time-weighted mean over the search
  /// Wall seconds by phase for this diagnosis ("pc.advance", "pc.evaluate",
  /// "pc.expand", plus "session.*" entries when run through a
  /// DiagnosisSession: its one-time construction timers and this call's
  /// "session.diagnose" lap).
  std::map<std::string, double> phase_seconds;

  util::Json to_json() const;
};

struct DiagnosisResult {
  std::vector<BottleneckReport> bottlenecks;  ///< sorted by t_found
  std::vector<NodeSnapshot> nodes;            ///< full SHG snapshot
  DiagnosisStats stats;
  TelemetrySummary telemetry;

  /// Time by which `percent` (0..100] of the bottlenecks in `reference`
  /// had been found in this result; +inf if never. `reference` entries are
  /// matched by (hypothesis, focus).
  double time_to_find(const std::vector<BottleneckReport>& reference, double percent) const;
};

class PerformanceConsultant {
 public:
  PerformanceConsultant(const metrics::TraceView& view, PcConfig config,
                        DirectiveSet directives = {});

  /// Run the search to completion (or to the end of the program).
  DiagnosisResult run();

  /// Valid after run(); used for Figure 2 style rendering.
  const SearchHistoryGraph& shg() const { return shg_; }
  /// Moves the graph out after run(), for a caller that keeps it past the
  /// consultant's lifetime (the consultant is not usable afterwards).
  SearchHistoryGraph take_shg() && { return std::move(shg_); }
  const instr::InstrumentationManager& instrumentation() const { return instr_; }
  const telemetry::Tracer& tracer() const { return tracer_; }

 private:
  double threshold_for(int hyp) const {
    return thresholds_by_hyp_[static_cast<std::size_t>(hyp)];
  }
  /// The focus actually instrumented for a node: the node's focus with the
  /// hypothesis's implicit SyncObject scope applied. nullopt when the
  /// focus's SyncObject part lies outside the scope (incompatible pair).
  /// Pure PartId comparisons; narrowing may intern a focus whose
  /// SyncObject part is foreign to the db.
  std::optional<resources::FocusId> probe_focus(int hyp, resources::FocusId focus) const;
  void seed_high_priority_nodes();
  void seed_top_level();
  void enqueue(int id);
  int pop_pending();
  /// Create (or dedup) a candidate (hyp : focus) under `parent`, honoring
  /// scope compatibility, prunes, and discovery times. Undiscovered
  /// candidates are deferred and retried by release_discovered().
  void consider_candidate(int hyp, resources::FocusId fid, int parent, double now);
  void release_discovered(double now);
  void activate(int id, double now);
  void activate_pending(double now);
  void conclude(int id, const instr::ProbeSample& sample, double now);
  void refine(int id, double now);
  void check_persistent_flip(int id, const instr::ProbeSample& sample, double now);
  bool search_finished() const;
  bool has_pending() const;
  DiagnosisResult build_result(double end_time);
  /// Record a prune hit (registry counter + event) for a rejected
  /// candidate. Materializes the focus name only when an event sink is
  /// attached (counters-only searches stay name-free).
  void note_prune_hit(DirectiveSet::PruneKind kind, int hyp, resources::FocusId fid,
                      double now);
  /// Emit a search event when tracing is on; no-op (and no string
  /// materialization) otherwise. `hyp` < 0 omits the hypothesis.
  void trace_event(telemetry::EventKind kind, double t, int hyp,
                   const std::string& focus_name, double value = 0.0,
                   double threshold = 0.0, const char* detail = "");

  const metrics::TraceView& view_;
  /// The view's FocusTable. It is internally synchronized, so several
  /// consultants (parallel variant runs) share it safely.
  resources::FocusTable& foci_;
  PcConfig config_;
  DirectiveSet directives_;
  /// Compiled once from directives_ (already mapped); answers the
  /// per-candidate prune/priority/threshold queries by id instead of
  /// scanning the directive list (DirectiveSet remains the property-tested
  /// reference).
  DirectiveIndex directive_index_;
  // Declared before instr_: the instrumentation manager (and through it the
  // batched metric engine) reports into this tracer.
  telemetry::Tracer tracer_;
  instr::InstrumentationManager instr_;
  SearchHistoryGraph shg_;

  /// Index of the SyncObject hierarchy (for probe_focus), -1 if absent.
  int sync_idx_ = -1;
  /// Per-hypothesis interned sync_scope PartId (kNoPart when unscoped).
  std::vector<resources::PartId> scope_pids_;
  /// Effective thresholds resolved once at construction (directive >
  /// override > hypothesis default); read on every conclusion.
  std::vector<double> thresholds_by_hyp_;

  struct DeferredCandidate {
    int hyp;
    resources::FocusId fid;
    int parent;
    double available_at;
  };
  std::vector<DeferredCandidate> deferred_;  ///< awaiting resource discovery

  /// Priority-tiered FIFO queues. Deques: pop_pending() consumes from the
  /// front while refinement pushes to the back, and a vector front-erase
  /// made each pop O(queue length).
  std::deque<int> queue_high_, queue_medium_, queue_low_;
  std::vector<int> active_;             ///< node ids with live probes
  std::size_t unconcluded_active_ = 0;  ///< active nodes awaiting first conclusion
  /// Cost of the standing high-priority instrumentation. The expansion
  /// throttle meters the search's *additional* instrumentation above this
  /// baseline; otherwise a large persistent set would freeze the search
  /// for the whole run.
  double persistent_cost_ = 0.0;
  std::size_t pruned_candidates_ = 0;
  /// Expansion currently halted by the cost ceiling (edge-detected so one
  /// long stall emits a single cost_gate event, not one per tick).
  bool cost_gated_ = false;
  /// Integral of total instrumentation cost over virtual time (for the
  /// summary's time-weighted average).
  double cost_integral_ = 0.0;
  /// True conclusions in discovery order; names are materialized only in
  /// build_result() so a counters-only search stays string-free.
  struct Found {
    int id;
    double t;
    double fraction;
  };
  std::vector<Found> found_;
  bool ran_ = false;
  bool deadline_hit_ = false;  ///< wall_budget_seconds expired mid-search
};

}  // namespace histpc::pc
