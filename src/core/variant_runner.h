// Parallel variant runner: execute several independent diagnoses of one
// execution concurrently on a small thread pool.
//
// The paper's evaluations are bundles of diagnoses over the *same* run —
// table 1's six directive configurations, the ablations, the threshold
// sweeps. Each diagnosis is an independent online search, so once the
// expensive shared state is immutable-or-synchronized they parallelize
// trivially:
//  * the TraceView (trace, resource db, whole-run totals, block
//    summaries) is built once and only read;
//  * the view's FocusTable is append-only and internally synchronized, so
//    concurrent consultants intern into one shared table (ids agree across
//    variants, memoized names/refinements are computed once);
//  * the view's compiled-filter cache is mutex-guarded.
// Everything else (SHG, instrumentation, tracer) is per-consultant.
//
// Determinism: outcomes are stored by input index and the combined
// telemetry is an input-order fold, so the report is byte-identical
// regardless of scheduling or thread count (tests/core_test.cpp asserts
// threads=1 == threads=N).
#pragma once

#include <string>
#include <vector>

#include "history/experiment.h"
#include "metrics/trace_view.h"
#include "pc/consultant.h"

namespace histpc::core {

/// One diagnosis configuration to run against the shared TraceView.
struct DiagnosisVariant {
  std::string name;
  pc::PcConfig config;
  pc::DirectiveSet directives;
};

struct VariantOutcome {
  std::string name;
  pc::DiagnosisResult result;
  double wall_seconds = 0.0;  ///< this variant's own search wall time
};

struct VariantRunReport {
  std::vector<VariantOutcome> outcomes;  ///< input order, independent of scheduling
  /// Input-order merge of the per-variant telemetry (combine_telemetry).
  pc::TelemetrySummary combined;
  double wall_seconds = 0.0;  ///< whole bundle, including thread start/join
  int threads = 1;            ///< workers actually used
};

/// Deterministic input-order fold of the per-variant summaries: counters
/// and phase_seconds summed, peak_cost maxed, avg_cost weighted by each
/// variant's virtual search duration.
pc::TelemetrySummary combine_telemetry(const std::vector<VariantOutcome>& outcomes);

/// Run every variant against `view` on a pool of `threads` workers
/// (0 = hardware_concurrency; always clamped to [1, variants.size()]).
/// Workers claim variants from an atomic counter; a variant that throws
/// rethrows from here (first by input order) after the pool drains.
VariantRunReport run_variants(const metrics::TraceView& view,
                              const std::vector<DiagnosisVariant>& variants,
                              int threads = 0);

/// The six table-1 configurations (No Directives, Prunes Only, General
/// Prunes Only, Historic Prunes Only, Priorities Only, Priorities & All
/// Prunes), with directives generated from `record`. Every variant copies
/// `base` as its PcConfig.
std::vector<DiagnosisVariant> table1_variants(const history::ExperimentRecord& record,
                                              const pc::PcConfig& base = {});

}  // namespace histpc::core
