// DirectiveGenerator: harvest search directives from experiment records
// (Section 3 of the paper).
//
//  * General prunes — environment rules, not application-specific: the
//    SyncObject hierarchy is pruned from every non-synchronization
//    hypothesis, and the Machine hierarchy is pruned entirely when
//    processes and nodes map one-to-one (MPI-1 static process model).
//  * Historic prunes — application-specific: code resources whose measured
//    share of execution time was negligible in previous runs.
//  * Priorities — high for pairs that tested true in at least one previous
//    execution, low for pairs that tested false in all of them, medium
//    otherwise (implicitly: no directive emitted).
//  * Thresholds — the level that would report every historically
//    significant region, with a safety margin.
#pragma once

#include <span>
#include <vector>

#include "history/combiner.h"
#include "history/experiment.h"
#include "pc/directives.h"
#include "pc/hypothesis.h"

namespace histpc::history {

struct GeneratorOptions {
  bool general_prunes = true;
  bool historic_prunes = true;
  /// Emit pair prunes for (hypothesis : focus) pairs that tested false in
  /// every previous run. Aggressive: the paper's combined prunes+priorities
  /// variant deliberately omits these so new behaviours cannot be missed.
  bool false_pair_prunes = false;
  bool priorities = true;
  bool thresholds = false;  ///< off by default: Table 1 used fixed thresholds

  /// Historic prune cutoff: code resources below this fraction of
  /// execution time are pruned for every hypothesis.
  double small_code_fraction = 0.01;
  /// Threshold harvesting: regions at or above this fraction count as
  /// significant...
  double significance_floor = 0.10;
  /// ...and the generated threshold is margin * (smallest significant
  /// fraction), clamped to [0.05, 0.5].
  double threshold_margin = 0.95;
};

class DirectiveGenerator {
 public:
  explicit DirectiveGenerator(GeneratorOptions options = {}) : options_(options) {}

  /// Harvest directives from one previous execution.
  pc::DirectiveSet from_record(const ExperimentRecord& record,
                               const pc::HypothesisSet& hyps = pc::HypothesisSet::standard()) const;

  /// Harvest from several runs: a pair is high priority if true in at
  /// least one run and low only if false in every run it appeared in.
  /// Prunes and thresholds use the union/most conservative values.
  pc::DirectiveSet from_records(const std::vector<ExperimentRecord>& records,
                                const pc::HypothesisSet& hyps =
                                    pc::HypothesisSet::standard()) const;

  /// Harvest each record separately and aggregate with combine_weighted:
  /// `records` ordered oldest → newest, recent runs dominate old ones
  /// (exponential decay), and a directive needs weighted-majority support
  /// to survive. The fleet-scale alternative to from_records' pooled
  /// union when hundreds of runs of varying age are available.
  pc::DirectiveSet from_records_weighted(const std::vector<ExperimentRecord>& records,
                                         const WeightedCombineOptions& combine = {},
                                         const pc::HypothesisSet& hyps =
                                             pc::HypothesisSet::standard()) const;

  const GeneratorOptions& options() const { return options_; }

 private:
  void add_general_prunes(const ExperimentRecord& record, const pc::HypothesisSet& hyps,
                          pc::DirectiveSet& out) const;
  void add_historic_prunes(const ExperimentRecord& record, pc::DirectiveSet& out) const;
  void add_thresholds(std::span<const ExperimentRecord* const> records,
                      const pc::HypothesisSet& hyps, pc::DirectiveSet& out) const;
  /// The one harvest path: from_record and from_records both land here,
  /// so neither copies a record.
  pc::DirectiveSet harvest(std::span<const ExperimentRecord* const> records,
                           const pc::HypothesisSet& hyps) const;

  GeneratorOptions options_;
};

}  // namespace histpc::history
