// Combining search directives from multiple previous runs (Section 4.3):
//
//  * combine_runs — the paper's intersection and union, over any number of
//    runs. Intersection (A ∩ B): high priority only for pairs that tested
//    true in EVERY run; low only for pairs false in every run. Union
//    (A ∪ B): high for pairs true in ANY run; low for pairs false in some
//    run and true in none. Combination operates on the priority
//    directives; prunes, thresholds and maps are concatenated (prunes
//    deduped).
//  * combine_weighted — recency- and frequency-weighted voting: each run
//    carries an exponentially decayed weight (newest = 1), and a priority
//    or prune directive survives when its weighted support clears a
//    configurable fraction of the vote. Ties break toward High / keeping
//    the directive, and all outputs are emitted in sorted order, so the
//    result is deterministic in the input order (which callers fix as
//    oldest → newest; see select_similar_runs).
#pragma once

#include <cstddef>
#include <vector>

#include "pc/directives.h"

namespace histpc::history {

enum class CombineMode { Intersection, Union };

/// N-run intersection/union. Intersection: a pair is High only when High
/// in every run, Low only when Low in every run. Union: High when High
/// anywhere, else Low when Low anywhere. A run listing a pair twice at one
/// level still votes once for it. Prunes are concatenated and deduped,
/// thresholds resolved conservatively (max wins), maps concatenated; pair
/// prunes are dropped. Priorities come out sorted by (hypothesis, focus).
pc::DirectiveSet combine_runs(const std::vector<pc::DirectiveSet>& sets, CombineMode mode);

struct WeightedCombineOptions {
  /// Runs this far before the newest carry half its weight. The newest run
  /// always weighs 1; <= 0 disables decay (pure frequency voting).
  double half_life_runs = 8.0;
  /// A pair is High when the High vote reaches this fraction of the
  /// (High + Low) weight on that pair; ties (exactly the fraction) stay
  /// High — recent evidence of a real bottleneck should not be discarded
  /// by an equally weighted old refutation.
  double high_fraction = 0.5;
  /// Otherwise the pair is Low when the Low vote reaches this fraction of
  /// the (High + Low) weight; below both fractions no directive is emitted.
  double low_fraction = 0.5;
  /// A prune (subtree or pair) survives when the weight of the runs
  /// proposing it reaches this fraction of the total weight — one ancient
  /// run claiming a region is negligible should not prune it forever.
  double prune_fraction = 0.5;
};

/// Weighted N-run aggregation over `sets` ordered oldest → newest. Run i
/// of n weighs 2^-((n-1-i)/half_life_runs). Priorities and prunes are
/// weighted votes (see WeightedCombineOptions); pair prunes survive by the
/// same rule as subtree prunes; thresholds are concatenated then resolved
/// conservatively; maps are concatenated oldest → newest keeping the first
/// occurrence of each (from, to). Deterministic: every output vector is
/// sorted.
pc::DirectiveSet combine_weighted(const std::vector<pc::DirectiveSet>& sets,
                                  const WeightedCombineOptions& options = {});

}  // namespace histpc::history
