#include "history/combiner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>
#include <utility>

namespace histpc::history {

using pc::DirectiveSet;
using pc::Priority;

namespace {

void sort_unique_prunes(std::vector<pc::PruneDirective>& prunes) {
  std::sort(prunes.begin(), prunes.end(),
            [](const pc::PruneDirective& x, const pc::PruneDirective& y) {
              return std::tie(x.hypothesis, x.resource_prefix) <
                     std::tie(y.hypothesis, y.resource_prefix);
            });
  prunes.erase(std::unique(prunes.begin(), prunes.end()), prunes.end());
}

}  // namespace

DirectiveSet combine_runs(const std::vector<DirectiveSet>& sets, CombineMode mode) {
  DirectiveSet out;
  const std::size_t n = sets.size();
  if (n == 0) return out;

  for (const DirectiveSet& s : sets) {
    out.prunes.insert(out.prunes.end(), s.prunes.begin(), s.prunes.end());
    out.thresholds.insert(out.thresholds.end(), s.thresholds.begin(), s.thresholds.end());
    out.maps.insert(out.maps.end(), s.maps.begin(), s.maps.end());
    // pair_prunes deliberately dropped: an exact-pair prune harvested
    // from one run is too aggressive to survive pooling.
  }
  sort_unique_prunes(out.prunes);
  out.resolve_threshold_conflicts();

  // Count, per (hypothesis : focus), how many runs voted High / Low; a run
  // votes at most once per level. "High in all" means all n runs, so a
  // pair one run never tested cannot reach intersection-High.
  struct Votes {
    std::size_t high = 0, low = 0;
    std::size_t last_high_run = 0, last_low_run = 0;  ///< 1-based; 0 = none yet
  };
  std::map<std::pair<std::string, std::string>, Votes> pairs;
  for (std::size_t run = 1; run <= n; ++run) {
    for (const auto& p : sets[run - 1].priorities) {
      auto& v = pairs[{p.hypothesis, p.focus}];
      if (p.priority == Priority::High && v.last_high_run != run) {
        ++v.high;
        v.last_high_run = run;
      }
      if (p.priority == Priority::Low && v.last_low_run != run) {
        ++v.low;
        v.last_low_run = run;
      }
    }
  }
  for (const auto& [key, v] : pairs) {
    Priority result = Priority::Medium;
    if (mode == CombineMode::Intersection) {
      if (v.high == n) result = Priority::High;
      else if (v.low == n) result = Priority::Low;
    } else {  // Union
      if (v.high > 0) result = Priority::High;
      else if (v.low > 0) result = Priority::Low;
    }
    if (result != Priority::Medium)
      out.priorities.push_back({key.first, key.second, result});
  }
  return out;
}

DirectiveSet combine_weighted(const std::vector<DirectiveSet>& sets,
                              const WeightedCombineOptions& options) {
  DirectiveSet out;
  const std::size_t n = sets.size();
  if (n == 0) return out;

  std::vector<double> weight(n, 1.0);
  if (options.half_life_runs > 0.0)
    for (std::size_t i = 0; i < n; ++i)
      weight[i] = std::pow(0.5, static_cast<double>(n - 1 - i) / options.half_life_runs);
  double total_weight = 0.0;
  for (double w : weight) total_weight += w;

  // Weighted votes per priority pair and weighted support per prune. A set
  // listing the same directive twice still votes its weight once.
  struct Votes {
    double high = 0.0, low = 0.0;
  };
  std::map<std::pair<std::string, std::string>, Votes> pairs;
  std::map<std::pair<std::string, std::string>, double> prune_support;
  std::map<std::pair<std::string, std::string>, double> pair_prune_support;
  for (std::size_t i = 0; i < n; ++i) {
    const DirectiveSet& s = sets[i];
    std::set<std::pair<std::string, std::string>> seen;
    for (const auto& p : s.priorities) {
      if (!seen.insert({p.hypothesis, p.focus}).second) continue;
      auto& v = pairs[{p.hypothesis, p.focus}];
      if (p.priority == Priority::High) v.high += weight[i];
      if (p.priority == Priority::Low) v.low += weight[i];
    }
    seen.clear();
    for (const auto& p : s.prunes)
      if (seen.insert({p.hypothesis, p.resource_prefix}).second)
        prune_support[{p.hypothesis, p.resource_prefix}] += weight[i];
    seen.clear();
    for (const auto& p : s.pair_prunes)
      if (seen.insert({p.hypothesis, p.focus}).second)
        pair_prune_support[{p.hypothesis, p.focus}] += weight[i];

    out.thresholds.insert(out.thresholds.end(), s.thresholds.begin(), s.thresholds.end());
    for (const auto& m : s.maps) {
      const bool dup = std::any_of(out.maps.begin(), out.maps.end(), [&](const auto& e) {
        return e.from == m.from && e.to == m.to;
      });
      if (!dup) out.maps.push_back(m);
    }
  }
  out.resolve_threshold_conflicts();

  for (const auto& [key, support] : prune_support)
    if (support >= options.prune_fraction * total_weight)
      out.prunes.push_back({key.first, key.second});
  for (const auto& [key, support] : pair_prune_support)
    if (support >= options.prune_fraction * total_weight)
      out.pair_prunes.push_back({key.first, key.second});

  for (const auto& [key, v] : pairs) {
    const double denom = v.high + v.low;
    if (denom <= 0.0) continue;
    Priority result = Priority::Medium;
    if (v.high >= options.high_fraction * denom) result = Priority::High;
    else if (v.low >= options.low_fraction * denom) result = Priority::Low;
    if (result != Priority::Medium)
      out.priorities.push_back({key.first, key.second, result});
  }
  return out;
}

}  // namespace histpc::history
