#include "history/generator.h"

#include <algorithm>
#include <map>

#include "pc/directive_index.h"
#include "util/strings.h"

namespace histpc::history {

using pc::DirectiveSet;
using pc::HypothesisSet;
using pc::Priority;

void DirectiveGenerator::add_general_prunes(const ExperimentRecord& record,
                                            const HypothesisSet& hyps,
                                            DirectiveSet& out) const {
  // SyncObject refinement is meaningless for non-synchronization
  // hypotheses: those metrics have no per-message component.
  for (const auto& h : hyps.all())
    if (!h.sync_related) out.prunes.push_back({h.name, "/SyncObject"});
  // Redundant hierarchy: process <-> node is a bijection, so refining by
  // machine duplicates refining by process.
  if (record.machine_process_one_to_one)
    out.prunes.push_back({std::string(pc::kAnyHypothesis), "/Machine"});
}

void DirectiveGenerator::add_historic_prunes(const ExperimentRecord& record,
                                             DirectiveSet& out) const {
  // Prune small code resources. Emitting only subtree roots keeps the
  // directive list short: if a whole module is negligible, its functions
  // need no directives of their own. code_usage iterates in lexicographic
  // order, so a module is always seen before its functions.
  pc::PrefixSet pruned;
  for (const auto& [res, frac] : record.code_usage) {
    if (frac >= options_.small_code_fraction) continue;
    if (pruned.contains_prefix_of(res)) continue;
    pruned.insert(res);
    out.prunes.push_back({std::string(pc::kAnyHypothesis), res});
  }
}

void DirectiveGenerator::add_thresholds(std::span<const ExperimentRecord* const> records,
                                        const HypothesisSet& hyps, DirectiveSet& out) const {
  // For each hypothesis, find the smallest historically significant
  // fraction among concluded pairs and set the threshold just below it, so
  // a new run reports the full set of significant regions without paying
  // for noise below them.
  for (const auto& h : hyps.all()) {
    double min_significant = -1.0;
    for (const ExperimentRecord* rec : records) {
      for (const auto& n : rec->nodes) {
        if (n.hypothesis != h.name) continue;
        if (n.conclude_time < 0) continue;  // never measured
        if (n.fraction < options_.significance_floor) continue;
        if (min_significant < 0 || n.fraction < min_significant)
          min_significant = n.fraction;
      }
    }
    if (min_significant < 0) continue;
    double threshold = options_.threshold_margin * min_significant;
    threshold = std::clamp(threshold, 0.05, 0.5);
    out.thresholds.push_back({h.name, threshold});
  }
}

pc::DirectiveSet DirectiveGenerator::from_record(const ExperimentRecord& record,
                                                 const HypothesisSet& hyps) const {
  const ExperimentRecord* one = &record;
  return harvest({&one, 1}, hyps);
}

pc::DirectiveSet DirectiveGenerator::from_records(const std::vector<ExperimentRecord>& records,
                                                  const HypothesisSet& hyps) const {
  std::vector<const ExperimentRecord*> ptrs;
  ptrs.reserve(records.size());
  for (const auto& r : records) ptrs.push_back(&r);
  return harvest(ptrs, hyps);
}

pc::DirectiveSet DirectiveGenerator::harvest(std::span<const ExperimentRecord* const> records,
                                             const HypothesisSet& hyps) const {
  DirectiveSet out;
  if (records.empty()) return out;

  if (options_.general_prunes) add_general_prunes(*records.front(), hyps, out);
  if (options_.historic_prunes)
    for (const ExperimentRecord* rec : records) add_historic_prunes(*rec, out);

  if (options_.priorities || options_.false_pair_prunes) {
    // Pair -> (ever true, ever false). High beats low when runs disagree:
    // a pair that was ever a bottleneck deserves immediate attention.
    std::map<std::pair<std::string, std::string>, std::pair<bool, bool>> outcomes;
    for (const ExperimentRecord* rec : records) {
      for (const auto& n : rec->nodes) {
        auto& o = outcomes[{n.hypothesis, n.focus}];
        if (n.status == pc::NodeStatus::True) o.first = true;
        if (n.status == pc::NodeStatus::False) o.second = true;
      }
    }
    for (const auto& [key, o] : outcomes) {
      if (options_.priorities) {
        if (o.first)
          out.priorities.push_back({key.first, key.second, Priority::High});
        else if (o.second)
          out.priorities.push_back({key.first, key.second, Priority::Low});
      }
      if (options_.false_pair_prunes && o.second && !o.first)
        out.pair_prunes.push_back({key.first, key.second});
    }
  }

  if (options_.thresholds) add_thresholds(records, hyps, out);

  // Dedup prunes accumulated across records.
  std::sort(out.prunes.begin(), out.prunes.end(),
            [](const pc::PruneDirective& a, const pc::PruneDirective& b) {
              return std::tie(a.hypothesis, a.resource_prefix) <
                     std::tie(b.hypothesis, b.resource_prefix);
            });
  out.prunes.erase(std::unique(out.prunes.begin(), out.prunes.end()), out.prunes.end());
  return out;
}

pc::DirectiveSet DirectiveGenerator::from_records_weighted(
    const std::vector<ExperimentRecord>& records, const WeightedCombineOptions& combine,
    const pc::HypothesisSet& hyps) const {
  std::vector<pc::DirectiveSet> sets;
  sets.reserve(records.size());
  for (const ExperimentRecord& rec : records) sets.push_back(from_record(rec, hyps));
  return combine_weighted(sets, combine);
}

}  // namespace histpc::history
