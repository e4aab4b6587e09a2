#include "history/analysis.h"

#include <tuple>

#include "resources/focus.h"

namespace histpc::history {

using pc::DirectiveSet;
using pc::Priority;

namespace {

MembershipCounts tally(const std::map<std::pair<std::string, std::string>, unsigned>& masks) {
  MembershipCounts out;
  for (const auto& [key, mask] : masks) {
    (void)key;
    ++out.counts[mask];
    ++out.total;
  }
  return out;
}

}  // namespace

PrioritySimilarity priority_similarity(const std::vector<DirectiveSet>& sets) {
  std::map<std::pair<std::string, std::string>, unsigned> high_masks, low_masks, both_masks;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const unsigned bit = 1u << i;
    for (const auto& p : sets[i].priorities) {
      auto key = std::make_pair(p.hypothesis, p.focus);
      if (p.priority == Priority::High) high_masks[key] |= bit;
      if (p.priority == Priority::Low) low_masks[key] |= bit;
      if (p.priority != Priority::Medium) both_masks[key] |= bit;
    }
  }
  PrioritySimilarity sim;
  sim.high = tally(high_masks);
  sim.low = tally(low_masks);
  sim.both = tally(both_masks);
  return sim;
}

MembershipCounts bottleneck_overlap(
    const std::vector<std::vector<pc::BottleneckReport>>& runs) {
  std::map<std::pair<std::string, std::string>, unsigned> masks;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const unsigned bit = 1u << i;
    for (const auto& b : runs[i]) masks[{b.hypothesis, b.focus}] |= bit;
  }
  return tally(masks);
}

std::vector<pc::BottleneckReport> filter_pruned(
    const std::vector<pc::BottleneckReport>& reference, const pc::DirectiveSet& directives,
    const resources::ResourceDb& db) {
  pc::DirectiveSet mapped = directives;
  mapped.apply_mappings();
  std::vector<pc::BottleneckReport> out;
  for (const auto& b : reference) {
    auto focus = resources::Focus::parse(b.focus, db, /*validate_resources=*/false);
    if (focus && mapped.is_pruned(b.hypothesis, *focus)) continue;
    out.push_back(b);
  }
  return out;
}

std::vector<pc::BottleneckReport> significant_bottlenecks(
    const std::vector<pc::BottleneckReport>& bottlenecks, double min_fraction) {
  std::vector<pc::BottleneckReport> out;
  for (const auto& b : bottlenecks)
    if (b.fraction >= min_fraction) out.push_back(b);
  return out;
}

std::string mask_label(unsigned mask, const std::vector<std::string>& names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (mask & (1u << i)) {
      if (!out.empty()) out += ",";
      out += names[i];
    }
  }
  if (out.empty()) return "(none)";
  // Single membership reads better as "X only".
  if (out.find(',') == std::string::npos) out += " only";
  return out;
}

}  // namespace histpc::history
