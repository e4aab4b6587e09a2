#include "pc/directive_index.h"

#include <algorithm>

namespace histpc::pc {

void PrefixSet::insert(std::string prefix) {
  auto it = std::lower_bound(sorted_.begin(), sorted_.end(), prefix);
  if (it != sorted_.end() && *it == prefix) return;
  sorted_.insert(it, std::move(prefix));
}

bool PrefixSet::contains_prefix_of(std::string_view name) const {
  if (sorted_.empty()) return false;
  // A path-prefix of `name` is `name` itself or `name` cut at a '/'
  // boundary (is_path_prefix: equal, or followed by '/'). Successive
  // rfind('/') truncations enumerate exactly those candidates, longest
  // first, down to the empty string (which path-prefixes any "/..." name).
  std::string_view candidate = name;
  for (;;) {
    if (std::binary_search(sorted_.begin(), sorted_.end(), candidate)) return true;
    if (candidate.empty()) return false;
    const auto pos = candidate.rfind('/');
    if (pos == std::string_view::npos) return false;
    candidate = candidate.substr(0, pos);
  }
}

DirectiveIndex::DirectiveIndex(const DirectiveSet& set, resources::FocusTable& table,
                               const HypothesisSet& hyps)
    : table_(&table) {
  if (!set.prunes.empty() || !set.thresholds.empty()) by_hyp_.resize(hyps.size());
  // The scan applies a directive to every hypothesis of its name.
  auto for_each_hyp = [&](std::string_view name, auto&& fn) {
    for (std::size_t i = 0; i < hyps.size(); ++i)
      if (hyps.all()[i].name == name) fn(static_cast<int>(i));
  };
  for (const PruneDirective& p : set.prunes) {
    if (p.hypothesis == kAnyHypothesis)
      subtree_any_.insert(p.resource_prefix);
    else
      for_each_hyp(p.hypothesis, [&](int hyp) {
        by_hyp_[static_cast<std::size_t>(hyp)].subtree.insert(p.resource_prefix);
      });
  }

  // Subtree prunes -> per-hierarchy coverage bitmaps. covered[rid] is the
  // scan's per-part test evaluated once per resource: every non-root full
  // name is a constrained part, and contains_prefix_of already walks the
  // ancestor truncations. Roots stay 0 (never pruned).
  const std::size_t nh = table.num_hierarchies();
  auto build_cover = [&](const PrefixSet& prefixes) {
    std::vector<std::vector<std::uint8_t>> cover;
    if (prefixes.empty()) return cover;
    cover.resize(nh);
    for (std::size_t h = 0; h < nh; ++h) {
      const resources::ResourceHierarchy& tree = table.hierarchy(h);
      cover[h].assign(tree.size(), 0);
      for (std::size_t rid = 1; rid < tree.size(); ++rid)
        cover[h][rid] = prefixes.contains_prefix_of(
                            tree.node(static_cast<resources::ResourceId>(rid)).full_name)
                            ? 1
                            : 0;
    }
    return cover;
  };
  any_cover_ = build_cover(subtree_any_);
  for (std::size_t i = 0; i < by_hyp_.size(); ++i) {
    by_hyp_[i].cover = build_cover(by_hyp_[i].subtree);
    by_hyp_[i].threshold = set.threshold_for(hyps.all()[i].name);
  }

  // A directive focus string matches a real focus's canonical name iff it
  // parses (with resource validation) and re-canonicalizes to itself —
  // name() is injective, so anything else can never equal a real node's
  // name and is dropped.
  auto canonical_id = [&](std::string_view focus) -> std::optional<resources::FocusId> {
    auto fid = table.parse(focus);
    if (!fid) return std::nullopt;
    if (table.to_focus(*fid).name() != focus) return std::nullopt;
    return fid;
  };
  for (const PairPruneDirective& p : set.pair_prunes) {
    if (p.hypothesis == kAnyHypothesis) {
      if (auto fid = canonical_id(p.focus)) pair_prunes_any_.insert(*fid);
      continue;
    }
    for_each_hyp(p.hypothesis, [&](int hyp) {
      if (auto fid = canonical_id(p.focus)) pair_prunes_.insert(pair_id(hyp, *fid));
    });
  }
  for (const PriorityDirective& p : set.priorities)
    for_each_hyp(p.hypothesis, [&](int hyp) {
      if (auto fid = canonical_id(p.focus)) priorities_.emplace(pair_id(hyp, *fid), p.priority);
    });
}

DirectiveSet::PruneKind DirectiveIndex::prune_match(int hyp,
                                                    resources::FocusId focus) const {
  // by_hyp_ is empty only when the set has no subtree prunes at all.
  if (!by_hyp_.empty() && subtree_pruned(by_hyp_.at(static_cast<std::size_t>(hyp)), focus))
    return DirectiveSet::PruneKind::Subtree;
  if (!pair_prunes_any_.empty() && pair_prunes_any_.find(focus) != pair_prunes_any_.end())
    return DirectiveSet::PruneKind::Pair;
  if (!pair_prunes_.empty() && pair_prunes_.find(pair_id(hyp, focus)) != pair_prunes_.end())
    return DirectiveSet::PruneKind::Pair;
  return DirectiveSet::PruneKind::None;
}

bool DirectiveIndex::subtree_pruned(const PerHypothesis& own, resources::FocusId focus) const {
  if (any_cover_.empty() && own.cover.empty()) return false;
  for (std::size_t h = 0; h < table_->num_hierarchies(); ++h) {
    const resources::PartId pid = table_->part(focus, h);
    if (pid == 0) continue;  // a root part is never pruned
    const resources::ResourceId rid = resources::FocusTable::part_resource(pid);
    if (rid == resources::kNoResource) {
      // Foreign part: fall back to the scan's string test.
      const std::string& pname = table_->part_name(h, pid);
      if (is_constrained_part(pname) && (subtree_any_.contains_prefix_of(pname) ||
                                         own.subtree.contains_prefix_of(pname)))
        return true;
      continue;
    }
    const auto urid = static_cast<std::size_t>(rid);
    if (!any_cover_.empty() && any_cover_[h][urid]) return true;
    if (!own.cover.empty() && own.cover[h][urid]) return true;
  }
  return false;
}

Priority DirectiveIndex::priority_of(int hyp, resources::FocusId focus) const {
  if (priorities_.empty()) return Priority::Medium;
  auto it = priorities_.find(pair_id(hyp, focus));
  return it == priorities_.end() ? Priority::Medium : it->second;
}

}  // namespace histpc::pc
