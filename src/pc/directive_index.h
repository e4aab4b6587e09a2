// DirectiveIndex: the directive lookups of the search, compiled to ids.
//
// The (hypothesis : focus) directive lookup sits on the Performance
// Consultant's innermost refinement loop: every candidate produced by
// refine() is checked against the prune directives and assigned a queue
// priority, and every conclusion reads a threshold. The consultant compiles
// its DirectiveSet once, right after apply_mappings(), against the view's
// FocusTable and the search's hypotheses, and then queries by
// (hypothesis index, FocusId) with no string work:
//  * subtree prunes become per-hierarchy coverage bitmaps over ResourceIds
//    (covered iff some prefix is a path-prefix of the resource's full
//    name; roots forced out, as a root part is never pruned);
//  * pair prunes and priorities become id-keyed hash maps;
//  * thresholds are read once per hypothesis.
//
// The DirectiveSet scans stay the property-tested reference
// (tests/directive_index_test.cpp): every id lookup returns what the scan
// returns for the hypothesis name and the focus's canonical name,
// including its tie-breaking rules (subtree before pair; first matching
// priority wins; first exact threshold wins, last wildcard is the
// fallback).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pc/directives.h"
#include "pc/hypothesis.h"
#include "resources/focus_table.h"

namespace histpc::pc {

/// A sorted set of resource-name prefixes answering "is any stored prefix
/// a path-prefix of `name`?" (util::is_path_prefix semantics) in
/// O(depth(name) · log n): every path-prefix of `name` is `name` truncated
/// at a '/' boundary, so the query binary-searches each truncation,
/// longest first. Also reused by the directive generator to keep harvested
/// prune lists subtree-root-only.
class PrefixSet {
 public:
  /// Sorted insert; duplicates are ignored.
  void insert(std::string prefix);

  bool empty() const { return sorted_.empty(); }
  std::size_t size() const { return sorted_.size(); }

  /// True when some stored prefix equals `name` or is an ancestor of it.
  bool contains_prefix_of(std::string_view name) const;

 private:
  std::vector<std::string> sorted_;
};

class DirectiveIndex {
 public:
  /// Compiles `set` against `table` and `hyps`. The index copies what it
  /// needs from `set` and does NOT see later mutations: build it after
  /// apply_mappings(). The table pointer is retained and must outlive the
  /// index. Directives naming a hypothesis outside `hyps` are dropped, and
  /// so are pair prunes and priorities whose focus does not parse against
  /// the db's resources or does not re-canonicalize to itself: canonical
  /// names are injective, so no focus built from the db's resources can
  /// carry that name.
  DirectiveIndex(const DirectiveSet& set, resources::FocusTable& table,
                 const HypothesisSet& hyps);

  /// Same results as DirectiveSet::prune_match / priority_of /
  /// threshold_for on the hypothesis's name and the focus's canonical name.
  DirectiveSet::PruneKind prune_match(int hyp, resources::FocusId focus) const;
  bool is_pruned(int hyp, resources::FocusId focus) const {
    return prune_match(hyp, focus) != DirectiveSet::PruneKind::None;
  }
  Priority priority_of(int hyp, resources::FocusId focus) const;
  std::optional<double> threshold_for(int hyp) const {
    if (by_hyp_.empty()) return std::nullopt;
    return by_hyp_.at(static_cast<std::size_t>(hyp)).threshold;
  }

 private:
  /// What the index holds for one hypothesis.
  struct PerHypothesis {
    /// Its subtree prunes. Kept for foreign parts, which have no
    /// ResourceId and so no bit in `cover`.
    PrefixSet subtree;
    /// cover[hier][rid]: rid lies under one of its subtree prunes (roots
    /// always 0); empty when it has none.
    std::vector<std::vector<std::uint8_t>> cover;
    std::optional<double> threshold;
  };

  static std::uint64_t pair_id(int hyp, resources::FocusId focus) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hyp)) << 32) |
           static_cast<std::uint32_t>(focus);
  }
  bool subtree_pruned(const PerHypothesis& own, resources::FocusId focus) const;

  resources::FocusTable* table_;
  /// By hypothesis index; empty when the set has no prunes and no
  /// thresholds, so the index of an empty set allocates nothing.
  std::vector<PerHypothesis> by_hyp_;
  /// The "*" subtree prunes, checked for every hypothesis, and their cover.
  PrefixSet subtree_any_;
  std::vector<std::vector<std::uint8_t>> any_cover_;
  std::unordered_set<std::uint64_t> pair_prunes_;
  std::unordered_set<resources::FocusId> pair_prunes_any_;
  /// First directive per (hypothesis, focus) wins, as in the scan.
  std::unordered_map<std::uint64_t, Priority> priorities_;
};

}  // namespace histpc::pc
