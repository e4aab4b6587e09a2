#include "history/postmortem.h"

#include <deque>
#include <optional>
#include <set>

#include "util/strings.h"

namespace histpc::history {

using pc::DiagnosisResult;
using pc::Hypothesis;
using pc::NodeStatus;
using resources::Focus;

namespace {

/// Apply a hypothesis's implicit SyncObject scope to a focus; nullopt when
/// they are disjoint (mirrors the Performance Consultant's probe focus).
std::optional<Focus> scoped_focus(const metrics::TraceView& view, const Hypothesis& hyp,
                                  const Focus& focus) {
  if (hyp.sync_scope.empty()) return focus;
  const int sync_idx = view.resources().hierarchy_index(resources::kSyncObjectHierarchy);
  if (sync_idx < 0 || static_cast<std::size_t>(sync_idx) >= focus.size()) return focus;
  const std::string& part = focus.part(static_cast<std::size_t>(sync_idx));
  if (util::is_path_prefix(hyp.sync_scope, part)) return focus;
  if (util::is_path_prefix(part, hyp.sync_scope))
    return focus.with_part(static_cast<std::size_t>(sync_idx), hyp.sync_scope);
  return std::nullopt;
}

}  // namespace

DiagnosisResult postmortem_diagnose(const metrics::TraceView& view,
                                    const PostmortemOptions& options) {
  const auto& hyps = options.hypotheses;

  DiagnosisResult result;
  std::set<std::pair<int, std::string>> seen;
  std::deque<std::pair<int, Focus>> pending;

  const Focus whole = Focus::whole_program(view.resources());
  for (int root : hyps.roots()) pending.emplace_back(root, whole);

  auto threshold_for = [&](int hyp) {
    return options.threshold_override > 0 ? options.threshold_override
                                          : hyps.at(hyp).default_threshold;
  };

  while (!pending.empty()) {
    auto [hyp, focus] = std::move(pending.front());
    pending.pop_front();
    const std::string focus_name = focus.name();
    if (!seen.emplace(hyp, focus_name).second) continue;

    pc::NodeSnapshot snap;
    snap.hypothesis = hyps.at(hyp).name;
    snap.focus = focus_name;

    if (seen.size() > options.max_pairs) {
      snap.status = NodeStatus::NeverRan;
      result.nodes.push_back(std::move(snap));
      continue;
    }

    const auto probe = scoped_focus(view, hyps.at(hyp), focus);
    if (!probe) continue;  // incompatible pair: the online PC never creates it

    // Foci recur across hypotheses during expansion; the cached compiled
    // filter avoids recompiling one per (hypothesis, focus) pair.
    const double fraction =
        view.fraction(hyps.at(hyp).metric, view.compiled(*probe));
    snap.fraction = fraction;
    snap.conclude_time = 0.0;
    ++result.stats.pairs_tested;

    if (fraction >= threshold_for(hyp)) {
      snap.status = NodeStatus::True;
      result.bottlenecks.push_back({snap.hypothesis, focus_name, 0.0, fraction});
      for (Focus& child : focus.refinements(view.resources()))
        pending.emplace_back(hyp, std::move(child));
      for (int child_hyp : hyps.at(hyp).children) pending.emplace_back(child_hyp, focus);
    } else {
      snap.status = NodeStatus::False;
    }
    result.nodes.push_back(std::move(snap));
  }

  result.stats.nodes_created = result.nodes.size();
  result.stats.bottlenecks = result.bottlenecks.size();
  result.stats.end_time = 0.0;
  return result;
}

ExperimentRecord postmortem_record(std::string app, std::string version,
                                   const metrics::TraceView& view,
                                   const PostmortemOptions& options) {
  const DiagnosisResult result = postmortem_diagnose(view, options);
  const double threshold =
      options.threshold_override > 0 ? options.threshold_override : 0.20;
  return make_record(std::move(app), std::move(version), view, result, threshold);
}

}  // namespace histpc::history
