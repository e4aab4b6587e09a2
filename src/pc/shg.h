// The Search History Graph (SHG): a DAG whose nodes are the
// (hypothesis : focus) pairs the Performance Consultant has considered.
// Different refinement paths can reach the same pair, so nodes are deduped
// by (hypothesis, interned focus) and may have multiple parents.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "instr/instrumentation.h"
#include "pc/directives.h"
#include "pc/hypothesis.h"
#include "resources/focus_table.h"

namespace histpc::pc {

enum class NodeStatus {
  Pending,  ///< created, waiting for instrumentation budget
  Active,   ///< instrumented, collecting data
  True,     ///< concluded a bottleneck
  False,    ///< concluded not a bottleneck
  Pruned,   ///< excluded by a pruning directive (never instrumented)
  NeverRan, ///< still Pending/Active when the program ended
};

const char* node_status_name(NodeStatus s);

struct ShgNode {
  int id = -1;
  int hyp = -1;  ///< index into the HypothesisSet; -1 for the virtual root
  /// The node's focus in the graph's FocusTable; kNoFocus for the virtual
  /// root. Names resolve lazily through SearchHistoryGraph::focus_name(id).
  resources::FocusId fid = resources::kNoFocus;
  NodeStatus status = NodeStatus::Pending;
  Priority priority = Priority::Medium;
  bool persistent = false;

  instr::ProbeId probe = instr::kNoProbe;
  double enqueue_time = 0.0;
  double activate_time = -1.0;
  double conclude_time = -1.0;   ///< first conclusion
  double first_true_time = -1.0; ///< first time the node tested true
  double fraction = 0.0;         ///< measured fraction at (last) conclusion

  std::vector<int> parents;
  std::vector<int> children;
};

class SearchHistoryGraph {
 public:
  /// Nodes are keyed by (hypothesis, FocusId) in `foci`, which resolves
  /// their names lazily. The table must outlive the graph; the graph keeps
  /// its own copy of `hyps`, so it can outlive the search that built it.
  SearchHistoryGraph(const HypothesisSet& hyps, const resources::FocusTable& foci);

  /// The virtual (TopLevelHypothesis : WholeProgram) root, id 0.
  int root() const { return 0; }

  /// Find a node by (hypothesis index, focus id); -1 if absent.
  int find(int hyp, resources::FocusId fid) const;

  /// Create (or return the existing) node and link it under `parent`. No
  /// name is materialized.
  int add_node(int hyp, resources::FocusId fid, int parent, double now);

  /// Canonical focus name of a node (the table's memoized name;
  /// "<WholeProgram>" for the virtual root).
  const std::string& focus_name(int id) const;

  ShgNode& node(int id) { return nodes_.at(static_cast<std::size_t>(id)); }
  const ShgNode& node(int id) const { return nodes_.at(static_cast<std::size_t>(id)); }
  std::size_t size() const { return nodes_.size(); }

  const HypothesisSet& hypotheses() const { return hyps_; }

  /// Hypothesis name of a node ("TopLevelHypothesis" for the root).
  std::string hypothesis_name(int id) const;

  /// Counts by status (excluding the virtual root).
  std::size_t count(NodeStatus status) const;

  /// Paradyn-style list-box rendering (paper Fig. 2): indentation by
  /// refinement depth, one line per node with its status.
  std::string render() const;

  /// Graphviz export: one node per (hypothesis : focus) pair, colored by
  /// status like Paradyn's display (true dark, false light), every
  /// refinement edge included — unlike render(), converging DAG paths are
  /// fully visible. Feed to `dot -Tsvg`.
  std::string to_dot() const;

 private:
  /// Dedup key: hypothesis index packed with the FocusId.
  static std::uint64_t key(int hyp, resources::FocusId fid) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hyp)) << 32) |
           static_cast<std::uint32_t>(fid);
  }

  HypothesisSet hyps_;
  const resources::FocusTable& foci_;
  std::vector<ShgNode> nodes_;
  std::unordered_map<std::uint64_t, int> index_;
};

}  // namespace histpc::pc
