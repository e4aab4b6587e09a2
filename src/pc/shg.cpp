#include "pc/shg.h"

#include <algorithm>
#include <sstream>

#include "util/strings.h"

namespace histpc::pc {

const char* node_status_name(NodeStatus s) {
  switch (s) {
    case NodeStatus::Pending: return "pending";
    case NodeStatus::Active: return "active";
    case NodeStatus::True: return "true";
    case NodeStatus::False: return "false";
    case NodeStatus::Pruned: return "pruned";
    case NodeStatus::NeverRan: return "never-ran";
  }
  return "?";
}

SearchHistoryGraph::SearchHistoryGraph(const HypothesisSet& hyps,
                                       const resources::FocusTable& foci)
    : hyps_(hyps), foci_(foci) {
  ShgNode root;
  root.id = 0;
  root.hyp = -1;
  root.status = NodeStatus::True;  // the virtual root is trivially true
  root.conclude_time = 0.0;
  root.first_true_time = 0.0;
  nodes_.push_back(std::move(root));
}

int SearchHistoryGraph::find(int hyp, resources::FocusId fid) const {
  auto it = index_.find(key(hyp, fid));
  return it == index_.end() ? -1 : it->second;
}

const std::string& SearchHistoryGraph::focus_name(int id) const {
  static const std::string kRootLabel = "<WholeProgram>";
  const ShgNode& n = node(id);
  return n.fid == resources::kNoFocus ? kRootLabel : foci_.name(n.fid);
}

int SearchHistoryGraph::add_node(int hyp, resources::FocusId fid, int parent, double now) {
  const auto [it, inserted] = index_.emplace(key(hyp, fid), static_cast<int>(nodes_.size()));
  if (!inserted) {
    // Converging refinement path: just add the edge (DAG property).
    const int existing = it->second;
    ShgNode& n = nodes_[static_cast<std::size_t>(existing)];
    if (std::find(n.parents.begin(), n.parents.end(), parent) == n.parents.end()) {
      n.parents.push_back(parent);
      nodes_[static_cast<std::size_t>(parent)].children.push_back(existing);
    }
    return existing;
  }
  ShgNode n;
  n.id = it->second;
  n.hyp = hyp;
  n.fid = fid;
  n.enqueue_time = now;
  n.parents.push_back(parent);
  nodes_.push_back(std::move(n));
  nodes_[static_cast<std::size_t>(parent)].children.push_back(it->second);
  return it->second;
}

std::string SearchHistoryGraph::hypothesis_name(int id) const {
  const ShgNode& n = node(id);
  if (n.hyp < 0) return std::string(kTopLevelHypothesisName);
  return hyps_.at(n.hyp).name;
}

std::size_t SearchHistoryGraph::count(NodeStatus status) const {
  std::size_t c = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i)
    if (nodes_[i].status == status) ++c;
  return c;
}

std::string SearchHistoryGraph::to_dot() const {
  auto color_of = [](NodeStatus s) {
    switch (s) {
      case NodeStatus::True: return "#5aa469";     // tested true: dark green
      case NodeStatus::False: return "#d3d3d3";    // tested false: light grey
      case NodeStatus::Pruned: return "#f2c9c9";
      case NodeStatus::NeverRan: return "#ffffff";
      default: return "#fff3c4";                   // pending/active: amber
    }
  };
  auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  std::ostringstream os;
  os << "digraph shg {\n  rankdir=TB;\n  node [shape=box, style=filled, fontsize=10];\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const ShgNode& n = nodes_[i];
    std::string label = i == 0 ? std::string(kTopLevelHypothesisName)
                               : hypothesis_name(static_cast<int>(i)) + "\\n" +
                                     escape(focus_name(static_cast<int>(i)));
    if (n.conclude_time >= 0 && i != 0)
      label += "\\n" + std::string(util::fmt_percent(n.fraction)) + " @" +
               util::fmt_double(n.conclude_time, 1) + "s";
    os << "  n" << i << " [label=\"" << label << "\", fillcolor=\"" << color_of(n.status)
       << "\"];\n";
  }
  for (const ShgNode& n : nodes_)
    for (int child : n.children) os << "  n" << n.id << " -> n" << child << ";\n";
  os << "}\n";
  return os.str();
}

std::string SearchHistoryGraph::render() const {
  std::ostringstream os;
  // DAG nodes can have several parents; render under the first parent only
  // (Paradyn's list box does the same and marks the node elsewhere).
  std::vector<bool> rendered(nodes_.size(), false);
  auto emit = [&](auto&& self, int id, int depth) -> void {
    const ShgNode& n = node(id);
    for (int i = 0; i < depth; ++i) os << "  ";
    if (id == root()) {
      os << kTopLevelHypothesisName;
    } else {
      os << hypothesis_name(id) << " : " << focus_name(id);
    }
    os << "  [" << node_status_name(n.status);
    if (n.status == NodeStatus::True || n.status == NodeStatus::False)
      os << " " << util::fmt_percent(n.fraction) << " @" << util::fmt_double(n.conclude_time, 1)
         << "s";
    os << "]";
    if (rendered[static_cast<std::size_t>(id)]) {
      os << " (see above)\n";
      return;
    }
    rendered[static_cast<std::size_t>(id)] = true;
    os << "\n";
    for (int child : n.children) {
      if (node(child).parents.front() == id || !rendered[static_cast<std::size_t>(child)])
        self(self, child, depth + 1);
    }
  };
  emit(emit, root(), 0);
  return os.str();
}

}  // namespace histpc::pc
