#include "history/experiment.h"

#include <set>

#include "telemetry/perf_record.h"
#include "util/strings.h"

namespace histpc::history {

using util::Json;

namespace {

Json node_to_json(const pc::NodeSnapshot& n) {
  Json j = Json::object();
  j["hypothesis"] = n.hypothesis;
  j["focus"] = n.focus;
  j["status"] = pc::node_status_name(n.status);
  j["priority"] = pc::priority_name(n.priority);
  j["conclude_time"] = n.conclude_time;
  j["fraction"] = n.fraction;
  return j;
}

pc::NodeSnapshot node_from_json(const Json& j) {
  pc::NodeSnapshot n;
  n.hypothesis = j.at("hypothesis").as_string();
  n.focus = j.at("focus").as_string();
  const std::string status = j.at("status").as_string();
  for (pc::NodeStatus s : {pc::NodeStatus::Pending, pc::NodeStatus::Active, pc::NodeStatus::True,
                           pc::NodeStatus::False, pc::NodeStatus::Pruned,
                           pc::NodeStatus::NeverRan}) {
    if (status == pc::node_status_name(s)) n.status = s;
  }
  if (auto p = pc::priority_from_name(j.at("priority").as_string())) n.priority = *p;
  n.conclude_time = j.at("conclude_time").as_double();
  n.fraction = j.at("fraction").as_double();
  return n;
}

}  // namespace

Json ExperimentRecord::to_json() const {
  Json j = Json::object();
  j["app"] = app;
  j["version"] = version;
  j["run_id"] = run_id;
  j["machine"] = machine;
  j["scenario"] = scenario;
  j["duration"] = duration;
  j["nranks"] = nranks;
  j["machine_process_one_to_one"] = machine_process_one_to_one;
  j["threshold_used"] = threshold_used;
  j["pairs_tested"] = pairs_tested;
  j["resources"] = resources.to_json();

  Json nodes_json = Json::array();
  for (const auto& n : nodes) nodes_json.push_back(node_to_json(n));
  j["nodes"] = std::move(nodes_json);

  Json bn = Json::array();
  for (const auto& b : bottlenecks) {
    Json e = Json::object();
    e["hypothesis"] = b.hypothesis;
    e["focus"] = b.focus;
    e["t_found"] = b.t_found;
    e["fraction"] = b.fraction;
    bn.push_back(std::move(e));
  }
  j["bottlenecks"] = std::move(bn);

  Json usage = Json::object();
  for (const auto& [res, frac] : code_usage) usage[res] = frac;
  j["code_usage"] = std::move(usage);
  return j;
}

ExperimentRecord ExperimentRecord::from_json(const Json& j) {
  ExperimentRecord r;
  r.app = j.at("app").as_string();
  r.version = j.at("version").as_string();
  r.run_id = j.at("run_id").as_string();
  // Absent from records written before the fleet-scale store existed.
  r.machine = j.get_or("machine", std::string());
  r.scenario = j.get_or("scenario", std::string());
  r.duration = j.at("duration").as_double();
  r.nranks = static_cast<int>(j.at("nranks").as_int());
  r.machine_process_one_to_one = j.at("machine_process_one_to_one").as_bool();
  r.threshold_used = j.get_or("threshold_used", 0.0);
  r.pairs_tested = static_cast<std::size_t>(j.get_or("pairs_tested", 0.0));
  r.resources = resources::ResourceDb::from_json(j.at("resources"));
  for (const auto& n : j.at("nodes").as_array()) r.nodes.push_back(node_from_json(n));
  for (const auto& b : j.at("bottlenecks").as_array()) {
    pc::BottleneckReport br;
    br.hypothesis = b.at("hypothesis").as_string();
    br.focus = b.at("focus").as_string();
    br.t_found = b.at("t_found").as_double();
    br.fraction = b.at("fraction").as_double();
    r.bottlenecks.push_back(std::move(br));
  }
  for (const auto& [res, frac] : j.at("code_usage").as_object())
    r.code_usage[res] = frac.as_double();
  return r;
}

ExperimentRecord make_record(std::string app, std::string version,
                             const metrics::TraceView& view,
                             const pc::DiagnosisResult& result, double threshold_used) {
  ExperimentRecord r;
  r.app = std::move(app);
  r.version = std::move(version);
  r.machine = telemetry::machine_name();
  const auto& trace = view.trace();
  r.duration = trace.duration;
  r.nranks = trace.num_ranks();
  r.threshold_used = threshold_used;
  r.pairs_tested = result.stats.pairs_tested;
  r.nodes = result.nodes;
  r.bottlenecks = result.bottlenecks;

  r.resources = view.resources();

  // Postmortem code usage over the full run: fraction of execution time
  // (normalized per selected process) attributable to each module/function.
  const auto& code = view.resources().hierarchy(resources::kCodeHierarchy);
  for (resources::ResourceId id : code.preorder()) {
    if (id == code.root()) continue;
    resources::Focus f = resources::Focus::whole_program(view.resources());
    int code_idx = view.resources().hierarchy_index(resources::kCodeHierarchy);
    f = f.with_part(static_cast<std::size_t>(code_idx), code.node(id).full_name);
    r.code_usage[code.node(id).full_name] =
        view.fraction(metrics::MetricKind::ExecTime, f);
  }

  // One process per node and vice versa? Then the Machine hierarchy is
  // redundant with Process (the paper's MPI-1 example).
  std::set<int> used_nodes(trace.machine.rank_to_node.begin(), trace.machine.rank_to_node.end());
  r.machine_process_one_to_one =
      used_nodes.size() == trace.machine.rank_to_node.size() &&
      static_cast<int>(used_nodes.size()) == trace.machine.num_nodes();
  return r;
}

}  // namespace histpc::history
