#include <stdexcept>

#include "apps/apps.h"

namespace histpc::apps {

simmpi::ProgramSpec app_spec(const std::string& name, const AppParams& params) {
  if (name == "poisson_a") return poisson_spec('A', params);
  if (name == "poisson_b") return poisson_spec('B', params);
  if (name == "poisson_c") return poisson_spec('C', params);
  if (name == "poisson_d") return poisson_spec('D', params);
  if (name == "ocean") return ocean_spec(params);
  if (name == "tester") return tester_spec(params);
  if (name == "bubba") return bubba_spec(params);
  if (name == "seismic") return seismic_spec(params);
  if (name == "taskfarm") return taskfarm_spec(params);
  throw std::invalid_argument("unknown app: " + name);
}

simmpi::SimProgram build_app(const std::string& name, const AppParams& params) {
  return simmpi::record_program(app_spec(name, params));
}

simmpi::SimProgram build_poisson(char version, const AppParams& params) {
  return simmpi::record_program(poisson_spec(version, params));
}
simmpi::SimProgram build_ocean(const AppParams& params) {
  return simmpi::record_program(ocean_spec(params));
}
simmpi::SimProgram build_tester(const AppParams& params) {
  return simmpi::record_program(tester_spec(params));
}
simmpi::SimProgram build_seismic(const AppParams& params) {
  return simmpi::record_program(seismic_spec(params));
}
simmpi::SimProgram build_taskfarm(const AppParams& params) {
  return simmpi::record_program(taskfarm_spec(params));
}
simmpi::SimProgram build_bubba(const AppParams& params) {
  return simmpi::record_program(bubba_spec(params));
}

simmpi::NetworkModel network_for(const std::string& name) {
  if (name == "ocean") return ocean_network();
  if (name.rfind("poisson_", 0) == 0) return poisson_network();
  return simmpi::NetworkModel{};
}

std::vector<std::string> app_names() {
  return {"poisson_a", "poisson_b", "poisson_c", "poisson_d", "ocean", "tester", "bubba",
          "seismic", "taskfarm"};
}

simmpi::ExecutionTrace run_app(const std::string& name, const AppParams& params) {
  simmpi::Simulator sim(network_for(name));
  return sim.run(build_app(name, params));
}

}  // namespace histpc::apps
