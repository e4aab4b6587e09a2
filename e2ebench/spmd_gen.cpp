#include "spmd_gen.h"

#include <algorithm>
#include <cstdio>

#include "util/json.h"
#include "util/rng.h"

namespace histpc::e2e {

using util::Json;

namespace {

constexpr int kRanks = 16;
constexpr int kModules = 3;
constexpr int kFunctionsPerModule = 4;
// About 3 s of virtual time each: long enough for the search to reach the
// message tags at the benchmark's cost limit.
constexpr int kIterations = 700;

const char* const kVerbs[] = {"solve",  "update", "flux",   "stencil", "pack",
                              "unpack", "interp", "smooth", "advect",  "limit"};

Json compute_step(double seconds, const std::string& function, const std::string& module) {
  Json s = Json::object();
  s["op"] = "compute";
  s["seconds"] = seconds;
  s["function"] = function;
  s["module"] = module;
  return s;
}

Json named_step(const char* op, const std::string& function, const std::string& module) {
  Json s = Json::object();
  s["op"] = op;
  s["function"] = function;
  s["module"] = module;
  return s;
}

std::string two_digits(int v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%02d", v);
  return buf;
}

}  // namespace

GeneratedSpec generate_spmd(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5eedf00dULL);
  GeneratedSpec out;
  out.name = "spmd" + std::to_string(seed % 100000);
  const int ranks = kRanks;

  // Code resources: module k holds functions "<verb>_<k><j>".
  std::vector<std::pair<std::string, std::string>> funcs;  // (module, function)
  for (int m = 0; m < kModules; ++m)
    for (int f = 0; f < kFunctionsPerModule; ++f)
      funcs.emplace_back("mod" + std::to_string(m) + ".c",
                         std::string(kVerbs[rng.next_below(std::size(kVerbs))]) + "_" +
                             std::to_string(m) + std::to_string(f));

  // The injections are placed apart (hot and imbalanced functions in
  // different modules, the slow node not one of the overloaded ranks) so
  // every seed gives a search of about the same size.
  const auto per_module = static_cast<std::size_t>(kFunctionsPerModule);
  const std::size_t hot = rng.next_below(funcs.size());
  std::size_t imbalanced = rng.next_below(funcs.size() - per_module);
  if (imbalanced >= hot / per_module * per_module) imbalanced += per_module;
  int slow_rank = 0;
  while (slow_rank % 8 == 0)  // ranks 0, 8, ... are the overloaded ones
    slow_rank = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(ranks)));
  const int tag = 10 + static_cast<int>(rng.next_below(90));

  Json body = Json::array();
  // Background: every function a small, slightly noisy share of an
  // iteration, so none crosses a hypothesis threshold on its own.
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    if (i == hot || i == imbalanced) continue;
    body.push_back(compute_step(rng.uniform(0.010, 0.020), funcs[i].second, funcs[i].first));
  }
  body.push_back(compute_step(rng.uniform(0.85, 0.95), funcs[hot].second, funcs[hot].first));

  Json imb = compute_step(rng.uniform(0.14, 0.16), funcs[imbalanced].second,
                          funcs[imbalanced].first);
  Json factors = Json::array();
  for (int r = 0; r < ranks; ++r) factors.push_back(r % 8 == 0 ? 7.0 : 1.0);
  imb["factors"] = std::move(factors);
  body.push_back(std::move(imb));
  body.push_back(named_step("barrier", "rebalance", "imbalance.c"));

  Json halo = named_step("exchange", "halo", "comm.c");
  halo["pattern"] = "ring";
  halo["tag"] = 1;
  halo["bytes"] = 4096;
  body.push_back(std::move(halo));

  Json bulk = named_step("exchange", "transpose", "comm.c");
  bulk["pattern"] = "ring";
  bulk["tag"] = tag;
  bulk["bytes"] = static_cast<double>(78'000'000 + rng.next_below(6'000'000));
  body.push_back(std::move(bulk));

  Json reduce = named_step("allreduce", "residual", "solver.c");
  reduce["bytes"] = 8;
  body.push_back(std::move(reduce));

  Json machine = Json::object();
  machine["node_prefix"] = "n";
  machine["process_prefix"] = out.name;
  Json speeds = Json::array();
  for (int r = 0; r < ranks; ++r) speeds.push_back(r == slow_rank ? 0.8 : 1.0);
  machine["speeds"] = std::move(speeds);

  Json spec = Json::object();
  spec["name"] = out.name;
  spec["ranks"] = ranks;
  spec["iterations"] = kIterations;
  spec["machine"] = std::move(machine);
  spec["body"] = std::move(body);
  out.json = spec.dump();

  out.truth.push_back({"hot_function", "CPUbound",
                       "/Code/" + funcs[hot].first + "/" + funcs[hot].second + ","});
  out.truth.push_back({"imbalance", "ExcessiveSyncWaitingTime", "/Code/imbalance.c"});
  // MachineSpec::one_to_one names node k "<prefix><k+1>", two digits wide.
  out.truth.push_back({"slow_node", "CPUbound", "/Machine/n" + two_digits(slow_rank + 1) + ","});
  out.truth.push_back(
      {"tag_contention", "ExcessiveSyncWaitingTime", "/SyncObject/Message/" + std::to_string(tag)});
  return out;
}

bool reported(const Injection& injection, const std::vector<pc::BottleneckReport>& bottlenecks) {
  return std::any_of(bottlenecks.begin(), bottlenecks.end(), [&](const pc::BottleneckReport& b) {
    return b.hypothesis == injection.hypothesis &&
           b.focus.find(injection.focus_part) != std::string::npos;
  });
}

}  // namespace histpc::e2e
