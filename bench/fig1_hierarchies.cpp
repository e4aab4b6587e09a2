// Figure 1 — Representing program "Tester": the Code, Machine and Process
// resource hierarchies, and the focus notation that selects function
// verifyA of process Tester:2 running on any CPU.
#include "bench_common.h"

#include "metrics/trace_view.h"

using namespace histpc;

int main() {
  bench::print_header("Figure 1: resource hierarchies of program Tester",
                      "Karavanic & Miller SC'99, Figure 1 (Section 2)");

  apps::AppParams params;
  params.target_duration = 60.0;
  const simmpi::ExecutionTrace trace = apps::run_app("tester", params);
  const metrics::TraceView view(trace);
  const auto& db = view.resources();

  for (std::string_view name :
       {resources::kCodeHierarchy, resources::kMachineHierarchy, resources::kProcessHierarchy}) {
    std::printf("%s\n", db.hierarchy(name).render().c_str());
  }

  // The shaded selection of the figure: function verifyA of process
  // Tester:2 running on any CPU.
  const auto focus = resources::Focus::parse(
      "</Code/testutil.C/verifyA,/Machine,/Process/Tester:2>", db);
  std::printf("resource name of function verifyA: /Code/testutil.C/verifyA\n");
  std::printf("focus \"verifyA of process Tester:2 on any CPU\":\n  %s\n\n",
              focus->name().c_str());

  // And the measurement that focus constrains (CPU time there).
  const double frac = view.fraction(metrics::MetricKind::CpuTime, *focus);
  std::printf("CPU time under that focus: %s of Tester:2's execution\n",
              util::fmt_percent(frac).c_str());
  return 0;
}
