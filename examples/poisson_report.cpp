// Postmortem workload report for the Poisson applications.
//
// Prints the measured execution-time distribution of a version (default C)
// the same way Section 4.2 of the paper describes it: total synchronization
// share, wait by function, wait by message tag, and wait by process. Used
// to check the simulated workload against the paper's reported shape.
//
// Usage: poisson_report [A|B|C|D] [target_duration_seconds]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/apps.h"
#include "metrics/trace_view.h"
#include "util/strings.h"

using namespace histpc;

namespace {

resources::Focus with(const metrics::TraceView& view, const std::string& part) {
  resources::Focus f = resources::Focus::whole_program(view.resources());
  auto parts = util::split(part, '/');
  int idx = view.resources().hierarchy_index(parts[1]);
  return f.with_part(static_cast<std::size_t>(idx), part);
}

void report_fraction(const metrics::TraceView& view, metrics::MetricKind metric,
                     const std::string& label, const resources::Focus& focus) {
  const double frac = view.fraction(metric, focus);
  std::printf("  %-42s %6s\n", label.c_str(), util::fmt_percent(frac).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const char version = argc > 1 ? argv[1][0] : 'C';
  apps::AppParams params;
  if (argc > 2) params.target_duration = std::atof(argv[2]);
  else params.target_duration = 300.0;  // a short run suffices for the report

  simmpi::Simulator sim(apps::poisson_network());
  const simmpi::ExecutionTrace trace = sim.run(apps::build_poisson(version, params));
  const metrics::TraceView view(trace);

  std::printf("Poisson version %c: %d ranks, %.1f virtual seconds\n\n", version,
              trace.num_ranks(), trace.duration);
  std::printf("%s\n", trace.summary().c_str());

  const auto whole = resources::Focus::whole_program(view.resources());
  std::printf("whole-program fractions:\n");
  report_fraction(view, metrics::MetricKind::CpuTime, "CPU", whole);
  report_fraction(view, metrics::MetricKind::SyncWaitTime, "sync wait", whole);
  report_fraction(view, metrics::MetricKind::IoWaitTime, "I/O wait", whole);

  std::printf("\nsync wait by code resource:\n");
  const auto& code = view.resources().hierarchy(resources::kCodeHierarchy);
  for (auto id : code.preorder()) {
    if (id == code.root()) continue;
    report_fraction(view, metrics::MetricKind::SyncWaitTime, code.node(id).full_name,
                    with(view, code.node(id).full_name));
  }

  std::printf("\nsync wait by message tag / collective:\n");
  const auto& sync = view.resources().hierarchy(resources::kSyncObjectHierarchy);
  for (auto id : sync.preorder()) {
    if (sync.node(id).depth != 2) continue;
    report_fraction(view, metrics::MetricKind::SyncWaitTime, sync.node(id).full_name,
                    with(view, sync.node(id).full_name));
  }

  std::printf("\nsync wait by process (normalized per process):\n");
  const auto& proc = view.resources().hierarchy(resources::kProcessHierarchy);
  for (auto id : proc.preorder()) {
    if (id == proc.root()) continue;
    report_fraction(view, metrics::MetricKind::SyncWaitTime, proc.node(id).full_name,
                    with(view, proc.node(id).full_name));
  }
  return 0;
}
