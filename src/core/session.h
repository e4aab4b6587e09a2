// DiagnosisSession: the high-level public API of HistPC.
//
// A session wraps one program execution (an application run under the
// simulated machine) and supports repeated online diagnoses over it —
// undirected, or guided by search directives harvested from earlier
// sessions. Typical tuning loop:
//
//   core::DiagnosisSession s("poisson_a");
//   auto base = s.diagnose();                         // cold, single-button
//   history::ExperimentStore store(".histpc");
//   store.save(s.make_record(base, "A"));
//
//   // next run / next version:
//   history::DirectiveGenerator gen;
//   auto directives = gen.from_record(*store.latest("poisson", "A"));
//   core::DiagnosisSession s2("poisson_b");
//   directives.maps = history::suggest_mappings(recordA.resources,
//                                               s2.view().resources());
//   auto directed = s2.diagnose(directives);          // fast, focused
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "apps/apps.h"
#include "history/experiment.h"
#include "metrics/trace_view.h"
#include "pc/consultant.h"
#include "telemetry/perf_record.h"
#include "telemetry/registry.h"

namespace histpc::core {

class DiagnosisSession {
 public:
  /// Run a registered application (see apps::app_names) and prepare it for
  /// diagnosis.
  explicit DiagnosisSession(const std::string& app_name, apps::AppParams params = {},
                            pc::PcConfig config = {});

  /// Diagnose an existing trace (e.g. replayed from another tool or built
  /// from a workload spec); `name` labels records made from this session.
  explicit DiagnosisSession(simmpi::ExecutionTrace trace, pc::PcConfig config = {},
                            std::string name = "(external trace)");

  const std::string& app_name() const { return app_name_; }
  const simmpi::ExecutionTrace& trace() const { return *trace_; }
  const metrics::TraceView& view() const { return *view_; }
  const pc::PcConfig& config() const { return config_; }
  pc::PcConfig& config() { return config_; }

  /// Run the Performance Consultant over this execution. Each call is an
  /// independent online search (fresh instrumentation).
  pc::DiagnosisResult diagnose(const pc::DirectiveSet& directives = {});

  /// Figure 2-style rendering of the most recent diagnosis's SHG, made on
  /// each call; empty before the first diagnosis.
  std::string last_shg() const { return last_graph_ ? last_graph_->render() : std::string(); }
  /// The most recent diagnosis's SHG (for last_shg() and DOT export);
  /// nullptr before the first diagnosis.
  const pc::SearchHistoryGraph* last_graph() const {
    return last_graph_ ? &*last_graph_ : nullptr;
  }

  /// Session-level wall-clock telemetry: "session.view_build" and
  /// "session.diagnose" timers, plus the path the trace took. Without a
  /// trace cache, "session.simulate" covers recording and simulating.
  /// With one (PcConfig::trace_cache_dir), "session.trace_key" times the
  /// recording of the app straight into the cache key and
  /// "session.trace_load" the lookup; a hit builds no program, and only a
  /// miss adds "session.record" (recording again, into op vectors),
  /// "session.simulate" and "session.trace_store". The `trace_cache.*`
  /// counters say which it was.
  /// diagnose() folds the consultant's own registry (pc.* counters and
  /// timers, with their lap histograms) in here, so after a diagnosis this
  /// registry is the complete performance picture of the run, summed over
  /// every diagnosis. The result's phase_seconds covers only that one
  /// diagnosis plus the session's construction timers.
  const telemetry::Registry& registry() const { return registry_; }

  /// Build a storable experiment record from a diagnosis of this session.
  history::ExperimentRecord make_record(const pc::DiagnosisResult& result,
                                        const std::string& version) const;

  /// Snapshot this session's telemetry as a historical performance record
  /// of histpc itself (app, version, machine, build id, config knobs, and
  /// the full registry). Append it to a telemetry::PerfLog to make future
  /// runs diagnosable with `histpc perf-diff`.
  telemetry::PerfRecord make_perf_record(const std::string& version) const;

 private:
  std::string app_name_;
  telemetry::Registry registry_;
  std::unique_ptr<simmpi::ExecutionTrace> trace_;
  std::unique_ptr<metrics::TraceView> view_;
  pc::PcConfig config_;
  /// Only the graph outlives a diagnosis: the consultant, its probes and
  /// its metric engine go with it.
  std::optional<pc::SearchHistoryGraph> last_graph_;
};

}  // namespace histpc::core
