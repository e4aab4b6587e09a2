#include "core/session.h"

#include <chrono>
#include <optional>

#include "simmpi/simulator.h"
#include "simmpi/trace_cache.h"

namespace histpc::core {

DiagnosisSession::DiagnosisSession(const std::string& app_name, apps::AppParams params,
                                   pc::PcConfig config)
    : app_name_(app_name), config_(std::move(config)) {
  if (config_.trace_cache_dir.empty()) {
    telemetry::ScopedTimer timer(registry_, "session.simulate");
    trace_ = std::make_unique<simmpi::ExecutionTrace>(apps::run_app(app_name, params));
  } else {
    // The recorded program plus the network model is exactly what the
    // content key covers. A hit records the app once, straight into the
    // key, and builds no program; a miss records it again into op vectors
    // and simulates. Both recordings start from the same seeded spec, so
    // they record the same ops.
    const simmpi::ProgramSpec spec = apps::app_spec(app_name, params);
    const simmpi::NetworkModel net = apps::network_for(app_name);
    simmpi::TraceCache cache({config_.trace_cache_dir, config_.trace_cache_max_bytes},
                             &registry_);
    simmpi::TraceKey key;
    {
      telemetry::ScopedTimer timer(registry_, "session.trace_key");
      key = simmpi::record_trace_key(spec, net);
    }
    std::optional<simmpi::ExecutionTrace> cached;
    {
      telemetry::ScopedTimer timer(registry_, "session.trace_load");
      cached = cache.load(key);
    }
    if (cached) {
      trace_ = std::make_unique<simmpi::ExecutionTrace>(std::move(*cached));
    } else {
      simmpi::SimProgram program;
      {
        telemetry::ScopedTimer timer(registry_, "session.record");
        program = simmpi::record_program(spec);
      }
      {
        telemetry::ScopedTimer timer(registry_, "session.simulate");
        trace_ = std::make_unique<simmpi::ExecutionTrace>(simmpi::Simulator(net).run(program));
      }
      telemetry::ScopedTimer timer(registry_, "session.trace_store");
      cache.store(key, *trace_);
    }
  }
  telemetry::ScopedTimer timer(registry_, "session.view_build");
  view_ = std::make_unique<metrics::TraceView>(*trace_);
}

DiagnosisSession::DiagnosisSession(simmpi::ExecutionTrace trace, pc::PcConfig config,
                                   std::string name)
    : app_name_(std::move(name)),
      trace_(std::make_unique<simmpi::ExecutionTrace>(std::move(trace))),
      config_(std::move(config)) {
  telemetry::ScopedTimer timer(registry_, "session.view_build");
  view_ = std::make_unique<metrics::TraceView>(*trace_);
}

pc::DiagnosisResult DiagnosisSession::diagnose(const pc::DirectiveSet& directives) {
  pc::PerformanceConsultant consultant(*view_, config_, directives);
  const auto start = std::chrono::steady_clock::now();
  pc::DiagnosisResult result = consultant.run();
  const double lap =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  registry_.add_seconds("session.diagnose", lap);
  // phase_seconds stays per diagnosis: the consultant filled the pc.*
  // entries from its own registry; add the session's one-time construction
  // timers and this call's lap, never the registry's running totals.
  for (const auto& [name, stat] : registry_.timers())
    if (name.starts_with("session.")) result.telemetry.phase_seconds[name] = stat.seconds;
  result.telemetry.phase_seconds["session.diagnose"] = lap;
  // Fold the consultant's registry (pc.* counters/timers and their lap
  // histograms) into the session's, so registry() — and any PerfRecord
  // made from it — covers the whole run, not just the session phases.
  registry_.merge_from(consultant.tracer().registry());
  last_graph_.emplace(std::move(consultant).take_shg());
  return result;
}

history::ExperimentRecord DiagnosisSession::make_record(const pc::DiagnosisResult& result,
                                                        const std::string& version) const {
  const double threshold =
      config_.threshold_override > 0 ? config_.threshold_override : 0.20;
  // Record under the app family name (strip the version suffix, if any).
  std::string family = app_name_;
  if (auto pos = family.rfind('_'); pos != std::string::npos && pos + 2 == family.size())
    family.resize(pos);
  return history::make_record(family, version, *view_, result, threshold);
}

telemetry::PerfRecord DiagnosisSession::make_perf_record(const std::string& version) const {
  telemetry::PerfRecord rec;
  rec.app = app_name_;
  rec.version = version;
  rec.kind = "diagnose";
  rec.machine = telemetry::machine_name();
  rec.build = telemetry::build_id();
  rec.config["threshold_override"] = std::to_string(config_.threshold_override);
  rec.config["cost_limit"] = std::to_string(config_.cost_limit);
  rec.config["trace_cache"] = config_.trace_cache_dir.empty() ? "0" : "1";
  rec.registry = registry_;
  return rec;
}

}  // namespace histpc::core
