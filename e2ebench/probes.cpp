#include "probes.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "serve/session_pool.h"
#include "simmpi/trace_cache.h"

namespace histpc::e2e {

namespace {

/// Lay `children` end to end from the parent's start, clipped to its end.
void add_children(SpanRecorder& spans, int parent,
                  const std::vector<std::pair<const char*, double>>& children) {
  if (parent < 0) return;
  const Span p = spans.spans()[static_cast<std::size_t>(parent)];
  double t = p.start_ms;
  for (const auto& [name, ms] : children) {
    const double end = std::min(t + std::max(ms, 0.0), p.end_ms);
    spans.add(name, t, end, parent);
    t = end;
  }
}

double timer_ms(const telemetry::Registry& reg, const char* name) {
  return reg.timer(name).seconds * 1e3;
}

}  // namespace

std::unique_ptr<core::DiagnosisSession> session_for_app(const std::string& app,
                                                        const apps::AppParams& params,
                                                        const pc::PcConfig& config,
                                                        SpanRecorder& spans, SessionSpan* out) {
  auto scope = spans.span("core.session_build");
  *out = SessionSpan{scope.index(), app, params};
  return std::make_unique<core::DiagnosisSession>(app, params, config);
}

std::unique_ptr<core::DiagnosisSession> session_for_trace(simmpi::ExecutionTrace trace,
                                                          const pc::PcConfig& config,
                                                          const std::string& name,
                                                          SpanRecorder& spans, SessionSpan* out) {
  auto scope = spans.span("core.session_build");
  *out = SessionSpan{scope.index(), name, {}};
  return std::make_unique<core::DiagnosisSession>(std::move(trace), config, name);
}

void split_session_span(const SessionSpan& span, const core::DiagnosisSession& session,
                        SpanRecorder& spans) {
  if (span.index < 0) return;
  const telemetry::Registry& reg = session.registry();
  std::vector<std::pair<const char*, double>> children;
  const std::string& cache_dir = session.config().trace_cache_dir;
  if (!cache_dir.empty()) {
    // Same calls, same order, same inputs as the constructor's cache path.
    children.emplace_back("apps.record", timer_ms(reg, "session.record"));
    const simmpi::SimProgram program = apps::build_app(span.app, span.params);
    const simmpi::NetworkModel net = apps::network_for(span.app);
    auto t0 = Clock::now();
    const simmpi::TraceKey key = simmpi::trace_content_key(program, net);
    children.emplace_back("simmpi.key", ms_between(t0, Clock::now()));
    children.emplace_back("simmpi.cache_load", timer_ms(reg, "session.trace_load"));
    const bool hit = reg.counter("trace_cache.hit") > 0;
    spans.count("simmpi.cache_loads", 1);
    spans.count("simmpi.cache_hits", hit ? 1 : 0);
    if (!hit) {
      children.emplace_back("simmpi.simulate", timer_ms(reg, "session.simulate"));
      // Rewrites the identical snapshot the constructor just stored.
      const simmpi::TraceCache cache({cache_dir, session.config().trace_cache_max_bytes});
      t0 = Clock::now();
      cache.store(key, session.trace());
      children.emplace_back("simmpi.cache_store", ms_between(t0, Clock::now()));
    }
  }
  children.emplace_back("metrics.view_build", timer_ms(reg, "session.view_build"));
  add_children(spans, span.index, children);
}

pc::DiagnosisResult diagnose(core::DiagnosisSession& session, const pc::DirectiveSet& directives,
                             SpanRecorder& spans) {
  if (!spans.enabled()) return session.diagnose(directives);
  const telemetry::Registry& reg = session.registry();
  const double advance0 = timer_ms(reg, "pc.advance");
  const double evaluate0 = timer_ms(reg, "pc.evaluate");
  const double expand0 = timer_ms(reg, "pc.expand");
  const auto considered0 = reg.counter("metrics.batch.blocks_considered");
  const auto skipped0 = reg.counter("metrics.batch.blocks_skipped");

  pc::DiagnosisResult result;
  int index = -1;
  {
    auto scope = spans.span("core.diagnose");
    index = scope.index();
    result = session.diagnose(directives);
  }
  add_children(spans, index,
               {{"pc.advance", timer_ms(reg, "pc.advance") - advance0},
                {"pc.evaluate", timer_ms(reg, "pc.evaluate") - evaluate0},
                {"pc.expand", timer_ms(reg, "pc.expand") - expand0}});
  spans.count("pc.diagnoses", 1);
  spans.count("pc.pairs_tested", static_cast<double>(result.stats.pairs_tested));
  spans.count("pc.prune_hits", static_cast<double>(result.telemetry.prune_hits_subtree +
                                                   result.telemetry.prune_hits_pair));
  spans.count("metrics.blocks_considered",
              static_cast<double>(reg.counter("metrics.batch.blocks_considered") - considered0));
  spans.count("metrics.blocks_skipped",
              static_cast<double>(reg.counter("metrics.batch.blocks_skipped") - skipped0));
  return result;
}

std::string result_bytes(const std::string& app, const pc::DiagnosisResult& result) {
  return serve::diagnose_result_json(app, result, "").dump();
}

bool served_result_matches(const std::string& expected, int status, const std::string& body) {
  static const std::string kHead = "{\"result\":";
  static const std::string kTail = ",\"server\":";
  return status == 200 && body.size() > kHead.size() + expected.size() + kTail.size() &&
         body.compare(0, kHead.size(), kHead) == 0 &&
         body.compare(kHead.size(), expected.size(), expected) == 0 &&
         body.compare(kHead.size() + expected.size(), kTail.size(), kTail) == 0;
}

}  // namespace histpc::e2e
