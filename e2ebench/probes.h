// Spans around the HistPC calls that wrap several layers.
//
// The DiagnosisSession constructor runs record -> cache key -> trace load
// or simulate (+ cache store) -> view build in one call, and diagnose()
// runs the whole search. The benchmark cannot put spans inside them, so a
// traced run splits them afterwards:
//  * per-call registry deltas give the phases the program times itself
//    (session.record / trace_load / simulate / view_build, pc.advance /
//    evaluate / expand, metrics.batch.blocks_*). The session registry is
//    fresh per session, and diagnose() deltas are taken around each call —
//    never DiagnosisResult::telemetry.phase_seconds, which is cumulative
//    over the session;
//  * the two untimed calls, trace_content_key and TraceCache::store, are
//    replayed on the same inputs after the operation, outside its timed
//    window, and the replayed durations are placed inside the constructor
//    span in call order. Whatever else the constructor does (the network
//    model, the cache object) stays core.session_build self time.
// With tracing off every wrapper is the plain call.
#pragma once

#include <memory>
#include <string>

#include "apps/apps.h"
#include "core/session.h"
#include "ledger.h"
#include "pc/directives.h"

namespace histpc::e2e {

/// What split_session_span needs to know about one constructor call.
struct SessionSpan {
  int index = -1;  ///< the core.session_build span (-1 when not traced)
  std::string app;
  apps::AppParams params;
};

/// DiagnosisSession(app, params, config) inside a core.session_build span.
std::unique_ptr<core::DiagnosisSession> session_for_app(const std::string& app,
                                                        const apps::AppParams& params,
                                                        const pc::PcConfig& config,
                                                        SpanRecorder& spans, SessionSpan* out);

/// DiagnosisSession(trace, config, name) inside a core.session_build span.
std::unique_ptr<core::DiagnosisSession> session_for_trace(simmpi::ExecutionTrace trace,
                                                          const pc::PcConfig& config,
                                                          const std::string& name,
                                                          SpanRecorder& spans, SessionSpan* out);

/// Give a finished core.session_build span its children (see above). On a
/// cache miss the replayed store rewrites the snapshot the constructor
/// just stored, byte for byte.
void split_session_span(const SessionSpan& span, const core::DiagnosisSession& session,
                        SpanRecorder& spans);

/// session.diagnose(directives) inside a core.diagnose span, with pc.* and
/// metrics.* children and counts taken from this call's registry delta.
pc::DiagnosisResult diagnose(core::DiagnosisSession& session, const pc::DirectiveSet& directives,
                             SpanRecorder& spans);

/// Canonical bytes of a result — the served "result" object, so one-shot
/// and served results compare byte for byte.
std::string result_bytes(const std::string& app, const pc::DiagnosisResult& result);

/// A served /diagnose reply is correct when its status is 200 and its body
/// carries exactly `expected` (result_bytes of the same request run
/// in-process) as its "result": {"result":<expected>,"server":{...}}.
bool served_result_matches(const std::string& expected, int status, const std::string& body);

}  // namespace histpc::e2e
