// SessionPool: shared read-mostly diagnosis state behind `histpc serve`.
//
// The one-shot CLI pays the full pipeline on every invocation: record the
// program, load-or-simulate the trace, build the TraceView, then search.
// The pool keeps the expensive, immutable prefix of that pipeline resident
// — one DiagnosisSession (trace + TraceView + interned FocusTable) per
// distinct (app, duration, node_base), built once and shared by every
// subsequent request — so a warm request is nothing but a
// PerformanceConsultant run over an already-built view. This is exactly
// the variant-runner concurrency model (parallel consultants over one
// TraceView; the FocusTable is internally synchronized), generalized from
// "variants of one session" to "many independent sessions".
//
// Determinism makes a second reuse level sound: the simulator and the
// search are bit-reproducible, so identical diagnosis requests have
// identical answers, and the pool memoizes the serialized result keyed by
// the request's deterministic fields (the paper's thesis — reuse of
// historical performance results — applied to the server's own work).
// Deadline-limited requests are never cached: a wall-clock budget makes
// the *extent* of the search timing-dependent.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/session.h"
#include "pc/consultant.h"
#include "telemetry/registry.h"
#include "util/json.h"

namespace histpc::serve {

/// One /diagnose request, decoded. Defaults mirror the CLI's `run`.
struct DiagnoseRequest {
  std::string app;
  double duration = 1500.0;
  int node_base = 1;
  double threshold = -1.0;   ///< <= 0: hypothesis defaults
  double cost_limit = 0.05;
  std::string directives_text;  ///< DirectiveSet::serialize() format
  double deadline_ms = 0.0;     ///< > 0: wall budget for the search
  bool want_shg = false;
  bool use_result_cache = true;  ///< request opt-out ("no_result_cache")

  /// Decode a request body; throws util::JsonError naming the bad field.
  /// Fields it does not know are ignored, so bodies from older clients
  /// that still send retired fields keep working.
  static DiagnoseRequest from_json(const util::Json& body);

  /// Canonical key over the fields that determine the diagnosis result.
  std::string cache_key() const;
};

/// The deterministic "result" object for a diagnosis: app, bottlenecks,
/// stats, and the deterministic telemetry counts — everything that must be
/// bit-identical between a served request and a one-shot CLI run. Wall-
/// clock-dependent fields (phase timings) are excluded by construction.
/// The bit-identity oracle test serializes its locally-computed result
/// through this same function.
util::Json diagnose_result_json(const std::string& app, const pc::DiagnosisResult& result,
                                const std::string& shg_render);

struct DiagnoseReply {
  util::Json result;             ///< diagnose_result_json(...)
  bool warm_view = false;        ///< served from an already-built session
  bool result_cache_hit = false;
  /// Per-request telemetry: the consultant's pc.* registry plus the
  /// serve.request timer — the payload of this request's PerfRecord.
  telemetry::Registry registry;
};

class SessionPool {
 public:
  /// `trace_cache_dir` (possibly empty = no snapshot cache) is handed to
  /// every session the pool builds; `result_cache` master-switches the
  /// memoized-result layer (requests can still opt out individually).
  SessionPool(std::string trace_cache_dir, bool result_cache);

  /// Execute one diagnosis. Thread-safe; concurrent callers share warm
  /// state. Throws util::JsonError (bad directives), std::invalid_argument
  /// (unknown app), or std::runtime_error (simulation failure).
  DiagnoseReply diagnose(const DiagnoseRequest& request);

  std::uint64_t result_cache_hits() const { return result_cache_hits_.load(); }
  std::uint64_t warm_hits() const { return warm_hits_.load(); }
  std::uint64_t cold_builds() const { return cold_builds_.load(); }

 private:
  /// One resident app execution. `ready` flips (release) after `session`
  /// is fully built inside the call_once, so readers can test warmth
  /// without the pool lock.
  struct Prepared {
    std::once_flag once;
    std::unique_ptr<core::DiagnosisSession> session;
    std::exception_ptr error;
    std::atomic<bool> ready{false};
  };

  /// Get-or-build the resident session for the request's (app, duration,
  /// node_base). Build is single-flight (call_once); a failed build is
  /// evicted so a later request can retry, and the failure is rethrown.
  std::shared_ptr<Prepared> prepared_for(const DiagnoseRequest& request, bool* warm);

  std::string trace_cache_dir_;
  bool result_cache_enabled_;
  std::mutex mu_;  ///< guards sessions_ and results_
  std::map<std::string, std::shared_ptr<Prepared>> sessions_;
  std::map<std::string, util::Json> results_;  ///< cache_key -> result object
  std::atomic<std::uint64_t> result_cache_hits_{0};
  std::atomic<std::uint64_t> warm_hits_{0};
  std::atomic<std::uint64_t> cold_builds_{0};
};

}  // namespace histpc::serve
