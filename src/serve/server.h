// DiagnosisServer: the long-running `histpc serve` process.
//
// A hand-rolled HTTP/1.1 endpoint (serve/http.h) in front of a SessionPool
// (serve/session_pool.h), an ExperimentStore, and a perf log:
//
//   POST /diagnose     run a diagnosis (DiagnoseRequest body); the reply
//                      is {"result": <deterministic>, "server": <wall/warm>}
//   POST /list         index summaries ({"app","version","machine","scenario"})
//   POST /perf-report  latest PerfRecord of {"app": NAME} from the store's
//                      perf log (what `histpc perf-report --app` renders)
//   POST /debug/sleep  hold a worker for {"ms": N} (admission-control tests)
//   POST /shutdown     ask the server to stop (wait() returns)
//   GET  /healthz      {"ok": true}
//   GET  /stats        admission/cache counters
//
// Threading: one acceptor thread plus a util::ThreadPool of workers. Each
// accepted connection carries exactly one request. Admission control is a
// single in-flight counter — a connection is admitted only while fewer
// than queue_depth requests are queued or executing; past that the
// acceptor writes an immediate 429 and closes (load shedding), so a
// saturated server keeps answering cheaply instead of building an
// unbounded backlog. A request's "deadline_ms" propagates into the
// consultant loop as PcConfig::wall_budget_seconds.
//
// Every /diagnose appends a PerfRecord (kind="serve") to the store's perf
// log, so `histpc perf-diff --app serve --store DIR` covers the server
// path with the same MAD-band regression detection as everything else.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "history/store.h"
#include "serve/http.h"
#include "serve/session_pool.h"
#include "telemetry/perf_record.h"
#include "util/thread_pool.h"

namespace histpc::serve {

struct ServeConfig {
  std::string host = "127.0.0.1";  ///< numeric IPv4 (or "localhost")
  int port = 0;                    ///< 0 = ephemeral; see DiagnosisServer::port()
  int threads = 4;                 ///< worker pool size (0 = hardware threads)
  /// Admission bound: maximum requests queued-or-executing before the
  /// acceptor sheds with 429.
  int queue_depth = 64;
  std::size_t max_body_bytes = 1 << 20;
  std::string store_dir = ".histpc";
  std::string trace_cache_dir = ".histpc/trace-cache";  ///< empty = no cache
  bool result_cache = true;  ///< memoize deterministic diagnosis results
  bool perf_log = true;      ///< append a kind="serve" PerfRecord per diagnosis
  /// Perf-log file; empty = `<store_dir>/perf-log/serve.jsonl`.
  std::string perf_log_path;
};

/// Monotonic counters snapshot (stats endpoint and tests).
struct ServeStats {
  std::uint64_t accepted = 0;     ///< connections accepted
  std::uint64_t served = 0;       ///< worker responses (counted before the write)
  std::uint64_t shed = 0;         ///< 429s written by the acceptor
  std::uint64_t http_errors = 0;  ///< non-2xx worker responses
  std::uint64_t diagnoses = 0;    ///< /diagnose requests completed
  std::uint64_t result_cache_hits = 0;
  std::uint64_t warm_view_hits = 0;
  std::uint64_t cold_builds = 0;
  int in_flight = 0;  ///< queued-or-executing right now
};

class DiagnosisServer {
 public:
  explicit DiagnosisServer(ServeConfig config);
  ~DiagnosisServer();  ///< stop()s if still running

  DiagnosisServer(const DiagnosisServer&) = delete;
  DiagnosisServer& operator=(const DiagnosisServer&) = delete;

  /// Bind + listen + spawn acceptor and workers. Throws std::runtime_error
  /// when the socket cannot be bound.
  void start();

  /// Block until /shutdown is received or stop() is called elsewhere.
  void wait();

  /// Stop accepting, drain in-flight requests, join everything. Idempotent.
  void stop();

  /// The bound port (resolves port 0 after start()).
  int port() const { return port_; }
  const ServeConfig& config() const { return config_; }
  bool running() const { return running_.load(); }
  ServeStats stats() const;

  /// Dispatch one request exactly as the socket path does (the tests and
  /// the bit-identity oracle call this directly; no sockets involved).
  HttpResponse handle(const HttpRequest& request);

 private:
  void accept_loop();
  void handle_connection(int fd);
  HttpResponse handle_diagnose(const util::Json& body);
  HttpResponse handle_list(const util::Json& body) const;
  HttpResponse handle_perf_report(const util::Json& body) const;
  void append_perf_record(const DiagnoseRequest& request, const DiagnoseReply& reply);
  void request_stop();

  ServeConfig config_;
  SessionPool sessions_;
  history::ExperimentStore store_;
  std::unique_ptr<telemetry::PerfLog> perf_log_;
  std::mutex perf_mu_;  ///< serializes perf-log appends across workers

  std::unique_ptr<util::ThreadPool> workers_;
  std::thread acceptor_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<int> in_flight_{0};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> http_errors_{0};
  std::atomic<std::uint64_t> diagnoses_{0};

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
};

}  // namespace histpc::serve
