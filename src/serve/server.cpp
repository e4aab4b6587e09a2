#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/log.h"

namespace histpc::serve {

namespace {

HttpResponse json_response(int status, const util::Json& body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = body.dump() + "\n";
  return resp;
}

HttpResponse error_response(int status, const std::string& message) {
  util::Json j = util::Json::object();
  j["error"] = message;
  j["status"] = status;
  return json_response(status, j);
}

}  // namespace

DiagnosisServer::DiagnosisServer(ServeConfig config)
    : config_(std::move(config)),
      sessions_(config_.trace_cache_dir, config_.result_cache),
      store_(config_.store_dir) {
  if (config_.perf_log) {
    const std::string path =
        config_.perf_log_path.empty()
            ? telemetry::PerfLog::path_in_store(config_.store_dir, "serve")
            : config_.perf_log_path;
    perf_log_ = std::make_unique<telemetry::PerfLog>(path);
  }
}

DiagnosisServer::~DiagnosisServer() { stop(); }

void DiagnosisServer::start() {
  if (running_.load()) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  const std::string host =
      config_.host == "localhost" || config_.host.empty() ? "127.0.0.1" : config_.host;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: host '" + config_.host + "' is not a numeric IPv4 address");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on " + host + ":" +
                             std::to_string(config_.port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  stopping_.store(false);
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = false;
  }
  workers_ = std::make_unique<util::ThreadPool>(util::ThreadPool::resolve(config_.threads));
  acceptor_ = std::thread([this] { accept_loop(); });
  running_.store(true);
}

void DiagnosisServer::wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void DiagnosisServer::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
}

void DiagnosisServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Unblock accept(): shutdown makes the blocked call return; close frees
  // the descriptor once the acceptor is done with it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  workers_.reset();  // drains queued requests, then joins
  request_stop();    // release any wait()er
}

void DiagnosisServer::accept_loop() {
  while (!stopping_.load()) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (stopping_.load()) break;
      continue;
    }
    ++accepted_;
    // A slow peer must not pin a worker forever.
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);

    // Admission control: the counter covers queued + executing requests.
    // Shedding happens here, on the acceptor, with a canned response — a
    // saturated server answers 429 in microseconds instead of stacking
    // work it cannot finish.
    if (in_flight_.fetch_add(1) >= config_.queue_depth) {
      in_flight_.fetch_sub(1);
      ++shed_;
      write_all(client, serialize_response(
                            error_response(429, "server overloaded; request shed")));
      ::close(client);
      continue;
    }
    workers_->submit([this, client] { handle_connection(client); });
  }
}

void DiagnosisServer::handle_connection(int fd) {
  int status = 0;
  std::string error;
  HttpResponse resp;
  if (auto req = read_http_request(fd, config_.max_body_bytes, &status, &error)) {
    resp = handle(*req);
  } else {
    resp = error_response(status ? status : 400, error);
  }
  if (resp.status >= 400) ++http_errors_;
  // Count the request and free its admission slot before the client can
  // see the response: a client that sends its next request on receipt
  // must not be shed by a worker that has already finished.
  ++served_;
  in_flight_.fetch_sub(1);
  write_all(fd, serialize_response(resp));
  ::close(fd);
}

ServeStats DiagnosisServer::stats() const {
  ServeStats s;
  s.accepted = accepted_.load();
  s.served = served_.load();
  s.shed = shed_.load();
  s.http_errors = http_errors_.load();
  s.diagnoses = diagnoses_.load();
  s.result_cache_hits = sessions_.result_cache_hits();
  s.warm_view_hits = sessions_.warm_hits();
  s.cold_builds = sessions_.cold_builds();
  s.in_flight = in_flight_.load();
  return s;
}

HttpResponse DiagnosisServer::handle(const HttpRequest& request) {
  try {
    if (request.target == "/healthz") {
      util::Json j = util::Json::object();
      j["ok"] = true;
      return json_response(200, j);
    }
    if (request.target == "/stats") {
      const ServeStats s = stats();
      util::Json j = util::Json::object();
      j["accepted"] = s.accepted;
      j["served"] = s.served;
      j["shed"] = s.shed;
      j["http_errors"] = s.http_errors;
      j["diagnoses"] = s.diagnoses;
      j["result_cache_hits"] = s.result_cache_hits;
      j["warm_view_hits"] = s.warm_view_hits;
      j["cold_builds"] = s.cold_builds;
      j["in_flight"] = s.in_flight;
      j["threads"] = workers_ ? workers_->size() : 0;
      j["queue_depth"] = config_.queue_depth;
      return json_response(200, j);
    }
    if (request.target == "/shutdown") {
      request_stop();
      util::Json j = util::Json::object();
      j["ok"] = true;
      j["stopping"] = true;
      return json_response(200, j);
    }

    const util::Json body =
        request.body.empty() ? util::Json::object() : util::Json::parse(request.body);
    if (request.target == "/diagnose") return handle_diagnose(body);
    if (request.target == "/list") return handle_list(body);
    if (request.target == "/perf-report") return handle_perf_report(body);
    if (request.target == "/debug/sleep") {
      // Test hook: hold this worker so admission-control behaviour can be
      // exercised deterministically. Bounded to keep a stray request from
      // wedging a worker for long.
      const double ms = std::clamp(body.get_or("ms", 0.0), 0.0, 10'000.0);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
      util::Json j = util::Json::object();
      j["slept_ms"] = ms;
      return json_response(200, j);
    }
    return error_response(404, "unknown endpoint " + request.target);
  } catch (const util::JsonError& e) {
    return error_response(400, e.what());
  } catch (const std::invalid_argument& e) {
    return error_response(400, e.what());
  } catch (const std::exception& e) {
    // The server must survive any single bad request; name the failure and
    // move on.
    HISTPC_LOG(Warn) << "serve: request failed: " << e.what();
    return error_response(500, e.what());
  }
}

HttpResponse DiagnosisServer::handle_diagnose(const util::Json& body) {
  const DiagnoseRequest req = DiagnoseRequest::from_json(body);
  const auto start = std::chrono::steady_clock::now();
  const DiagnoseReply reply = sessions_.diagnose(req);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  ++diagnoses_;
  append_perf_record(req, reply);

  util::Json out = util::Json::object();
  out["result"] = reply.result;
  util::Json server = util::Json::object();
  server["warm_view"] = reply.warm_view;
  server["result_cache_hit"] = reply.result_cache_hit;
  server["wall_ms"] = wall_ms;
  out["server"] = std::move(server);
  return json_response(200, out);
}

HttpResponse DiagnosisServer::handle_list(const util::Json& body) const {
  history::StoreQuery query;
  query.app = body.get_or("app", std::string());
  query.version = body.get_or("version", std::string());
  query.machine = body.get_or("machine", std::string());
  query.scenario = body.get_or("scenario", std::string());
  util::Json records = util::Json::array();
  for (const history::IndexEntry& e : store_.summaries(query)) {
    util::Json o = util::Json::object();
    o["run_id"] = e.run_id;
    o["app"] = e.app;
    o["version"] = e.version;
    o["machine"] = e.machine;
    o["scenario"] = e.scenario;
    o["ranks"] = e.nranks;
    o["duration"] = e.duration;
    o["bottlenecks"] = e.bottlenecks;
    records.push_back(std::move(o));
  }
  util::Json j = util::Json::object();
  j["records"] = std::move(records);
  return json_response(200, j);
}

HttpResponse DiagnosisServer::handle_perf_report(const util::Json& body) const {
  const std::string app = body.get_or("app", std::string());
  if (app.empty()) throw util::JsonError("field 'app' must name an application");
  const telemetry::PerfLog log(telemetry::PerfLog::path_in_store(config_.store_dir, app));
  const auto latest = log.latest();
  if (!latest) return error_response(404, "no perf records for app '" + app + "'");
  util::Json j = util::Json::object();
  j["record"] = latest->to_json();
  return json_response(200, j);
}

void DiagnosisServer::append_perf_record(const DiagnoseRequest& request,
                                         const DiagnoseReply& reply) {
  if (!perf_log_) return;
  telemetry::PerfRecord rec;
  // The server's own log lives under app "serve" (one JSONL per store, the
  // path perf-report/perf-diff --app serve resolve); which application was
  // diagnosed is a config knob of the measurement, not its identity.
  rec.app = "serve";
  rec.version = request.app;
  rec.kind = "serve";
  rec.machine = telemetry::machine_name();
  rec.build = telemetry::build_id();
  rec.config["app"] = request.app;
  rec.config["threads"] = std::to_string(workers_ ? workers_->size() : 0);
  rec.config["queue_depth"] = std::to_string(config_.queue_depth);
  rec.config["result_cache"] = config_.result_cache ? "1" : "0";
  rec.registry = reply.registry;
  std::lock_guard<std::mutex> lock(perf_mu_);
  try {
    perf_log_->append(rec);
  } catch (const std::exception& e) {
    HISTPC_LOG(Warn) << "serve: cannot append perf record: " << e.what();
  }
}

}  // namespace histpc::serve
