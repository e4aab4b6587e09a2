#include "serve/session_pool.h"

#include <chrono>
#include <utility>

#include "apps/apps.h"
#include "pc/directives.h"

namespace histpc::serve {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

}  // namespace

DiagnoseRequest DiagnoseRequest::from_json(const util::Json& body) {
  if (!body.is_object()) throw util::JsonError("request body must be a JSON object");
  DiagnoseRequest req;
  const util::Json& app = body.at("app");
  if (!app.is_string() || app.as_string().empty())
    throw util::JsonError("field 'app' must be a non-empty string");
  req.app = app.as_string();
  req.duration = body.get_or("duration", req.duration);
  if (req.duration <= 0.0) throw util::JsonError("field 'duration' must be positive");
  req.node_base = static_cast<int>(body.get_or("node_base", static_cast<double>(req.node_base)));
  req.threshold = body.get_or("threshold", req.threshold);
  req.cost_limit = body.get_or("cost_limit", req.cost_limit);
  req.directives_text = body.get_or("directives", std::string());
  req.deadline_ms = body.get_or("deadline_ms", 0.0);
  req.want_shg = body.get_or("shg", false);
  req.use_result_cache = !body.get_or("no_result_cache", false);
  return req;
}

std::string DiagnoseRequest::cache_key() const {
  util::Json key = util::Json::object();
  key["app"] = app;
  key["duration"] = duration;
  key["node_base"] = node_base;
  key["threshold"] = threshold;
  key["cost_limit"] = cost_limit;
  key["directives"] = directives_text;
  key["shg"] = want_shg;
  return key.dump();
}

util::Json diagnose_result_json(const std::string& app, const pc::DiagnosisResult& result,
                                const std::string& shg_render) {
  util::Json j = util::Json::object();
  j["app"] = app;

  util::Json bottlenecks = util::Json::array();
  for (const pc::BottleneckReport& b : result.bottlenecks) {
    util::Json o = util::Json::object();
    o["hypothesis"] = b.hypothesis;
    o["focus"] = b.focus;
    o["t_found"] = b.t_found;
    o["fraction"] = b.fraction;
    bottlenecks.push_back(std::move(o));
  }
  j["bottlenecks"] = std::move(bottlenecks);

  util::Json stats = util::Json::object();
  stats["nodes_created"] = result.stats.nodes_created;
  stats["pairs_tested"] = result.stats.pairs_tested;
  stats["pruned_candidates"] = result.stats.pruned_candidates;
  stats["bottlenecks"] = result.stats.bottlenecks;
  stats["end_time"] = result.stats.end_time;
  stats["last_true_time"] = result.stats.last_true_time;
  stats["peak_cost"] = result.stats.peak_cost;
  stats["deadline_hit"] = result.stats.deadline_hit;
  j["stats"] = std::move(stats);

  // Deterministic telemetry counts only: functions of the virtual-time
  // search. Wall-clock phase timings vary run to run and are deliberately
  // left out.
  util::Json telemetry = util::Json::object();
  telemetry["conclusions_true"] = result.telemetry.conclusions_true;
  telemetry["conclusions_false"] = result.telemetry.conclusions_false;
  telemetry["refinements"] = result.telemetry.refinements;
  telemetry["prune_hits_subtree"] = result.telemetry.prune_hits_subtree;
  telemetry["prune_hits_pair"] = result.telemetry.prune_hits_pair;
  telemetry["priority_seeds"] = result.telemetry.priority_seeds;
  telemetry["cost_gate_engagements"] = result.telemetry.cost_gate_engagements;
  telemetry["peak_cost"] = result.telemetry.peak_cost;
  telemetry["avg_cost"] = result.telemetry.avg_cost;
  j["telemetry"] = std::move(telemetry);

  if (!shg_render.empty()) j["shg"] = shg_render;
  return j;
}

SessionPool::SessionPool(std::string trace_cache_dir, bool result_cache)
    : trace_cache_dir_(std::move(trace_cache_dir)), result_cache_enabled_(result_cache) {}

std::shared_ptr<SessionPool::Prepared> SessionPool::prepared_for(const DiagnoseRequest& request,
                                                                 bool* warm) {
  util::Json key = util::Json::object();
  key["app"] = request.app;
  key["duration"] = request.duration;
  key["node_base"] = request.node_base;
  const std::string key_text = key.dump();

  std::shared_ptr<Prepared> prepared;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<Prepared>& slot = sessions_[key_text];
    if (!slot) slot = std::make_shared<Prepared>();
    prepared = slot;
  }
  *warm = prepared->ready.load(std::memory_order_acquire);

  std::call_once(prepared->once, [&] {
    try {
      apps::AppParams params;
      params.target_duration = request.duration;
      params.node_base = request.node_base;
      pc::PcConfig config;
      config.trace_cache_dir = trace_cache_dir_;
      prepared->session =
          std::make_unique<core::DiagnosisSession>(request.app, params, std::move(config));
      prepared->ready.store(true, std::memory_order_release);
      ++cold_builds_;
    } catch (...) {
      prepared->error = std::current_exception();
    }
  });

  if (prepared->error) {
    // Evict so the next request retries (a transient failure — full disk,
    // cache corruption — should not poison the key forever).
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(key_text);
    if (it != sessions_.end() && it->second == prepared) sessions_.erase(it);
    std::rethrow_exception(prepared->error);
  }
  if (*warm) ++warm_hits_;
  return prepared;
}

DiagnoseReply SessionPool::diagnose(const DiagnoseRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  DiagnoseReply reply;
  const bool cacheable =
      result_cache_enabled_ && request.use_result_cache && request.deadline_ms <= 0.0;
  const std::string key = cacheable ? request.cache_key() : std::string();

  if (cacheable) {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = results_.find(key); it != results_.end()) {
      reply.result = it->second;
      reply.result_cache_hit = true;
      reply.warm_view = true;
      ++result_cache_hits_;
      reply.registry.add("serve.result_cache_hit");
      reply.registry.add_seconds("serve.request", elapsed_seconds(start));
      return reply;
    }
  }

  const std::shared_ptr<Prepared> prepared = prepared_for(request, &reply.warm_view);

  pc::PcConfig config;
  config.threshold_override = request.threshold;
  config.cost_limit = request.cost_limit;
  if (request.deadline_ms > 0.0) config.wall_budget_seconds = request.deadline_ms / 1000.0;

  pc::DirectiveSet directives;
  if (!request.directives_text.empty())
    directives = pc::DirectiveSet::parse(request.directives_text);

  // The variant-runner idiom: an independent consultant over the shared
  // immutable view. The session object itself is never mutated here, so
  // any number of requests can run against one Prepared concurrently.
  pc::PerformanceConsultant consultant(prepared->session->view(), config, directives);
  const pc::DiagnosisResult result = consultant.run();

  reply.result = diagnose_result_json(
      request.app, result, request.want_shg ? consultant.shg().render() : std::string());
  reply.registry.merge_from(consultant.tracer().registry());

  if (cacheable && !result.stats.deadline_hit) {
    std::lock_guard<std::mutex> lock(mu_);
    results_.emplace(key, reply.result);
  }
  reply.registry.add_seconds("serve.request", elapsed_seconds(start));
  return reply;
}

}  // namespace histpc::serve
