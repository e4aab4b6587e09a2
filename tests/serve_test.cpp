// Diagnosis-as-a-service: the HTTP framing, the DiagnosisServer's
// endpoints and admission control, and the acceptance oracle — a served
// diagnosis is bit-identical to a one-shot local run, at every server
// thread count. These run under the tsan preset (see CMakePresets.json):
// the concurrency claims are checked by the race detector, not just by
// the assertions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "pc/consultant.h"
#include "scratch_dir.h"
#include "serve/http.h"
#include "serve/server.h"
#include "serve/session_pool.h"
#include "telemetry/perf_record.h"
#include "util/json.h"
#include "util/log.h"

namespace histpc::serve {
namespace {

constexpr const char* kApp = "poisson_a";
constexpr double kDuration = 1500.0;

ServeConfig test_config(const std::string& scratch) {
  ServeConfig cfg;
  cfg.port = 0;  // ephemeral
  cfg.threads = 2;
  cfg.store_dir = scratch + "/store";
  cfg.trace_cache_dir = scratch + "/trace-cache";
  cfg.perf_log = false;  // tests that want the log opt back in
  return cfg;
}

std::string diagnose_body(const std::string& extra = "") {
  std::string body = "{\"app\": \"" + std::string(kApp) +
                     "\", \"duration\": " + std::to_string(kDuration);
  if (!extra.empty()) body += ", " + extra;
  return body + "}";
}

/// The one-shot local result, serialized exactly as the server serializes
/// its "result" object. Mirrors SessionPool::diagnose's consultant setup
/// with the request defaults.
std::string oracle_result_dump() {
  apps::AppParams params;
  params.target_duration = kDuration;
  params.node_base = 1;
  core::DiagnosisSession session(kApp, params, {});
  pc::PcConfig config;
  config.threshold_override = -1.0;
  config.cost_limit = 0.05;
  pc::PerformanceConsultant consultant(session.view(), config, {});
  const pc::DiagnosisResult result = consultant.run();
  return diagnose_result_json(kApp, result, "").dump();
}

// ------------------------------------------------------------ round trip

TEST(ServeTest, DiagnoseRoundTripOverSocket) {
  const testing_support::ScratchDir scratch("serve_roundtrip");
  DiagnosisServer server(test_config(scratch.str()));
  server.start();

  const auto health = http_get("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);

  const auto resp = http_post("127.0.0.1", server.port(), "/diagnose", diagnose_body());
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->status, 200) << resp->body;
  const util::Json reply = util::Json::parse(resp->body);
  EXPECT_EQ(reply.at("result").at("app").as_string(), kApp);
  EXPECT_GT(reply.at("result").at("bottlenecks").as_array().size(), 0u);
  EXPECT_FALSE(reply.at("server").at("warm_view").as_bool());  // first build is cold

  // Same request again: result cache hit, warm.
  const auto again = http_post("127.0.0.1", server.port(), "/diagnose", diagnose_body());
  ASSERT_TRUE(again.has_value());
  ASSERT_EQ(again->status, 200);
  const util::Json reply2 = util::Json::parse(again->body);
  EXPECT_TRUE(reply2.at("server").at("warm_view").as_bool());
  EXPECT_TRUE(reply2.at("server").at("result_cache_hit").as_bool());
  EXPECT_EQ(reply2.at("result").dump(), reply.at("result").dump());

  const auto stats = http_get("127.0.0.1", server.port(), "/stats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(util::Json::parse(stats->body).at("diagnoses").as_double(), 2.0);

  // /list answers from the (empty) store.
  const auto list = http_post("127.0.0.1", server.port(), "/list", "{}");
  ASSERT_TRUE(list.has_value());
  ASSERT_EQ(list->status, 200);
  EXPECT_EQ(util::Json::parse(list->body).at("records").as_array().size(), 0u);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ServeTest, ShutdownEndpointReleasesWait) {
  const testing_support::ScratchDir scratch("serve_shutdown");
  DiagnosisServer server(test_config(scratch.str()));
  server.start();
  std::thread waiter([&] { server.wait(); });
  const auto resp = http_post("127.0.0.1", server.port(), "/shutdown", "");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  waiter.join();  // wait() returned — the CLI's serve loop exits this way
  server.stop();
}

// ------------------------------------------------- malformed requests

TEST(ServeTest, MalformedRequestsFailCleanAndServerStaysUp) {
  const testing_support::ScratchDir scratch("serve_malformed");
  ServeConfig cfg = test_config(scratch.str());
  cfg.max_body_bytes = 512;
  DiagnosisServer server(cfg);
  server.start();
  util::set_log_sink([](util::LogLevel, const std::string&) {});  // expected warns

  struct Case {
    const char* name;
    const char* target;
    std::string body;
    int expect;
  };
  const Case cases[] = {
      {"body not json", "/diagnose", "{not json", 400},
      {"app wrong type", "/diagnose", "{\"app\": 42}", 400},
      {"app missing", "/diagnose", "{}", 400},
      {"unknown app", "/diagnose", "{\"app\": \"no_such_program\"}", 400},
      {"negative duration", "/diagnose", "{\"app\": \"poisson_a\", \"duration\": -1}", 400},
      {"bad directives", "/diagnose",
       "{\"app\": \"poisson_a\", \"directives\": \"gibberish: [\"}", 400},
      {"unknown endpoint", "/nope", "{}", 404},
      {"perf-report without app", "/perf-report", "{}", 400},
      {"oversized body", "/diagnose", std::string(1024, 'x'), 413},
  };
  for (const Case& c : cases) {
    const auto resp = http_post("127.0.0.1", server.port(), c.target, c.body);
    ASSERT_TRUE(resp.has_value()) << c.name;
    EXPECT_EQ(resp->status, c.expect) << c.name << ": " << resp->body;
    // Every error body is itself well-formed JSON naming the failure.
    const util::Json j = util::Json::parse(resp->body);
    EXPECT_FALSE(j.at("error").as_string().empty()) << c.name;
  }
  util::set_log_sink({});

  // The server survived all of it and still diagnoses.
  const auto ok = http_post("127.0.0.1", server.port(), "/diagnose", diagnose_body());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200);
  EXPECT_GE(server.stats().http_errors, std::size(cases));
  server.stop();
}

// --------------------------------------------------- admission control

TEST(ServeTest, FullQueueShedsWith429) {
  const testing_support::ScratchDir scratch("serve_shed");
  ServeConfig cfg = test_config(scratch.str());
  cfg.threads = 1;
  cfg.queue_depth = 1;  // one request in flight is already "full"
  DiagnosisServer server(cfg);
  server.start();

  // Occupy the single worker deterministically.
  std::thread sleeper([&] {
    const auto resp =
        http_post("127.0.0.1", server.port(), "/debug/sleep", "{\"ms\": 1500}");
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 200);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().in_flight < 1 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GE(server.stats().in_flight, 1);

  // Admission happens on the acceptor: even a cheap request is shed.
  const auto shed = http_get("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, 429);
  EXPECT_GE(server.stats().shed, 1u);

  sleeper.join();
  // Load drained: admitted again.
  const auto after = http_get("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, 200);
  server.stop();
}

TEST(ServeTest, ClientWaitingForEachReplyIsNeverShed) {
  // A worker frees its admission slot before the client can read the
  // reply, so a client that sends its next request only on receipt finds
  // the queue empty every time, even at depth 1. 2000 requests: a slot
  // freed after the write sheds about one request in 2000 on a 4-core VM.
  const testing_support::ScratchDir scratch("serve_sequential");
  ServeConfig cfg = test_config(scratch.str());
  cfg.threads = 1;
  cfg.queue_depth = 1;
  DiagnosisServer server(cfg);
  server.start();
  for (int i = 0; i < 2000; ++i) {
    const auto resp = http_get("127.0.0.1", server.port(), "/healthz");
    ASSERT_TRUE(resp.has_value()) << "request " << i;
    ASSERT_EQ(resp->status, 200) << "request " << i;
  }
  EXPECT_EQ(server.stats().shed, 0u);
  server.stop();
}

// ------------------------------------------------------------ deadlines

TEST(ServeTest, DeadlineLimitedSearchReportsAndNeverCaches) {
  const testing_support::ScratchDir scratch("serve_deadline");
  DiagnosisServer server(test_config(scratch.str()));
  server.start();

  const std::string limited = diagnose_body("\"deadline_ms\": 0.5");
  const auto first = http_post("127.0.0.1", server.port(), "/diagnose", limited);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->status, 200) << first->body;
  const util::Json reply = util::Json::parse(first->body);
  EXPECT_TRUE(reply.at("result").at("stats").at("deadline_hit").as_bool());
  EXPECT_FALSE(reply.at("server").at("result_cache_hit").as_bool());

  // A deadline-limited result reflects wall-clock timing; repeating the
  // request must re-run the search, never serve a memoized copy.
  const auto second = http_post("127.0.0.1", server.port(), "/diagnose", limited);
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->status, 200);
  EXPECT_FALSE(
      util::Json::parse(second->body).at("server").at("result_cache_hit").as_bool());
  EXPECT_EQ(server.stats().result_cache_hits, 0u);

  // Without the deadline the same request completes the full search.
  const auto full = http_post("127.0.0.1", server.port(), "/diagnose", diagnose_body());
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(full->status, 200);
  EXPECT_FALSE(
      util::Json::parse(full->body).at("result").at("stats").at("deadline_hit").as_bool());
  server.stop();
}

// ---------------------------------------------------------- perf records

TEST(ServeTest, EveryDiagnosisAppendsAServePerfRecord) {
  const testing_support::ScratchDir scratch("serve_perflog");
  ServeConfig cfg = test_config(scratch.str());
  cfg.perf_log = true;
  DiagnosisServer server(cfg);
  server.start();
  for (int i = 0; i < 3; ++i) {
    const auto resp = http_post("127.0.0.1", server.port(), "/diagnose", diagnose_body());
    ASSERT_TRUE(resp.has_value());
    ASSERT_EQ(resp->status, 200);
  }

  // The running server reports its own latest record.
  const auto report =
      http_post("127.0.0.1", server.port(), "/perf-report", "{\"app\": \"serve\"}");
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->status, 200) << report->body;
  server.stop();

  // And the log is the standard per-store layout `histpc perf-diff
  // --app serve` reads.
  const telemetry::PerfLog log(telemetry::PerfLog::path_in_store(cfg.store_dir, "serve"));
  const auto records = log.read_all();
  ASSERT_EQ(records.size(), 3u);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.kind, "serve");
    EXPECT_EQ(rec.app, "serve");
    EXPECT_EQ(rec.config.at("app"), kApp);
    EXPECT_TRUE(rec.registry.timers().contains("serve.request"));
  }
}

// ------------------------------------------------- bit-identity oracle

TEST(ServeOracle, ConcurrentServedResultsMatchOneShotBitForBit) {
  // The acceptance bar: a diagnosis served concurrently — any server
  // thread count — is byte-identical to the one-shot local run.
  // Everything timing-dependent lives in the reply's "server" object;
  // "result" must be pure.
  const std::string oracle = oracle_result_dump();

  for (const int server_threads : {1, 2, 4}) {
    const testing_support::ScratchDir scratch("serve_oracle_t" + std::to_string(server_threads));
    ServeConfig cfg = test_config(scratch.str());
    cfg.threads = server_threads;
    DiagnosisServer server(cfg);
    server.start();

    const int clients = 2 * server_threads;
    std::vector<std::thread> threads;
    std::vector<std::string> dumps(static_cast<std::size_t>(clients));
    std::atomic<int> failures{0};
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        // Odd clients bypass the result cache so real searches overlap.
        // Every client also sends the retired search_threads field (1/2/4)
        // as an old client would: the server must ignore it like any
        // unknown field, leaving the result unchanged.
        std::string extra = "\"search_threads\": " + std::to_string(1 << (c % 3));
        if (c % 2) extra += ", \"no_result_cache\": true";
        const auto resp =
            http_post("127.0.0.1", server.port(), "/diagnose", diagnose_body(extra));
        if (!resp || resp->status != 200) {
          ++failures;
          return;
        }
        dumps[static_cast<std::size_t>(c)] =
            util::Json::parse(resp->body).at("result").dump();
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0) << "server_threads=" << server_threads;
    for (int c = 0; c < clients; ++c)
      EXPECT_EQ(dumps[static_cast<std::size_t>(c)], oracle)
          << "server_threads=" << server_threads << " client=" << c;
    server.stop();
  }
}

}  // namespace
}  // namespace histpc::serve
