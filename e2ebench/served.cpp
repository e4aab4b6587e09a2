// serve_open_loop: an in-process DiagnosisServer on loopback, driven with
// seeded Poisson arrivals over a request mix. The only workload with
// concurrency, admission control and the result cache.
#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "history/generator.h"
#include "history/store.h"
#include "probes.h"
#include "sender.h"
#include "serve/http.h"
#include "serve/server.h"
#include "telemetry/perf_record.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads.h"

namespace histpc::e2e {

namespace {

const std::vector<std::string> kApps = {"poisson_a", "poisson_b", "poisson_c", "poisson_d",
                                        "ocean",     "seismic",   "taskfarm"};
const std::vector<std::string> kFamilies = {"poisson", "ocean", "seismic", "taskfarm"};

// Server workers plus the one sender thread stay within the 4 cores of the
// reference host.
constexpr int kWorkers = 3;
constexpr int kQueueDepth = 32;
constexpr std::size_t kStoredCopies = 5;  ///< records per app for /list
/// Half the lowest top rung the ladder reached on the reference host
/// (400 req/s), so the nominal latency is service plus ordinary queueing,
/// not overload.
constexpr double kNominalRps = 200.0;
/// The latency limit a ladder rung must meet at p99.
constexpr double kP99LimitMs = 100.0;
/// The nominal phase is the ladder's first rung; these follow it.
const std::vector<double> kLadderRps = {400, 700, 1000, 1400, 2000, 2800};
/// Requests per rung after the first: enough for a p99.
constexpr std::size_t kRungRequests = 1000;
/// Median queueing growth over a rung that counts as a growing backlog.
constexpr double kBacklogMs = 5.0;
constexpr double kTimeoutSeconds = 10.0;
/// Shares of --seconds for the closed loop, the nominal open loop (at
/// 20 s: about 1200 requests) and the rate ladder.
constexpr double kClosedShare = 0.35;
constexpr double kNominalShare = 0.30;
constexpr double kLadderShare = 0.35;

enum Kind { kHit, kResearch, kDirected, kList };
/// Requests of each class per block of 20: result-cache hits,
/// no_result_cache re-searches, directed re-searches, /list. No recorded
/// traffic exists to take these from; they are assumed (README.md gives
/// the reason for each weight). Sorted by latency the classes fall
/// list < hit < re-search < directed, so the median lands mid-way through
/// the hits and p90 mid-way through the re-searches, not on the edge
/// between two classes.
constexpr std::size_t kBlock[] = {14, 2, 1, 3};
constexpr std::size_t kBlockSize = kBlock[0] + kBlock[1] + kBlock[2] + kBlock[3];
const char* const kKindNames[] = {"hit", "research", "directed", "list"};

/// The in-process reference a reply is checked against: the expected
/// result bytes of a /diagnose, or the exact body of a /list.
struct Check {
  std::string expected;
  bool diagnose = false;
};

class Served {
 public:
  explicit Served(std::uint64_t seed) : seed_(seed) {}

  void setup(const std::string& dir) {
    // Store pre-population, reference results and harvested directives,
    // all in-process without the trace cache.
    store_dir_ = dir + "/store";
    history::ExperimentStore store(store_dir_);
    const history::DirectiveGenerator generator;
    for (const std::string& app : kApps) {
      apps::AppParams params;
      params.target_duration = 1500.0;  // DiagnoseRequest's default
      core::DiagnosisSession session(apps::run_app(app, params), pc::PcConfig{}, app);
      const pc::DiagnosisResult base = session.diagnose();
      const history::ExperimentRecord record = session.make_record(base, "1");
      for (std::size_t c = 0; c < kStoredCopies; ++c) store.save(record);
      directives_[app] = generator.from_record(record).serialize();
      plain_[app] = result_bytes(app, base);
      directed_[app] =
          result_bytes(app, session.diagnose(pc::DirectiveSet::parse(directives_[app])));
    }

    serve::ServeConfig config;
    config.port = 0;
    config.threads = kWorkers;
    config.queue_depth = kQueueDepth;
    config.store_dir = store_dir_;
    config.trace_cache_dir = dir + "/trace-cache";
    server_ = std::make_unique<serve::DiagnosisServer>(config);
    server_->start();
    for (const std::string& family : kFamilies) {
      serve::HttpRequest list{"POST", "/list", body(kList, family), {}};
      list_[family] = server_->handle(list).body;
    }
    // Warm every session and the result cache (a cold build is set-up work).
    for (const std::string& app : kApps) {
      const auto reply = serve::http_post("127.0.0.1", server_->port(), "/diagnose",
                                          body(kHit, app), kTimeoutSeconds);
      if (!reply || !matches(check_for(kHit, app), reply->status, reply->body))
        throw std::runtime_error("serve set-up: warm-up request for " + app + " failed");
    }
  }

  Report measure(const RunOptions& options, const std::vector<double>& setup_s) {
    Report report;
    util::Rng rng(seed_ ^ 0xa5a5a5a5ULL);
    std::ostringstream notes;

    // 1. One closed-loop client over the mix: ops_per_s.
    std::size_t closed_ops = 0;
    std::size_t closed_failed = 0;
    const auto closed_start = Clock::now();
    while (ms_between(closed_start, Clock::now()) < kClosedShare * options.seconds * 1e3 ||
           block_pos_ != block_.size()) {
      const auto [kind, key] = draw(rng);
      const auto reply = serve::http_post("127.0.0.1", server_->port(), target(kind),
                                          body(kind, key), kTimeoutSeconds);
      ++report.attempted;
      if (!reply || !matches(check_for(kind, key), reply->status, reply->body)) {
        ++report.failed;
        ++closed_failed;
      }
      ++closed_ops;
    }
    const double closed_s = ms_between(closed_start, Clock::now()) / 1e3;
    notes << "closed loop: " << closed_ops << " requests in " << closed_s << " s, "
          << closed_failed << " failed\n";

    // 2. Open loop at the nominal rate: latency from the scheduled send.
    const telemetry::PerfLog perf_log(telemetry::PerfLog::path_in_store(store_dir_, "serve"));
    const std::size_t logged_before = options.trace ? perf_log.read_all().size() : 0;
    const Phase nominal =
        open_loop(kNominalRps, kNominalShare * options.seconds, 0, rng, report, false);
    const std::map<std::string, double> server_side =
        options.trace ? search_values(perf_log, logged_before, nominal.latency_ms.size())
                      : std::map<std::string, double>{};

    // 3. Rate ladder: the highest rung that meets the p99 limit with no
    //    429s and no growing backlog. The nominal phase is the first rung;
    //    every rung has at least 1000 samples for its p99.
    double max_rps = 0.0;
    auto rung_passes = [&](double rps, const Phase& rung) {
      const bool pass = rung.failed == 0 && rung.shed == 0 && !rung.backlog_growing &&
                        quantile(rung.latency_ms, 0.99) <= kP99LimitMs;
      notes << "ladder " << rps << " req/s: " << rung.late_ms.size() << " sent, p99 "
            << quantile(rung.latency_ms, 0.99) << " ms, " << rung.shed << " shed, "
            << rung.failed << " failed" << (rung.backlog_growing ? ", backlog growing" : "")
            << (pass ? "" : "  <- stop") << "\n";
      if (pass) max_rps = static_cast<double>(rung.latency_ms.size()) / rung.seconds;
      return pass;
    };
    const auto ladder_start = Clock::now();
    if (rung_passes(kNominalRps, nominal)) {
      for (double rps : kLadderRps) {
        const double rung_s = static_cast<double>(kRungRequests) / rps;
        if (ms_between(ladder_start, Clock::now()) / 1e3 + rung_s > kLadderShare * options.seconds)
          break;
        if (!rung_passes(rps, open_loop(rps, 0.0, kRungRequests, rng, report, true))) break;
      }
    }

    for (Kind kind : {kHit, kResearch, kDirected, kList}) {
      std::vector<double> lat, svc;
      for (std::size_t k = 0; k < nominal.kind.size(); ++k)
        if (nominal.kind[k] == kind) {
          lat.push_back(nominal.latency_ms[k]);
          svc.push_back(nominal.service_ms[k]);
        }
      notes << "nominal " << kKindNames[kind] << ": " << lat.size() << " requests, latency p50 "
            << median(lat) << " ms, p99 " << quantile(lat, 0.99) << " ms, service p50 "
            << median(svc) << " ms\n";
    }
    const util::Json stats = stats_json();
    const double diagnoses = stats.get_or("diagnoses", 0.0);
    const double nominal_p99 = quantile(nominal.latency_ms, 0.99);
    notes << "served_ms_p50 " << quantile(nominal.latency_ms, 0.5) << " ms, served_ms_p99 "
          << nominal_p99 << " ms (" << nominal.latency_ms.size() << " requests at "
          << kNominalRps << " req/s); served_max_rps " << max_rps << " req/s (p99 limit "
          << kP99LimitMs << " ms)\n";

    if (!options.trace) {
      const std::size_t n = nominal.latency_ms.size();
      report.end_to_end = {
          {"setup_s", median(setup_s), "s", setup_s.size()},
          {"op_ms_p50", quantile(nominal.latency_ms, 0.5), "ms", n},
          {"op_ms_p90", quantile(nominal.latency_ms, 0.9), "ms", n},
          {"ops_per_s", static_cast<double>(closed_ops) / closed_s, "1/s", closed_ops},
          {"peak_rss_mb", peak_rss_mb(), "MB", 1},
      };
      report.ledger = notes.str();
      return report;
    }

    // Spans come from the replies after the phase, so tracing adds nothing
    // to the timed path: each nominal request is an op whose children are
    // the server's own wall time and the rest (queueing and transport).
    SpanRecorder spans(true);
    for (std::size_t k = 0; k < nominal.latency_ms.size(); ++k) {
      const double start = nominal.sent_at_ms[k];
      const double end = start + nominal.latency_ms[k];
      const double service = std::min(nominal.service_ms[k], nominal.latency_ms[k]);
      const int root = spans.add_op(start, end);
      spans.add("serve.wait", start, end - service, root);
      spans.add("serve.service", end - service, end, root);
    }
    const Ledger ledger = build_ledger(spans);
    std::map<std::string, double> values = {
        {"serve.result_cache_hit_ratio",
         diagnoses > 0 ? stats.get_or("result_cache_hits", 0.0) / diagnoses : 0.0},
        {"serve.shed", stats.get_or("shed", 0.0)},
        {"serve.loadgen_late_ms_p99", quantile(nominal.late_ms, 0.99)},
        {"serve.served_ms_p99", nominal_p99},
        {"serve.max_rps", max_rps},
        {"bench.trace_overhead_pct", 0.0},
    };
    values.insert(server_side.begin(), server_side.end());
    report.per_layer = layer_metrics(ledger, spans.counters(), values);
    report.ledger = render_ledger(ledger, spans.counters()) + notes.str();
    if (!options.trace_out.empty()) util::write_file(options.trace_out, chrome_trace_json(spans));
    return report;
  }

 private:
  struct Phase {
    std::vector<double> latency_ms;  ///< per diagnose/list request answered correctly
    std::vector<double> service_ms;  ///< server wall (0 for /list)
    std::vector<double> sent_at_ms;  ///< scheduled send, relative to the phase
    std::vector<Kind> kind;
    std::vector<double> late_ms;
    std::size_t failed = 0;
    std::size_t shed = 0;
    bool backlog_growing = false;
    double seconds = 0.0;
  };

  /// The next request of the mix: a class and the app (or app family,
  /// for /list) it names. Classes come in seeded shuffles of kBlock, and
  /// each class walks the apps round-robin, so every run sends the same
  /// proportions whatever its seed or length.
  std::pair<Kind, std::string> draw(util::Rng& rng) {
    if (block_pos_ == block_.size()) {
      block_.clear();
      for (Kind kind : {kHit, kResearch, kDirected, kList})
        block_.insert(block_.end(), kBlock[kind], kind);
      for (std::size_t k = block_.size(); k > 1; --k)
        std::swap(block_[k - 1], block_[rng.next_below(k)]);
      block_pos_ = 0;
    }
    const Kind kind = block_[block_pos_++];
    const std::size_t turn = next_app_[kind]++;
    if (kind == kList) return {kind, kFamilies[turn % kFamilies.size()]};
    return {kind, kApps[(turn + kind) % kApps.size()]};
  }

  static std::string target(Kind kind) { return kind == kList ? "/list" : "/diagnose"; }

  std::string body(Kind kind, const std::string& key) const {
    util::Json j = util::Json::object();
    j["app"] = key;
    if (kind == kResearch || kind == kDirected) j["no_result_cache"] = true;
    if (kind == kDirected) j["directives"] = directives_.at(key);
    return j.dump();
  }

  Check check_for(Kind kind, const std::string& key) const {
    if (kind == kList) return {list_.at(key), false};
    return {kind == kDirected ? directed_.at(key) : plain_.at(key), true};
  }

  /// Byte-for-byte check of a reply against its in-process reference.
  static bool matches(const Check& check, int status, const std::string& reply) {
    if (check.diagnose) return served_result_matches(check.expected, status, reply);
    return status == 200 && reply == check.expected;
  }

  static double service_ms(const std::string& reply) {
    const std::size_t at = reply.rfind("\"wall_ms\":");
    return at == std::string::npos ? 0.0 : std::strtod(reply.c_str() + at + 10, nullptr);
  }

  /// One open-loop phase at `rps`: the arrivals of `seconds`, or, when
  /// `requests` is set, exactly that many arrivals however long they take;
  /// whole blocks of the mix either way. In a ladder rung a refused
  /// request (429 or transport error) ends the ladder instead of counting
  /// as a failed operation; a wrong answer counts as failed everywhere.
  Phase open_loop(double rps, double seconds, std::size_t requests, util::Rng& rng,
                  Report& report, bool rung) {
    std::vector<ScheduledRequest> schedule;
    std::vector<Check> checks;
    // Twice the expected span holds `requests` arrivals all but surely.
    if (requests) seconds = 2.0 * static_cast<double>(requests) / rps;
    std::vector<double> arrivals = poisson_arrivals(rps, seconds, rng.next_u64());
    if (requests && arrivals.size() > requests) {
      seconds = arrivals[requests];  // the span the kept arrivals cover
      arrivals.resize(requests);
    }
    arrivals.resize(arrivals.size() / kBlockSize * kBlockSize);  // whole blocks of the mix
    for (double at : arrivals) {
      const auto [kind, key] = draw(rng);
      schedule.push_back({at, target(kind), body(kind, key), kind});
      checks.push_back(check_for(kind, key));
    }
    const std::vector<Reply> replies =
        send_open_loop("127.0.0.1", server_->port(), schedule, kTimeoutSeconds);
    Phase phase;
    phase.seconds = seconds;
    for (std::size_t k = 0; k < replies.size(); ++k) {
      const Reply& r = replies[k];
      ++report.attempted;
      phase.late_ms.push_back(r.late_ms);
      if (r.status == 429) ++phase.shed;
      if (!matches(checks[k], r.status, r.body)) {
        if (!(rung && r.status != 200)) ++report.failed;
        ++phase.failed;
        continue;
      }
      phase.latency_ms.push_back(r.latency_ms);
      phase.service_ms.push_back(checks[k].diagnose ? service_ms(r.body) : 0.0);
      phase.sent_at_ms.push_back(schedule[k].at_s * 1e3);
      phase.kind.push_back(static_cast<Kind>(schedule[k].kind));
    }
    // Growing backlog: requests in the last quarter of the schedule queue
    // clearly longer (latency minus service) than those in the first.
    const std::size_t q = phase.latency_ms.size() / 4;
    if (q > 0) {
      std::vector<double> head, tail;
      for (std::size_t k = 0; k < q; ++k) {
        head.push_back(phase.latency_ms[k] - phase.service_ms[k]);
        const std::size_t j = phase.latency_ms.size() - 1 - k;
        tail.push_back(phase.latency_ms[j] - phase.service_ms[j]);
      }
      phase.backlog_growing = median(tail) > median(head) + kBacklogMs;
    }
    return phase;
  }

  /// Per-request search figures of the server's own diagnoses: each
  /// /diagnose appends a PerfRecord holding that request's pc.* and
  /// metrics.* registry, so the records a phase appended are its deltas.
  static std::map<std::string, double> search_values(const telemetry::PerfLog& log,
                                                     std::size_t skip, std::size_t requests) {
    double advance = 0, evaluate = 0, expand = 0, pairs = 0, prunes = 0, considered = 0,
           skipped = 0;
    const std::vector<telemetry::PerfRecord> records = log.read_all();
    for (std::size_t k = skip; k < records.size(); ++k) {
      const telemetry::Registry& reg = records[k].registry;
      advance += reg.timer("pc.advance").seconds * 1e3;
      evaluate += reg.timer("pc.evaluate").seconds * 1e3;
      expand += reg.timer("pc.expand").seconds * 1e3;
      pairs += static_cast<double>(reg.counter("pc.instrument"));
      prunes += static_cast<double>(reg.counter("pc.prune_hit.subtree") +
                                    reg.counter("pc.prune_hit.pair"));
      considered += static_cast<double>(reg.counter("metrics.batch.blocks_considered"));
      skipped += static_cast<double>(reg.counter("metrics.batch.blocks_skipped"));
    }
    const double n = requests ? static_cast<double>(requests) : 1.0;
    return {{"pc.advance_ms", advance / n},
            {"pc.evaluate_ms", evaluate / n},
            {"pc.expand_ms", expand / n},
            {"pc.pairs_tested", pairs / n},
            {"pc.prune_hits", prunes / n},
            {"pc.us_per_pair", pairs > 0 ? 1e3 * (advance + evaluate + expand) / pairs : 0.0},
            {"metrics.blocks_skipped_ratio", considered > 0 ? skipped / considered : 0.0}};
  }

  util::Json stats_json() const {
    const auto reply = serve::http_get("127.0.0.1", server_->port(), "/stats", kTimeoutSeconds);
    return reply && reply->status == 200 ? util::Json::parse(reply->body) : util::Json::object();
  }

  std::uint64_t seed_;
  std::vector<Kind> block_;
  std::size_t block_pos_ = 0;
  std::size_t next_app_[4] = {0, 0, 0, 0};
  std::string store_dir_;
  std::map<std::string, std::string> directives_;
  std::map<std::string, std::string> plain_;
  std::map<std::string, std::string> directed_;
  std::map<std::string, std::string> list_;
  std::unique_ptr<serve::DiagnosisServer> server_;
};

}  // namespace

Report run_served(const RunOptions& options) {
  std::unique_ptr<Served> served;
  const std::vector<double> setup_s = timed_setups(
      [&] { served.reset(); },  // stop the previous set-up's server
      [&] {
        served = std::make_unique<Served>(options.seed);
        served->setup(options.work_dir);
      },
      options.work_dir);
  return served->measure(options, setup_s);
}

}  // namespace histpc::e2e
