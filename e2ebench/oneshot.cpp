// oneshot_paper and scaled_spmd: one diagnosis per operation, the way a
// `histpc run` invocation does it.
#include <filesystem>
#include <optional>

#include "apps/workload_spec.h"
#include "history/store.h"
#include "probes.h"
#include "simmpi/trace_cache.h"
#include "spmd_gen.h"
#include "telemetry/perf_record.h"
#include "util/json.h"
#include "util/log.h"
#include "util/rng.h"
#include "workloads.h"

namespace histpc::e2e {

namespace fs = std::filesystem;

namespace {

const std::vector<std::string> kPaperApps = {"poisson_a", "poisson_b", "poisson_c", "poisson_d",
                                             "ocean",     "seismic",   "taskfarm"};

// A pass visits every paper app kWarmRounds times (warm trace cache) and
// then diagnoses one fresh-jitter run of kMissApp, whose trace is not in
// the cache; its snapshot is deleted again after the operation, so the
// input stays a miss the next time round. Misses are always the same app
// so the shape of the time distribution does not depend on the seed.
constexpr std::size_t kWarmRounds = 2;
constexpr std::size_t kMissInputs = 6;
const std::string kMissApp = "poisson_c";
// A new store directory every kStoreRotate operations keeps the store (and
// the index every save folds) the same size whatever the run length.
constexpr std::size_t kStoreRotate = 64;

/// Reference result through the path with no cache: simulate, then diagnose.
std::string reference_result(const std::string& app, simmpi::ExecutionTrace trace) {
  core::DiagnosisSession session(std::move(trace), pc::PcConfig{}, app);
  return result_bytes(app, session.diagnose());
}

class OneShotPaper final : public ClosedLoop {
 public:
  explicit OneShotPaper(std::uint64_t seed) : seed_(seed) {}

  void setup(const std::string& dir) override {
    dir_ = dir;
    config_.trace_cache_dir = dir + "/trace-cache";
    const simmpi::TraceCache cache({config_.trace_cache_dir});
    util::Rng rng(seed_);

    auto prepare = [&](const std::string& app, const apps::AppParams& params, bool fill) {
      const simmpi::SimProgram program = apps::build_app(app, params);
      const simmpi::NetworkModel net = apps::network_for(app);
      const simmpi::TraceKey key = simmpi::trace_content_key(program, net);
      simmpi::ExecutionTrace trace = simmpi::Simulator(net).run(program);
      if (fill) cache.store(key, trace);
      return Input{app, params, reference_result(app, std::move(trace)),
                   fill ? std::string() : cache.path_for(key)};
    };
    apps::AppParams base;
    base.target_duration = 1500.0;  // `histpc run`'s default
    for (const std::string& app : kPaperApps) warm_.push_back(prepare(app, base, true));
    for (std::size_t k = 0; k < kMissInputs; ++k) {
      apps::AppParams p = base;
      p.compute_jitter = 0.02;
      p.seed = rng.next_u64();
      misses_.push_back(prepare(kMissApp, p, false));
    }
    // A seeded visiting order; every app is visited equally often.
    for (std::size_t k = 0; k < kWarmRounds * warm_.size(); ++k) order_.push_back(k % warm_.size());
    for (std::size_t k = order_.size(); k > 1; --k) std::swap(order_[k - 1], order_[rng.next_below(k)]);
  }

  std::size_t cycle() const override { return order_.size() + 1; }

  std::string label(std::size_t i) const override {
    const std::size_t slot = i % cycle();
    return slot == order_.size() ? kMissApp + " (miss)" : warm_[order_[slot]].app;
  }

  Op run(std::size_t i, SpanRecorder& spans) override {
    const std::size_t slot = i % cycle();
    const Input& in = slot == order_.size() ? misses_[(i / cycle()) % misses_.size()]
                                            : warm_[order_[slot]];
    const std::string store_dir = dir_ + "/store-" + std::to_string(i / kStoreRotate);

    // The calls `histpc run <app> --store DIR --perf-log FILE` makes, in order.
    Op op;
    SessionSpan built;
    std::unique_ptr<core::DiagnosisSession> session;
    pc::DiagnosisResult result;
    const auto t0 = Clock::now();
    {
      auto root = spans.op();
      std::optional<history::ExperimentStore> store;
      {
        auto s = spans.span("history.store_open");
        store.emplace(store_dir);
      }
      session = session_for_app(in.app, in.params, config_, spans, &built);
      result = diagnose(*session, {}, spans);
      history::ExperimentRecord record;
      {
        auto s = spans.span("history.record_build");
        record = session->make_record(result, "1");
      }
      {
        auto s = spans.span("history.store_save");
        store->save(std::move(record));
      }
      {
        auto s = spans.span("telemetry.perf_append");
        telemetry::PerfLog log(telemetry::PerfLog::path_in_store(store_dir, session->app_name()));
        log.append(session->make_perf_record("1"));
      }
    }
    op.wall_ms = ms_between(t0, Clock::now());
    split_session_span(built, *session, spans);
    op.ok = result_bytes(in.app, result) == in.expected;
    if (!in.snapshot.empty()) fs::remove(in.snapshot);
    return op;
  }

 private:
  struct Input {
    std::string app;
    apps::AppParams params;
    std::string expected;  ///< result_bytes of the reference run
    std::string snapshot;  ///< cache file to delete after use (misses only)
  };

  std::uint64_t seed_;
  std::string dir_;
  pc::PcConfig config_;
  std::vector<Input> warm_;
  std::vector<Input> misses_;
  std::vector<std::size_t> order_;
};

// Distinct generated programs per run; operations cycle through them. With
// no cache anywhere on this path, a repeat does the same work as a first.
// An odd count keeps the median and p90 inside one program's cluster of
// times rather than on the gap between two.
constexpr std::size_t kSpmdInputs = 15;

// At 16 ranks the per-rank probes keep the default 5% instrumentation
// budget spent and the probes under /SyncObject/Message never run; this is
// `histpc run --workload FILE --cost-limit 0.25`.
constexpr double kSpmdCostLimit = 0.25;

class ScaledSpmd final : public ClosedLoop {
 public:
  explicit ScaledSpmd(std::uint64_t seed) : seed_(seed) { config_.cost_limit = kSpmdCostLimit; }

  void setup(const std::string&) override {
    for (std::size_t k = 0; k < kSpmdInputs; ++k) {
      GeneratedSpec spec = generate_spmd(seed_ * 1000 + k);
      apps::Workload w = apps::build_workload(util::Json::parse(spec.json));
      core::DiagnosisSession session(simmpi::Simulator(w.network).run(w.program), config_,
                                     w.name);
      const pc::DiagnosisResult result = session.diagnose();
      for (const Injection& inj : spec.truth) {
        if (!reported(inj, result.bottlenecks)) {
          HISTPC_LOG(Warn) << spec.name << ": injected " << inj.kind << " (" << inj.hypothesis
                           << " at " << inj.focus_part << ") is not reported";
        }
      }
      inputs_.push_back(Input{std::move(spec), result_bytes(w.name, result)});
    }
  }

  std::size_t cycle() const override { return inputs_.size(); }

  std::string label(std::size_t i) const override { return inputs_[i % inputs_.size()].spec.name; }

  Op run(std::size_t i, SpanRecorder& spans) override {
    const Input& in = inputs_[i % inputs_.size()];
    // The calls `histpc run --workload FILE` makes (no trace cache).
    Op op;
    SessionSpan built;
    std::unique_ptr<core::DiagnosisSession> session;
    pc::DiagnosisResult result;
    const auto t0 = Clock::now();
    {
      auto root = spans.op();
      apps::Workload w;
      {
        auto s = spans.span("apps.record");
        w = apps::build_workload(util::Json::parse(in.spec.json));
      }
      simmpi::ExecutionTrace trace;
      {
        auto s = spans.span("simmpi.simulate");
        trace = simmpi::Simulator(w.network).run(w.program);
      }
      session = session_for_trace(std::move(trace), config_, w.name, spans, &built);
      result = diagnose(*session, {}, spans);
    }
    op.wall_ms = ms_between(t0, Clock::now());
    split_session_span(built, *session, spans);
    op.ok = result_bytes(session->app_name(), result) == in.expected;
    for (const Injection& inj : in.spec.truth) op.ok = op.ok && reported(inj, result.bottlenecks);
    return op;
  }

 private:
  struct Input {
    GeneratedSpec spec;
    std::string expected;  ///< result_bytes of the reference run
  };

  std::uint64_t seed_;
  pc::PcConfig config_;
  std::vector<Input> inputs_;
};

}  // namespace

std::unique_ptr<ClosedLoop> make_oneshot_paper(std::uint64_t seed) {
  return std::make_unique<OneShotPaper>(seed);
}

std::unique_ptr<ClosedLoop> make_scaled_spmd(std::uint64_t seed) {
  return std::make_unique<ScaledSpmd>(seed);
}

}  // namespace histpc::e2e
