#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "util/json.h"
#include "util/log.h"
#include "workloads.h"

namespace histpc::e2e {

namespace fs = std::filesystem;

std::vector<double> timed_setups(const std::function<void()>& teardown,
                                 const std::function<void()>& setup_once, const std::string& dir) {
  std::vector<double> seconds;
  for (int k = 0; k < kSetupRepeats; ++k) {
    teardown();
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto t0 = Clock::now();
    setup_once();
    seconds.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  // peak_rss_mb covers the operations, not set-up's own peak.
  if (!reset_peak_rss()) HISTPC_LOG(Warn) << "cannot reset the peak RSS; it includes set-up";
  return seconds;
}

std::vector<Metric> layer_metrics(const Ledger& ledger, const std::map<std::string, double>& counters,
                                  const std::map<std::string, double>& values) {
  static const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
      {"apps.record_ms", "ms"},
      {"simmpi.key_ms", "ms"},
      {"simmpi.cache_load_ms", "ms"},
      {"simmpi.cache_store_ms", "ms"},
      {"simmpi.cache_hit_ratio", "ratio"},
      {"simmpi.simulate_ms", "ms"},
      {"metrics.view_build_ms", "ms"},
      {"metrics.blocks_skipped_ratio", "ratio"},
      {"core.session_build_ms", "ms"},
      {"core.diagnose_ms", "ms"},
      {"core.residual_ms", "ms"},
      {"core.op_ms", "ms"},
      {"pc.advance_ms", "ms"},
      {"pc.evaluate_ms", "ms"},
      {"pc.expand_ms", "ms"},
      {"pc.pairs_tested", "count"},
      {"pc.prune_hits", "count"},
      {"pc.us_per_pair", "us"},
      {"history.store_open_ms", "ms"},
      {"history.record_build_ms", "ms"},
      {"history.store_save_ms", "ms"},
      {"history.index_query_ms", "ms"},
      {"history.harvest_ms", "ms"},
      {"history.map_ms", "ms"},
      {"history.store_runs", "count"},
      {"telemetry.perf_append_ms", "ms"},
      {"serve.service_ms", "ms"},
      {"serve.wait_ms", "ms"},
      {"serve.result_cache_hit_ratio", "ratio"},
      {"serve.shed", "count"},
      {"serve.loadgen_late_ms_p99", "ms"},
      {"serve.served_ms_p99", "ms"},
      {"serve.max_rps", "1/s"},
      {"bench.trace_overhead_pct", "%"},
  };
  const double ops = ledger.ops ? static_cast<double>(ledger.ops) : 1.0;
  auto counter = [&](const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  std::map<std::string, double> v;
  for (const LedgerRow& r : ledger.rows) v[r.name + "_ms"] = r.inclusive_ms / ops;
  v["core.residual_ms"] = ledger.residual_ms / ops;
  v["core.op_ms"] = ledger.wall_ms / ops;
  v["simmpi.cache_hit_ratio"] = ratio(counter("simmpi.cache_hits"), counter("simmpi.cache_loads"));
  v["metrics.blocks_skipped_ratio"] =
      ratio(counter("metrics.blocks_skipped"), counter("metrics.blocks_considered"));
  v["pc.pairs_tested"] = counter("pc.pairs_tested") / ops;
  v["pc.prune_hits"] = counter("pc.prune_hits") / ops;
  v["pc.us_per_pair"] =
      ratio(1e3 * (v["pc.advance_ms"] + v["pc.evaluate_ms"] + v["pc.expand_ms"]) * ops,
            counter("pc.pairs_tested"));
  for (const auto& [name, value] : values) v[name] = value;

  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics)
    out.push_back(Metric{name, v.count(name) ? v[name] : 0.0, unit, ledger.ops});
  return out;
}

Report run_closed_loop(const ClosedLoopFactory& make, const RunOptions& options) {
  std::unique_ptr<ClosedLoop> workload;
  const std::vector<double> setup_s = timed_setups(
      [&] { workload.reset(); },
      [&] {
        workload = make(options.seed);
        workload->setup(options.work_dir);
      },
      options.work_dir);

  Report report;
  std::size_t i = 0;
  std::map<std::string, std::vector<double>> by_input;
  auto run_for = [&](double seconds, SpanRecorder& spans, std::vector<double>* wall_ms) {
    const auto start = Clock::now();
    while (ms_between(start, Clock::now()) < seconds * 1e3 || i % workload->cycle() != 0) {
      const ClosedLoop::Op op = workload->run(i, spans);
      ++report.attempted;
      if (!op.ok) ++report.failed;
      if (wall_ms) {
        wall_ms->push_back(op.wall_ms);
        by_input[workload->label(i)].push_back(op.wall_ms);
      }
      ++i;
    }
    return ms_between(start, Clock::now()) / 1e3;
  };

  // Warm-up: lazy state inside the process (allocator, page cache) settles.
  SpanRecorder off(false);
  run_for(std::min(1.0, 0.1 * options.seconds), off, nullptr);

  std::vector<double> wall;
  if (!options.trace) {
    const double elapsed = run_for(options.seconds, off, &wall);
    const std::size_t n = wall.size();
    std::ostringstream os;
    os << "op ms p50 by input:";
    for (const auto& [label, ms] : by_input) os << " " << label << "=" << median(ms);
    report.ledger = os.str() + "\n";
    report.end_to_end = {
        {"setup_s", median(setup_s), "s", setup_s.size()},
        {"op_ms_p50", quantile(wall, 0.5), "ms", n},
        {"op_ms_p90", quantile(wall, 0.9), "ms", n},
        {"ops_per_s", static_cast<double>(n) / elapsed, "1/s", n},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1},
    };
    return report;
  }

  // Traced run: the first half untraced, the second traced, so the
  // difference of their medians is the tracing overhead.
  run_for(options.seconds / 2, off, &wall);
  SpanRecorder spans(true);
  std::vector<double> traced_wall;
  run_for(options.seconds / 2, spans, &traced_wall);
  const Ledger ledger = build_ledger(spans);
  std::map<std::string, double> values = workload->layer_values();
  const double overhead_pct = 100.0 * (median(traced_wall) / median(wall) - 1.0);
  values["bench.trace_overhead_pct"] = overhead_pct;
  report.per_layer = layer_metrics(ledger, spans.counters(), values);

  double worst_gap_ms = 0.0;
  double worst_residual = 0.0;
  for (std::size_t k = 0; k < ledger.ops; ++k) {
    worst_gap_ms = std::max(worst_gap_ms, std::abs(ledger.op_accounted_ms[k] +
                                                   ledger.op_residual_ms[k] - ledger.op_wall_ms[k]));
    worst_residual = std::max(worst_residual, ledger.op_residual_ms[k] / ledger.op_wall_ms[k]);
  }
  std::ostringstream os;
  os << render_ledger(ledger, spans.counters());
  os << "tracing overhead: untraced op p50 " << median(wall) << " ms (" << wall.size()
     << " ops), traced " << median(traced_wall) << " ms (" << traced_wall.size() << " ops), "
     << overhead_pct << "%\n";
  os << "largest residual of one operation: " << 100.0 * worst_residual
     << "% of its wall; largest |span self + residual - wall|: " << worst_gap_ms << " ms\n";
  report.ledger = os.str();
  if (!options.trace_out.empty()) util::write_file(options.trace_out, chrome_trace_json(spans));
  return report;
}

Report run_workload(const RunOptions& options) {
  if (options.workload == "oneshot_paper") return run_closed_loop(make_oneshot_paper, options);
  if (options.workload == "history_cycle") return run_closed_loop(make_history_cycle, options);
  if (options.workload == "scaled_spmd") return run_closed_loop(make_scaled_spmd, options);
  if (options.workload == "serve_open_loop") return run_served(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"oneshot_paper", "history_cycle", "scaled_spmd",
                                                 "serve_open_loop"};
  return names;
}

}  // namespace histpc::e2e
