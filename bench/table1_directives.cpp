// Table 1 — Time (in seconds) to find all true bottlenecks with search
// directives: no directives vs. pruning (all / general-only /
// historic-only) vs. priorities-only vs. priorities + prunes, measured at
// 25/50/75/100% of the base run's bottleneck set.
//
// Workload: the 2-D Poisson application (version C) on four nodes,
// identical thresholds in every run (Section 4.1).
#include "bench_common.h"
#include "core/variant_runner.h"
#include "util/json.h"

using namespace histpc;

int main() {
  bench::print_header("Table 1: time (s) to find true bottlenecks with search directives",
                      "Karavanic & Miller SC'99, Table 1 (Section 4.1)");

  // Trace cache on (same working-directory cache micro_core uses), so the
  // recorded hit/miss counters are real: the first bench run simulates and
  // stores, later runs load the snapshot.
  pc::PcConfig config;
  config.trace_cache_dir = "trace-snapshot-cache";
  core::DiagnosisSession base_session("poisson_c", bench::params_for_version('C'), config);
  std::printf("running base case (no directives, run to completion)...\n");
  const pc::DiagnosisResult base = base_session.diagnose();
  const auto record = base_session.make_record(base, "C");
  std::printf("base: %zu pairs tested, %zu bottlenecks, search ended at %.1fs\n\n",
              base.stats.pairs_tested, base.stats.bottlenecks, base.stats.end_time);

  // Variant 0 is "No Directives"; the others are the paper's directed
  // configurations, harvested from the base record.
  const std::vector<core::DiagnosisVariant> variants = core::table1_variants(record);

  // One reference set for every column (the paper's fixed base set):
  // clearly significant bottlenecks outside the pruned (redundant)
  // hierarchies.
  const pc::DirectiveSet full_prunes = [&] {
    history::GeneratorOptions opts;
    opts.priorities = false;
    return history::DirectiveGenerator(opts).from_record(record);
  }();
  const auto reference =
      bench::reference_set(base.bottlenecks, full_prunes, base_session.view().resources());
  std::printf("reference bottleneck set: %zu of %zu base bottlenecks\n\n", reference.size(),
              base.bottlenecks.size());

  const std::vector<double> percents{25, 50, 75, 100};
  util::TablePrinter table([&] {
    std::vector<std::string> headers{"% B'necks Found"};
    for (const auto& v : variants) headers.push_back(v.name);
    return headers;
  }());
  util::TablePrinter pairs_table({"Variant", "Pairs Tested", "Bottlenecks Found"});

  std::vector<std::vector<double>> times(variants.size());
  util::Json telemetry_by_variant = util::Json::object();
  for (std::size_t i = 0; i < variants.size(); ++i) {
    // Every variant diagnoses the same version-C execution; each
    // diagnose() call is an independent online search, so reuse the
    // session instead of re-simulating the identical trace.
    const pc::DiagnosisResult result =
        i == 0 ? base : base_session.diagnose(variants[i].directives);
    for (double pct : percents) times[i].push_back(result.time_to_find(reference, pct));
    pairs_table.add_row({variants[i].name, std::to_string(result.stats.pairs_tested),
                         std::to_string(result.stats.bottlenecks)});
    telemetry_by_variant[variants[i].name] = result.telemetry.to_json();
  }

  // Merge the per-variant summaries into BENCH_metrics.json (micro_core
  // writes the other sections; keep whatever is already there).
  bench::write_bench_section("table1_variant_telemetry", std::move(telemetry_by_variant));

  const telemetry::Registry& reg = base_session.registry();
  util::Json cache_section = util::Json::object();
  cache_section["hits"] = static_cast<double>(reg.counter("trace_cache.hit"));
  cache_section["misses"] = static_cast<double>(reg.counter("trace_cache.miss"));
  cache_section["trace_key_seconds"] = reg.timer("session.trace_key").seconds;
  cache_section["trace_load_seconds"] = reg.timer("session.trace_load").seconds;
  cache_section["simulate_seconds"] = reg.timer("session.simulate").seconds;
  bench::write_bench_section("table1_trace_cache", std::move(cache_section));
  std::printf("trace cache: %llu hit / %llu miss (key %.1f ms, load %.1f ms, simulate %.1f ms)\n",
              static_cast<unsigned long long>(reg.counter("trace_cache.hit")),
              static_cast<unsigned long long>(reg.counter("trace_cache.miss")),
              reg.timer("session.trace_key").seconds * 1e3,
              reg.timer("session.trace_load").seconds * 1e3,
              reg.timer("session.simulate").seconds * 1e3);
  std::printf("wrote per-variant telemetry summaries to %s\n\n", bench::kBenchMetricsPath);

  for (std::size_t p = 0; p < percents.size(); ++p) {
    std::vector<std::string> row{util::fmt_double(percents[p], 0) + "%"};
    for (std::size_t i = 0; i < variants.size(); ++i)
      row.push_back(bench::time_cell(times[i][p], times[0][p]));
    table.add_row(std::move(row));
  }
  std::printf("measured (this reproduction):\n%s\n", table.to_string().c_str());
  std::printf("instrumentation volume (paper goal 2 — decrease unhelpful instrumentation):\n%s\n",
              pairs_table.to_string().c_str());

  std::printf(
      "paper reported (Table 1, reductions at 100%% of bottlenecks):\n"
      "  Prunes Only            -93.5%%\n"
      "  General Prunes Only    (28%% slower than all prunes)\n"
      "  Priorities Only        -78.6%%\n"
      "  Priorities & All Prunes -94.4%%\n"
      "expected shape: every directive type cuts diagnosis time drastically;\n"
      "pruning beats priorities alone; the combination is best and, unlike\n"
      "pure pruning, cannot miss new behaviours.\n");
  return 0;
}
