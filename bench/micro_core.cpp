// Micro-benchmarks of the core data structures and engines
// (google-benchmark): simulator throughput, view construction, metric
// accumulation (whole-run query, per-instance vs. batched ticks), focus
// refinement, SHG insertion/dedup, directive parsing, and a full
// end-to-end diagnosis.
//
// Besides the console table, main() writes BENCH_metrics.json (store
// query with p50/p99 from the telemetry histograms, trace snapshots,
// table1-equivalent end-to-end seconds) so future changes have
// a perf trajectory to compare against — and appends a
// telemetry::PerfRecord to perf-log/micro_core.jsonl for `histpc
// perf-diff`.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <limits>
#include <string_view>
#include <thread>

#include "apps/apps.h"
#include "apps/workload_spec.h"
#include "bench_common.h"
#include "core/session.h"
#include "core/variant_runner.h"
#include "history/combiner.h"
#include "history/generator.h"
#include "history/postmortem.h"
#include "history/store.h"
#include "metrics/metric_batch.h"
#include "metrics/metric_instance.h"
#include "metrics/trace_view.h"
#include "pc/consultant.h"
#include "pc/shg.h"
#include "resources/focus_table.h"
#include "simmpi/simulator.h"
#include "simmpi/trace_cache.h"
#include "simmpi/trace_io.h"
#include "simmpi/trace_snapshot.h"
#include "telemetry/perf_record.h"
#include "telemetry/registry.h"
#include "telemetry/tracer.h"
#include "util/json.h"

using namespace histpc;

namespace {

const simmpi::ExecutionTrace& shared_trace() {
  static simmpi::ExecutionTrace trace = [] {
    apps::AppParams p;
    p.target_duration = 300.0;
    return apps::run_app("poisson_c", p);
  }();
  return trace;
}

const metrics::TraceView& shared_view() {
  static metrics::TraceView view(shared_trace());
  return view;
}

void BM_SimulatePoissonC(benchmark::State& state) {
  apps::AppParams p;
  p.target_duration = static_cast<double>(state.range(0));
  const simmpi::SimProgram program = apps::build_poisson('C', p);
  std::size_t ops = 0;
  for (const auto& proc : program.procs) ops += proc.ops.size();
  simmpi::Simulator sim(apps::poisson_network());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(program));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops) * state.iterations());
  state.counters["ops"] = static_cast<double>(ops);
}
BENCHMARK(BM_SimulatePoissonC)->Arg(100)->Arg(300)->Arg(1000);

void BM_RecordPoissonC(benchmark::State& state) {
  apps::AppParams p;
  p.target_duration = 300.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::build_poisson('C', p));
  }
}
BENCHMARK(BM_RecordPoissonC);

void BM_TraceViewConstruction(benchmark::State& state) {
  const auto& trace = shared_trace();
  for (auto _ : state) {
    metrics::TraceView view(trace);
    benchmark::DoNotOptimize(view.resources().num_hierarchies());
  }
}
BENCHMARK(BM_TraceViewConstruction);

void BM_MetricWholeWindowQuery(benchmark::State& state) {
  const auto& view = shared_view();
  const auto whole = resources::Focus::whole_program(view.resources());
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.query(metrics::MetricKind::SyncWaitTime, whole));
  }
}
BENCHMARK(BM_MetricWholeWindowQuery);

void BM_MetricIncrementalTicks(benchmark::State& state) {
  const auto& view = shared_view();
  const auto whole = resources::Focus::whole_program(view.resources());
  const double tick = 0.5;
  for (auto _ : state) {
    metrics::MetricInstance inst(view, metrics::MetricKind::SyncWaitTime,
                                 view.compile(whole), 0.0);
    for (double t = tick; t < view.trace().duration; t += tick) inst.advance(t);
    benchmark::DoNotOptimize(inst.value());
  }
}
BENCHMARK(BM_MetricIncrementalTicks);

void BM_MetricBatchedTicks(benchmark::State& state) {
  // Eight concurrent probes serviced by one MetricBatch pass per tick —
  // the consultant's steady-state evaluation pattern.
  const auto& view = shared_view();
  const auto& trace = view.trace();
  std::vector<const metrics::FocusFilter*> filters;
  filters.push_back(&view.compiled(resources::Focus::whole_program(view.resources())));
  for (std::size_t i = 0; i < trace.functions.size() && filters.size() < 8; ++i) {
    const auto& fi = trace.functions[i];
    filters.push_back(&view.compiled(
        resources::Focus::whole_program(view.resources())
            .with_part(0, "/Code/" + fi.module + "/" + fi.function)));
  }
  const double tick = 0.5;
  for (auto _ : state) {
    metrics::MetricBatch batch(view);
    for (const auto* f : filters)
      batch.add(metrics::MetricKind::ExecTime, *f, 0.0);
    for (double t = tick; t < trace.duration; t += tick) batch.advance_all(t);
    benchmark::DoNotOptimize(batch.cursor());
  }
  state.counters["probes"] = static_cast<double>(filters.size());
}
BENCHMARK(BM_MetricBatchedTicks);

void BM_FocusRefinement(benchmark::State& state) {
  const auto& view = shared_view();
  const auto whole = resources::Focus::whole_program(view.resources());
  for (auto _ : state) {
    benchmark::DoNotOptimize(whole.refinements(view.resources()));
  }
}
BENCHMARK(BM_FocusRefinement);

/// Working set for the intern benchmarks: whole program, its one-edge
/// refinements, and their refinements — the foci the consultant's first
/// two expansion waves handle.
const std::vector<resources::Focus>& intern_working_set() {
  static const std::vector<resources::Focus> set = [] {
    const auto& view = shared_view();
    const auto whole = resources::Focus::whole_program(view.resources());
    std::vector<resources::Focus> out{whole};
    for (resources::Focus& f : whole.refinements(view.resources())) {
      for (resources::Focus& g : f.refinements(view.resources())) out.push_back(std::move(g));
      out.push_back(std::move(f));
    }
    return out;
  }();
  return set;
}

void BM_FocusOpsString(benchmark::State& state) {
  // The string baseline for one SHG-expansion step per focus: dedup-key
  // hash (canonical name materialization + string hash), equality against
  // a neighbor, and the one-edge refinement list (vector<Focus> copies).
  const auto& view = shared_view();
  const auto& set = intern_working_set();
  std::size_t i = 0;
  for (auto _ : state) {
    const resources::Focus& f = set[i];
    i = (i + 1) % set.size();
    benchmark::DoNotOptimize(std::hash<std::string>{}(f.name()));
    benchmark::DoNotOptimize(f == set[i]);
    benchmark::DoNotOptimize(f.refinements(view.resources()));
  }
  state.counters["foci"] = static_cast<double>(set.size());
}
BENCHMARK(BM_FocusOpsString);

void BM_FocusOpsInterned(benchmark::State& state) {
  // The same step on FocusIds: integer hash, integer compare, memoized
  // refinement list (stable reference out of the shared table).
  auto& table = shared_view().foci();
  const auto& set = intern_working_set();
  std::vector<resources::FocusId> ids;
  ids.reserve(set.size());
  for (const resources::Focus& f : set) ids.push_back(table.intern(f));
  std::size_t i = 0;
  for (auto _ : state) {
    const resources::FocusId f = ids[i];
    i = (i + 1) % ids.size();
    benchmark::DoNotOptimize(
        std::hash<std::uint32_t>{}(static_cast<std::uint32_t>(f)));
    benchmark::DoNotOptimize(f == ids[i]);
    benchmark::DoNotOptimize(table.refinements(f));
  }
  state.counters["foci"] = static_cast<double>(set.size());
}
BENCHMARK(BM_FocusOpsInterned);

void BM_ShgInsertAndDedup(benchmark::State& state) {
  auto& table = shared_view().foci();
  const pc::HypothesisSet hyps = pc::HypothesisSet::standard();
  const resources::FocusId whole = table.whole_program();
  const std::vector<resources::FocusId>& children = table.refinements(whole);
  for (auto _ : state) {
    pc::SearchHistoryGraph shg(hyps, table);
    for (int hyp = 0; hyp < 3; ++hyp) {
      int parent = shg.add_node(hyp, whole, shg.root(), 0.0);
      for (resources::FocusId child : children) shg.add_node(hyp, child, parent, 1.0);
      // Second pass: every add is a dedup hit.
      for (resources::FocusId child : children) shg.add_node(hyp, child, parent, 2.0);
    }
    benchmark::DoNotOptimize(shg.size());
  }
}
BENCHMARK(BM_ShgInsertAndDedup);

void BM_DirectiveParseSerialize(benchmark::State& state) {
  pc::DirectiveSet set;
  for (int i = 0; i < 200; ++i)
    set.priorities.push_back({"ExcessiveSyncWaitingTime",
                              "</Code/mod" + std::to_string(i) + ".f,/Machine,/Process,/SyncObject>",
                              pc::Priority::High});
  set.prunes.push_back({"*", "/Machine"});
  const std::string text = set.serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc::DirectiveSet::parse(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(text.size()) * state.iterations());
}
BENCHMARK(BM_DirectiveParseSerialize);

void BM_FullDiagnosis(benchmark::State& state) {
  const auto& view = shared_view();
  for (auto _ : state) {
    pc::PerformanceConsultant consultant(view, pc::PcConfig{});
    benchmark::DoNotOptimize(consultant.run());
  }
}
BENCHMARK(BM_FullDiagnosis);

void BM_FullDiagnosisTraced(benchmark::State& state) {
  // Same search with a live event sink; the delta against BM_FullDiagnosis
  // is the all-in cost of event recording.
  const auto& view = shared_view();
  for (auto _ : state) {
    telemetry::VectorSink sink;
    pc::PcConfig config;
    config.trace_sink = &sink;
    pc::PerformanceConsultant consultant(view, config);
    benchmark::DoNotOptimize(consultant.run());
    state.counters["events"] = static_cast<double>(sink.size());
  }
}
BENCHMARK(BM_FullDiagnosisTraced);

void BM_WildcardFarmSimulation(benchmark::State& state) {
  apps::AppParams p;
  p.target_duration = 200.0;
  const simmpi::SimProgram program = apps::build_taskfarm(p);
  simmpi::Simulator sim;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(program));
  }
}
BENCHMARK(BM_WildcardFarmSimulation);

void BM_WorkloadBuildFromJson(benchmark::State& state) {
  const util::Json spec = util::Json::parse(R"({
    "name": "bench", "ranks": 8, "iterations": 100,
    "body": [
      {"op": "compute", "seconds": 0.3, "function": "f", "module": "m.c"},
      {"op": "exchange", "pattern": "butterfly", "bytes": 100000},
      {"op": "allreduce", "bytes": 8}
    ]})");
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::build_workload(spec));
  }
}
BENCHMARK(BM_WorkloadBuildFromJson);

void BM_PostmortemDiagnosis(benchmark::State& state) {
  const auto& view = shared_view();
  for (auto _ : state) {
    benchmark::DoNotOptimize(history::postmortem_diagnose(view));
  }
}
BENCHMARK(BM_PostmortemDiagnosis);

void BM_DirectiveGeneration(benchmark::State& state) {
  const auto& view = shared_view();
  pc::PerformanceConsultant consultant(view, pc::PcConfig{});
  const pc::DiagnosisResult result = consultant.run();
  const history::ExperimentRecord record =
      history::make_record("poisson", "C", view, result, 0.2);
  history::DirectiveGenerator generator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.from_record(record));
  }
}
BENCHMARK(BM_DirectiveGeneration);

// ------------------------------------------------ BENCH_metrics.json

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// ns per call of `fn`, measured over enough repetitions to fill `budget`
/// seconds (~50 ms by default; --quick shrinks it).
template <typename Fn>
double time_ns_per_call(Fn&& fn, double budget = 0.05) {
  std::size_t reps = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) fn();
    const double elapsed = seconds_since(start);
    if (elapsed >= budget || reps >= (1u << 24)) return elapsed * 1e9 / static_cast<double>(reps);
    reps *= 4;
  }
}

/// Like time_ns_per_call, but also records the *distribution*: the budget
/// is split into kChunks timed chunks and each chunk's per-call seconds is
/// recorded as one timer lap under `timer`, so `reg` ends up with a
/// histogram of that name and p50/p99 per-call latencies fall out of it.
/// Returns the overall mean ns per call, like time_ns_per_call.
template <typename Fn>
double time_ns_per_call_sampled(telemetry::Registry& reg, std::string_view timer,
                                Fn&& fn, double budget = 0.05) {
  constexpr int kChunks = 32;
  const double chunk_budget = budget / kChunks;
  // Calibrate how many calls fill one chunk.
  std::size_t reps = 1;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) fn();
    const double elapsed = seconds_since(start);
    if (elapsed >= chunk_budget || reps >= (1u << 20)) break;
    reps *= 4;
  }
  double total = 0.0;
  std::size_t calls = 0;
  for (int c = 0; c < kChunks; ++c) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) fn();
    const double elapsed = seconds_since(start);
    reg.add_seconds(timer, elapsed / static_cast<double>(reps));
    total += elapsed;
    calls += reps;
  }
  return total * 1e9 / static_cast<double>(calls);
}

/// The table1_directives workload, in-process: one version-C session, a
/// base diagnosis, directive generation, and the five directed re-runs.
double table1_end_to_end_seconds() {
  const auto start = Clock::now();
  apps::AppParams p;
  p.target_duration = 3000.0;
  p.node_base = 9;
  core::DiagnosisSession session("poisson_c", p);
  const pc::DiagnosisResult base = session.diagnose();
  const auto variants = core::table1_variants(session.make_record(base, "C"));
  // Variant 0 is "No Directives": the base diagnosis above already ran it.
  for (std::size_t i = 1; i < variants.size(); ++i)
    benchmark::DoNotOptimize(session.diagnose(variants[i].directives));
  return seconds_since(start);
}

void write_bench_metrics(bool quick) {
  const double budget = quick ? 0.005 : 0.05;
  const auto& view = shared_view();

  // Per-section latency distributions land here and the whole registry is
  // appended to perf-log/micro_core.jsonl at the end, so `histpc
  // perf-diff` can compare this run against earlier ones.
  telemetry::Registry reg;

  const double table1_s = table1_end_to_end_seconds();
  reg.add_seconds("bench.table1_end_to_end", table1_s);

  util::Json out = util::Json::object();
  util::Json table1 = util::Json::object();
  table1["end_to_end_seconds"] = table1_s;
  out["table1_directives"] = std::move(table1);

  // Focus interning: one SHG-expansion step (dedup hash + equality + the
  // one-edge refinement list) per focus, strings vs interned ids.
  double intern_string_ns = 0.0, intern_id_ns = 0.0;
  {
    const auto& set = intern_working_set();
    auto& table = view.foci();
    std::vector<resources::FocusId> ids;
    ids.reserve(set.size());
    for (const resources::Focus& f : set) ids.push_back(table.intern(f));
    std::size_t si = 0, ii = 0;
    intern_string_ns = time_ns_per_call(
        [&] {
          const resources::Focus& f = set[si];
          si = (si + 1) % set.size();
          benchmark::DoNotOptimize(std::hash<std::string>{}(f.name()));
          benchmark::DoNotOptimize(f == set[si]);
          benchmark::DoNotOptimize(f.refinements(view.resources()));
        },
        budget);
    intern_id_ns = time_ns_per_call(
        [&] {
          const resources::FocusId f = ids[ii];
          ii = (ii + 1) % ids.size();
          benchmark::DoNotOptimize(
              std::hash<std::uint32_t>{}(static_cast<std::uint32_t>(f)));
          benchmark::DoNotOptimize(f == ids[ii]);
          benchmark::DoNotOptimize(table.refinements(f));
        },
        budget);
    util::Json fi = util::Json::object();
    fi["foci"] = static_cast<double>(set.size());
    fi["string_ns_per_op"] = intern_string_ns;
    fi["interned_ns_per_op"] = intern_id_ns;
    fi["speedup_vs_string"] = intern_id_ns > 0 ? intern_string_ns / intern_id_ns : 0.0;
    out["focus_intern"] = std::move(fi);
  }

  // Parallel variant runner: the six table-1 configurations over the
  // shared view, sequential vs a four-worker pool. On a single-core host
  // the parallel bundle cannot beat the sequential one; the recorded
  // hardware_concurrency makes the measurement interpretable either way.
  double variants_seq_s = 0.0, variants_par_s = 0.0;
  int variants_threads = 0;
  {
    pc::PerformanceConsultant consultant(view, pc::PcConfig{});
    const pc::DiagnosisResult base = consultant.run();
    const history::ExperimentRecord record =
        history::make_record("poisson", "C", view, base, 0.2);
    const auto variants = core::table1_variants(record);
    const int repeats = quick ? 1 : 5;
    variants_seq_s = variants_par_s = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r)
      variants_seq_s =
          std::min(variants_seq_s, core::run_variants(view, variants, 1).wall_seconds);
    for (int r = 0; r < repeats; ++r) {
      const core::VariantRunReport rep = core::run_variants(view, variants, 4);
      variants_par_s = std::min(variants_par_s, rep.wall_seconds);
      variants_threads = rep.threads;
    }
    util::Json pv = util::Json::object();
    pv["variants"] = static_cast<double>(variants.size());
    pv["threads"] = static_cast<double>(variants_threads);
    pv["hardware_concurrency"] =
        static_cast<double>(std::thread::hardware_concurrency());
    pv["sequential_seconds"] = variants_seq_s;
    pv["parallel_seconds"] = variants_par_s;
    pv["speedup_vs_sequential"] =
        variants_par_s > 0 ? variants_seq_s / variants_par_s : 0.0;
    out["parallel_variants"] = std::move(pv);
  }

  // Experiment store at fleet scale: 1000 stored runs. Indexed latest()
  // answers from index-v1.jsonl and loads one record; the pre-index path
  // re-parses every file per query — measured both over binary snapshots
  // and over the legacy JSON layout (the >=10x acceptance bar is against
  // JSON re-parse). "cold" constructs a fresh store per query, paying the
  // index fold each time; the warm number reuses the instance snapshot.
  {
    namespace fs = std::filesystem;
    const std::size_t n_runs = 1000;
    const std::string root = "exp-store-bench";
    fs::remove_all(root);
    history::ExperimentStore bin_store(root + "/bin");
    const std::string json_dir = root + "/json";
    fs::create_directories(json_dir);

    history::ExperimentRecord proto;
    proto.app = "poisson";
    proto.nranks = 16;
    proto.machine_process_one_to_one = true;
    proto.threshold_used = 0.2;
    proto.resources.add_hierarchy("Code");
    for (const char* r : {"/Code/oned.f", "/Code/exchng2.f", "/Code/diff.f"})
      proto.resources.add_resource(r);
    for (int k = 0; k < 12; ++k)
      proto.nodes.push_back({"ExcessiveSyncWaitingTime", "</Code/oned.f,/Machine>",
                             k % 3 ? pc::NodeStatus::False : pc::NodeStatus::True,
                             pc::Priority::Medium, 10.0 + k, 0.05 * (k % 7)});
    proto.bottlenecks.push_back({"CPUbound", "</Code/diff.f>", 40.0, 0.31});
    proto.code_usage = {{"/Code/oned.f", 0.45}, {"/Code/exchng2.f", 0.30}};
    for (std::size_t i = 0; i < n_runs; ++i) {
      history::ExperimentRecord rec = proto;
      rec.version = "C" + std::to_string(i % 10);
      rec.machine = "node" + std::to_string(i % 8);
      rec.scenario = "scale-" + std::to_string(16 << (i % 3));
      rec.duration = 100.0 + static_cast<double>(i % 17);
      rec.pairs_tested = 100 + i;
      rec.run_id = bin_store.save(rec);
      util::write_file(json_dir + "/" + rec.run_id + ".json", rec.to_json().dump(2));
    }

    const history::StoreQuery query{"poisson", "C3", "", ""};
    const double indexed_ns = time_ns_per_call_sampled(
        reg, "bench.store_query",
        [&] { benchmark::DoNotOptimize(bin_store.latest(query)); }, budget);
    const double indexed_cold_ns = time_ns_per_call(
        [&] {
          history::ExperimentStore cold(root + "/bin");
          benchmark::DoNotOptimize(cold.latest(query));
        },
        budget);
    const double scan_binary_ns = time_ns_per_call(
        [&] { benchmark::DoNotOptimize(bin_store.scan_latest("poisson", "C3")); }, budget);
    const history::ExperimentStore json_store(json_dir);
    const double json_scan_ns = time_ns_per_call(
        [&] { benchmark::DoNotOptimize(json_store.scan_latest("poisson", "C3")); }, budget);

    util::Json sq = util::Json::object();
    sq["runs"] = static_cast<double>(n_runs);
    sq["indexed_ns_per_query"] = indexed_ns;
    sq["indexed_cold_ns_per_query"] = indexed_cold_ns;
    sq["scan_binary_ns_per_query"] = scan_binary_ns;
    sq["json_scan_ns_per_query"] = json_scan_ns;
    sq["speedup_vs_json_scan"] = indexed_ns > 0 ? json_scan_ns / indexed_ns : 0.0;
    sq["speedup_vs_binary_scan"] = indexed_ns > 0 ? scan_binary_ns / indexed_ns : 0.0;
    {
      const telemetry::Histogram* h = reg.histogram("bench.store_query");
      sq["p50_ns_per_query"] = h ? h->quantile(0.5) * 1e9 : 0.0;
      sq["p99_ns_per_query"] = h ? h->quantile(0.99) * 1e9 : 0.0;
    }
    out["store_query"] = std::move(sq);

    // N-run directive generation over the same synthetic history: pooled
    // from_records, N-run intersection, and weighted aggregation, all over
    // the newest 16 runs.
    {
      std::vector<history::ExperimentRecord> records;
      for (std::size_t i = 0; i < 16; ++i) {
        history::ExperimentRecord rec = proto;
        rec.version = "C3";
        rec.run_id = "poisson_C3_" + std::to_string(i + 1);
        // Vary conclusions so the sets genuinely disagree across runs.
        for (std::size_t k = 0; k < rec.nodes.size(); ++k)
          rec.nodes[k].status =
              (k + i) % 3 ? pc::NodeStatus::False : pc::NodeStatus::True;
        records.push_back(std::move(rec));
      }
      const history::DirectiveGenerator generator;
      std::vector<pc::DirectiveSet> sets;
      for (const auto& rec : records) sets.push_back(generator.from_record(rec));

      const double pooled_ns = time_ns_per_call(
          [&] { benchmark::DoNotOptimize(generator.from_records(records)); }, budget);
      const double nrun_ns = time_ns_per_call(
          [&] {
            benchmark::DoNotOptimize(
                history::combine_runs(sets, history::CombineMode::Intersection));
          },
          budget);
      const double weighted_ns = time_ns_per_call(
          [&] { benchmark::DoNotOptimize(generator.from_records_weighted(records)); },
          budget);

      util::Json dg = util::Json::object();
      dg["runs"] = static_cast<double>(records.size());
      dg["pooled_ns_per_gen"] = pooled_ns;
      dg["nrun_combine_ns_per_gen"] = nrun_ns;
      dg["weighted_ns_per_gen"] = weighted_ns;
      out["directive_gen_nruns"] = std::move(dg);
    }
    fs::remove_all(root);
  }

  // Trace snapshots: cold simulate vs binary encode/decode vs warm cache
  // load, plus sizes vs the JSON oracle. The cache directory lives in the
  // working directory so it persists across processes — CI runs micro_core
  // twice and asserts the second run's cache_hits (counted from the one
  // initial load, before the timing loops) went up.
  double snapshot_simulate_ns = 0.0, snapshot_key_ns = 0.0, snapshot_load_ns = 0.0,
         snapshot_hit_speedup = 0.0;
  {
    apps::AppParams p;
    p.target_duration = 3000.0;
    p.node_base = 9;
    const simmpi::SimProgram program = apps::build_app("poisson_c", p);
    const simmpi::NetworkModel net = apps::network_for("poisson_c");

    const auto sim_start = Clock::now();
    const simmpi::ExecutionTrace trace = simmpi::Simulator(net).run(program);
    const double cold_simulate_ns = seconds_since(sim_start) * 1e9;

    telemetry::Registry cache_reg;
    simmpi::TraceCache cache({"trace-snapshot-cache", 64ull << 20}, &cache_reg);
    const simmpi::TraceKey key = simmpi::trace_content_key(program, net);
    if (!cache.load(key)) cache.store(key, trace);
    const double cache_hits = static_cast<double>(cache_reg.counter("trace_cache.hit"));
    const double cache_misses = static_cast<double>(cache_reg.counter("trace_cache.miss"));

    // A session pays for a hit's key by recording the app straight into
    // it, so price it that way.
    const simmpi::ProgramSpec spec = apps::app_spec("poisson_c", p);
    const double key_ns = time_ns_per_call(
        [&] { benchmark::DoNotOptimize(simmpi::record_trace_key(spec, net)); }, budget);
    const std::string bytes = simmpi::encode_trace_snapshot(trace);
    const double encode_ns = time_ns_per_call(
        [&] { benchmark::DoNotOptimize(simmpi::encode_trace_snapshot(trace)); }, budget);
    const double warm_load_ns =
        time_ns_per_call([&] { benchmark::DoNotOptimize(cache.load(key)); }, budget);
    const std::size_t json_bytes = simmpi::trace_to_json(trace).dump().size();

    util::Json snap = util::Json::object();
    snap["intervals"] = static_cast<double>(trace.total_intervals());
    snap["cold_simulate_ns"] = cold_simulate_ns;
    snap["encode_ns"] = encode_ns;
    snap["warm_load_ns"] = warm_load_ns;
    snap["key_ns"] = key_ns;
    // speedup_vs_simulate leaves the key out; hit_speedup_vs_simulate is
    // what a hit really costs (record into the key, then load) against
    // simulating.
    snap["speedup_vs_simulate"] = warm_load_ns > 0 ? cold_simulate_ns / warm_load_ns : 0.0;
    const double hit_speedup =
        key_ns + warm_load_ns > 0 ? cold_simulate_ns / (key_ns + warm_load_ns) : 0.0;
    snap["hit_speedup_vs_simulate"] = hit_speedup;
    snap["binary_bytes"] = static_cast<double>(bytes.size());
    snap["json_bytes"] = static_cast<double>(json_bytes);
    snap["json_bytes_vs_binary"] =
        bytes.size() > 0 ? static_cast<double>(json_bytes) / static_cast<double>(bytes.size())
                         : 0.0;
    snap["cache_hits"] = cache_hits;
    snap["cache_misses"] = cache_misses;
    out["trace_snapshot"] = std::move(snap);
    snapshot_simulate_ns = cold_simulate_ns;
    snapshot_key_ns = key_ns;
    snapshot_load_ns = warm_load_ns;
    snapshot_hit_speedup = hit_speedup;
  }

  // Telemetry volume of one traced diagnosis over the shared view.
  telemetry::VectorSink sink;
  pc::PcConfig traced_config;
  traced_config.trace_sink = &sink;
  pc::PerformanceConsultant consultant(view, traced_config);
  const pc::DiagnosisResult traced = consultant.run();
  util::Json telemetry_section = util::Json::object();
  telemetry_section["events_recorded"] = static_cast<double>(sink.size());
  telemetry_section["summary"] = traced.telemetry.to_json();
  out["telemetry"] = std::move(telemetry_section);

  // Merge (don't overwrite): table1_directives owns its own section of the
  // same file.
  std::vector<std::pair<std::string, util::Json>> sections;
  for (auto& [name, value] : out.as_object()) sections.emplace_back(name, std::move(value));
  bench::write_bench_sections(std::move(sections));

  // Append this run's registry (section-latency histograms and the table1
  // macro timer) as a PerfRecord, making the bench's own performance a
  // first-class history: CI diffs it against the committed baseline and a
  // developer can run `histpc perf-diff --log perf-log/micro_core.jsonl`.
  {
    telemetry::PerfRecord rec;
    rec.app = "micro_core";
    rec.version = quick ? "quick" : "full";
    rec.kind = "bench";
    rec.machine = telemetry::machine_name();
    rec.build = telemetry::build_id();
    rec.config["quick"] = quick ? "1" : "0";
    rec.registry = reg;
    telemetry::PerfLog log("perf-log/micro_core.jsonl");
    log.append(rec);
    std::printf("appended perf record to %s\n", log.path().c_str());
  }
  std::printf("wrote %s: focus ops %.0f ns string / %.0f ns interned (%.1fx), "
              "variants %.3f s sequential / %.3f s on %d workers, "
              "trace snapshot %.2f ms simulate / %.2f ms key + %.2f ms warm load (%.1fx), "
              "table1 workload %.3f s\n",
              bench::kBenchMetricsPath, intern_string_ns, intern_id_ns,
              intern_id_ns > 0 ? intern_string_ns / intern_id_ns : 0.0, variants_seq_s,
              variants_par_s, variants_threads, snapshot_simulate_ns / 1e6,
              snapshot_key_ns / 1e6, snapshot_load_ns / 1e6, snapshot_hit_speedup, table1_s);
}

}  // namespace

int main(int argc, char** argv) {
  // --quick (ours, stripped before google-benchmark sees the args): CI
  // smoke mode — run only the cheap focus-op benchmarks and shrink the
  // JSON measurement budgets, but still emit every BENCH_metrics.json
  // section so the smoke job can validate the full schema.
  bool quick = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      quick = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  static char quick_filter[] = "--benchmark_filter=BM_FocusOps.*";
  if (quick) args.push_back(quick_filter);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_bench_metrics(quick);
  return 0;
}
