// Micro-benchmarks of the core data structures and engines
// (google-benchmark): simulator throughput, metric accumulation (indexed
// vs. the scan oracle, per-instance vs. batched), focus refinement, SHG
// insertion/dedup, directive parsing, and a full end-to-end diagnosis.
//
// Besides the console table, main() writes BENCH_metrics.json (metric-query
// ns/query and queries/s plus p50/p99 from the telemetry histograms,
// table1-equivalent end-to-end seconds) so future PRs have a perf
// trajectory to compare against — and appends a telemetry::PerfRecord to
// perf-log/micro_core.jsonl for `histpc perf-diff`.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <limits>
#include <string_view>
#include <thread>

#include "apps/apps.h"
#include "apps/workload_spec.h"
#include "bench_common.h"
#include "metrics/block_index.h"
#include "util/cpu_features.h"
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
#include "pc/directive_index.h"
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
    benchmark::DoNotOptimize(view.query(metrics::MetricKind::SyncWaitTime, whole, 0.0,
                                        view.trace().duration));
  }
}
BENCHMARK(BM_MetricWholeWindowQuery);

void BM_MetricWholeWindowQueryScan(benchmark::State& state) {
  // The retained linear-scan oracle; the ratio to the indexed benchmark
  // above is the headline metric-query speedup.
  const auto& view = shared_view();
  const auto& filter =
      view.compiled(resources::Focus::whole_program(view.resources()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.query_scan(metrics::MetricKind::SyncWaitTime, filter,
                                             0.0, view.trace().duration));
  }
}
BENCHMARK(BM_MetricWholeWindowQueryScan);

void BM_MetricConstrainedWindowQuery(benchmark::State& state) {
  // Function-constrained focus: served by the index's per-function posting
  // lists rather than the per-state prefix sums.
  const auto& view = shared_view();
  const auto& trace = view.trace();
  const auto& fi = trace.functions.front();
  const auto focus = resources::Focus::whole_program(view.resources())
                         .with_part(0, "/Code/" + fi.module + "/" + fi.function);
  const auto& filter = view.compiled(focus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.query(metrics::MetricKind::CpuTime, filter,
                                        trace.duration * 0.25, trace.duration * 0.75));
  }
}
BENCHMARK(BM_MetricConstrainedWindowQuery);

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

// ------------------------------------------------ block-max benchmarks

/// Large phase-clustered trace for the block-skip benchmarks: eight
/// phases, each running its own function over many tiny compute/exchange
/// rounds, with one hot message tag shared by every phase. A query
/// constrained to one phase's function AND the Message sync objects is the
/// interval index's worst case (scalar walk over every Message posting
/// with a per-interval function check) while the block summaries prove 7/8
/// of the blocks function-free and skip them outright.
const simmpi::ExecutionTrace& blockskip_trace() {
  static simmpi::ExecutionTrace trace = [] {
    constexpr int kPhases = 8;
    constexpr int kRoundsPerPhase = 1500;
    simmpi::MachineSpec m = simmpi::MachineSpec::one_to_one(4, "node", "proc");
    simmpi::ProgramBuilder b(m);
    b.record([&](simmpi::Recorder& r) {
      simmpi::FunctionScope fmain(r, "main", "main.c");
      for (int ph = 0; ph < kPhases; ++ph) {
        simmpi::FunctionScope scope(r, "phase" + std::to_string(ph), "phases.c");
        for (int round = 0; round < kRoundsPerPhase; ++round) {
          // Senders compute twice as long as receivers, so every recv
          // genuinely blocks and the Message posting lists carry real
          // SyncWait time for the interval index to walk.
          r.compute(r.rank() % 2 == 0 ? 0.002 : 0.001);
          if (r.rank() % 2 == 0 && r.rank() + 1 < r.size())
            r.send(r.rank() + 1, /*tag=*/1, 1 << 10);
          else if (r.rank() % 2 == 1)
            r.recv(r.rank() - 1, /*tag=*/1);
        }
      }
    });
    return simmpi::Simulator().run(b.build());
  }();
  return trace;
}

const metrics::TraceView& blockskip_view() {
  static metrics::TraceView view(blockskip_trace());
  return view;
}

/// Phase-0 sync waits: the block-skip target query described above.
const metrics::FocusFilter& blockskip_filter() {
  const auto& view = blockskip_view();
  return view.compiled(resources::Focus::whole_program(view.resources())
                           .with_part(0, "/Code/phases.c/phase0")
                           .with_part(3, "/SyncObject/Message"));
}

void BM_BlockMaxPhaseQuery(benchmark::State& state) {
  const auto& view = blockskip_view();
  const auto& filter = blockskip_filter();
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.query_blocks(metrics::MetricKind::SyncWaitTime, filter,
                                               0.0, view.trace().duration));
  }
}
BENCHMARK(BM_BlockMaxPhaseQuery);

void BM_BlockMaxPhaseQueryIndexedOracle(benchmark::State& state) {
  // The same query through the interval index; the ratio to the benchmark
  // above is the block-skipping speedup.
  const auto& view = blockskip_view();
  const auto& filter = blockskip_filter();
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.query(metrics::MetricKind::SyncWaitTime, filter, 0.0,
                                        view.trace().duration));
  }
}
BENCHMARK(BM_BlockMaxPhaseQueryIndexedOracle);

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
  const auto& view = shared_view();
  const pc::HypothesisSet hyps = pc::HypothesisSet::standard();
  const auto whole = resources::Focus::whole_program(view.resources());
  const auto children = whole.refinements(view.resources());
  for (auto _ : state) {
    pc::SearchHistoryGraph shg(hyps);
    for (int hyp = 0; hyp < 3; ++hyp) {
      int parent = shg.add_node(hyp, whole, shg.root(), 0.0);
      for (const auto& child : children) shg.add_node(hyp, child, parent, 1.0);
      // Second pass: every add is a dedup hit.
      for (const auto& child : children) shg.add_node(hyp, child, parent, 2.0);
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

/// A synthetic harvested directive set of `n` directives in the shape the
/// generator emits: subtree prunes (some wildcard-hypothesis), false-pair
/// prunes, priorities, and per-hypothesis thresholds.
pc::DirectiveSet synthetic_directives(int n) {
  pc::DirectiveSet set;
  for (int i = 0; i < n; ++i) {
    const std::string hyp = "Hypothesis" + std::to_string(i % 16);
    const std::string module = "/Code/mod" + std::to_string(i) + ".f";
    const std::string focus = "<" + module + ",/Machine,/Process,/SyncObject>";
    switch (i % 4) {
      case 0:
        set.prunes.push_back({i % 8 == 0 ? std::string(pc::kAnyHypothesis) : hyp, module});
        break;
      case 1: set.pair_prunes.push_back({hyp, focus}); break;
      case 2:
        set.priorities.push_back(
            {hyp, focus, i % 8 == 0 ? pc::Priority::High : pc::Priority::Low});
        break;
      case 3: set.thresholds.push_back({hyp, 0.05 + 0.001 * (i % 100)}); break;
    }
  }
  return set;
}

struct DirectiveLookupQuery {
  std::string hypothesis;
  resources::Focus focus;
  std::string focus_name;
};

/// 64 queries mixing prune/priority hits and misses against
/// synthetic_directives(n).
std::vector<DirectiveLookupQuery> synthetic_lookup_queries(int n) {
  const auto& view = shared_view();
  const auto whole = resources::Focus::whole_program(view.resources());
  std::vector<DirectiveLookupQuery> out;
  for (int i = 0; i < 64; ++i) {
    // Even queries land inside the directive module range (hits), odd ones
    // name modules past it (misses — the consultant's common case).
    const int m = i % 2 == 0 ? (i * 7) % std::max(n, 1) : n + i;
    auto focus = whole.with_part(0, "/Code/mod" + std::to_string(m) + ".f/solve");
    std::string name = focus.name();
    out.push_back({"Hypothesis" + std::to_string(i % 16), std::move(focus), std::move(name)});
  }
  return out;
}

void BM_DirectiveLookupScan(benchmark::State& state) {
  // The retained oracle: per-candidate linear scans over the directives.
  const int n = static_cast<int>(state.range(0));
  const pc::DirectiveSet set = synthetic_directives(n);
  const auto queries = synthetic_lookup_queries(n);
  std::size_t qi = 0;
  for (auto _ : state) {
    const DirectiveLookupQuery& q = queries[qi];
    qi = (qi + 1) % queries.size();
    benchmark::DoNotOptimize(set.prune_match(q.hypothesis, q.focus));
    benchmark::DoNotOptimize(set.priority_of(q.hypothesis, q.focus_name));
    benchmark::DoNotOptimize(set.threshold_for(q.hypothesis));
  }
  state.counters["directives"] = static_cast<double>(n);
}
BENCHMARK(BM_DirectiveLookupScan)->Arg(128)->Arg(1024)->Arg(4096);

void BM_DirectiveLookupIndexed(benchmark::State& state) {
  // Same queries through the DirectiveIndex, built once outside the loop
  // exactly as the consultant builds it after apply_mappings().
  const int n = static_cast<int>(state.range(0));
  const pc::DirectiveSet set = synthetic_directives(n);
  const pc::DirectiveIndex index(set);
  const auto queries = synthetic_lookup_queries(n);
  std::size_t qi = 0;
  for (auto _ : state) {
    const DirectiveLookupQuery& q = queries[qi];
    qi = (qi + 1) % queries.size();
    benchmark::DoNotOptimize(index.prune_match(q.hypothesis, q.focus));
    benchmark::DoNotOptimize(index.priority_of(q.hypothesis, q.focus_name));
    benchmark::DoNotOptimize(index.threshold_for(q.hypothesis));
  }
  state.counters["directives"] = static_cast<double>(n);
}
BENCHMARK(BM_DirectiveLookupIndexed)->Arg(128)->Arg(1024)->Arg(4096);

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

void BM_FullDiagnosisScanEval(benchmark::State& state) {
  // Same search with the reference per-instance scan engine.
  const auto& view = shared_view();
  pc::PcConfig config;
  config.batched_eval = false;
  for (auto _ : state) {
    pc::PerformanceConsultant consultant(view, config);
    benchmark::DoNotOptimize(consultant.run());
  }
}
BENCHMARK(BM_FullDiagnosisScanEval);

void BM_FullDiagnosisStringFoci(benchmark::State& state) {
  // Same search on the retained string-based focus path (the oracle mode
  // the interned search is property-tested against).
  const auto& view = shared_view();
  pc::PcConfig config;
  config.interned_foci = false;
  for (auto _ : state) {
    pc::PerformanceConsultant consultant(view, config);
    benchmark::DoNotOptimize(consultant.run());
  }
}
BENCHMARK(BM_FullDiagnosisStringFoci);

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
  const auto record = session.make_record(base, "C");
  std::vector<history::GeneratorOptions> variants(5);
  variants[0].priorities = false;
  variants[0].false_pair_prunes = true;
  variants[1].priorities = false;
  variants[1].historic_prunes = false;
  variants[2].priorities = false;
  variants[2].general_prunes = false;
  variants[2].false_pair_prunes = true;
  variants[3].general_prunes = false;
  variants[3].historic_prunes = false;
  // variants[4]: generator defaults (priorities plus all prunes).
  for (const auto& options : variants) {
    const auto directives = history::DirectiveGenerator(options).from_record(record);
    benchmark::DoNotOptimize(session.diagnose(directives));
  }
  return seconds_since(start);
}

void write_bench_metrics(bool quick) {
  const double budget = quick ? 0.005 : 0.05;
  const auto& view = shared_view();
  const auto& filter =
      view.compiled(resources::Focus::whole_program(view.resources()));
  const double duration = view.trace().duration;
  const auto metric = metrics::MetricKind::SyncWaitTime;

  // Per-section latency distributions land here and the whole registry is
  // appended to perf-log/micro_core.jsonl at the end, so `histpc
  // perf-diff` can compare this run against earlier ones.
  telemetry::Registry reg;

  const double indexed_ns = time_ns_per_call_sampled(
      reg, "bench.metric_query",
      [&] { benchmark::DoNotOptimize(view.query(metric, filter, 0.0, duration)); }, budget);
  const double scan_ns = time_ns_per_call(
      [&] { benchmark::DoNotOptimize(view.query_scan(metric, filter, 0.0, duration)); },
      budget);
  const double table1_s = table1_end_to_end_seconds();
  reg.add_seconds("bench.table1_end_to_end", table1_s);

  util::Json out = util::Json::object();
  util::Json query = util::Json::object();
  query["indexed_ns_per_query"] = indexed_ns;
  query["scan_ns_per_query"] = scan_ns;
  query["speedup_vs_scan"] = scan_ns > 0 ? scan_ns / indexed_ns : 0.0;
  query["queries_per_second"] = indexed_ns > 0 ? 1e9 / indexed_ns : 0.0;
  {
    const telemetry::Histogram* h = reg.histogram("bench.metric_query");
    query["p50_ns_per_query"] = h ? h->quantile(0.5) * 1e9 : 0.0;
    query["p99_ns_per_query"] = h ? h->quantile(0.99) * 1e9 : 0.0;
  }
  out["metric_query"] = std::move(query);
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

  // Block-max engine on the large phase-clustered trace: the sync+func
  // constrained query where the interval index degrades to a scalar
  // posting walk. Reports ns/query for all three evaluation tiers, the
  // fraction of interior blocks the summaries skipped, and the SIMD lane
  // width the kernels dispatched to.
  double blockskip_block_ns = 0.0, blockskip_indexed_ns = 0.0, blockskip_ratio = 0.0;
  {
    const auto& bview = blockskip_view();
    const auto& bfilter = blockskip_filter();
    const double bdur = bview.trace().duration;
    const auto bmetric = metrics::MetricKind::SyncWaitTime;

    const auto stats_before = bview.blocks().stats();
    const double probe = bview.query_blocks(bmetric, bfilter, 0.0, bdur);
    const auto stats_after = bview.blocks().stats();
    const double visited =
        static_cast<double>(stats_after.blocks_visited - stats_before.blocks_visited);
    const double skipped =
        static_cast<double>(stats_after.blocks_skipped - stats_before.blocks_skipped);

    const double block_ns = time_ns_per_call_sampled(
        reg, "bench.block_skip",
        [&] { benchmark::DoNotOptimize(bview.query_blocks(bmetric, bfilter, 0.0, bdur)); },
        budget);
    const double bindexed_ns = time_ns_per_call(
        [&] { benchmark::DoNotOptimize(bview.query(bmetric, bfilter, 0.0, bdur)); },
        budget);
    const double bscan_ns = time_ns_per_call(
        [&] { benchmark::DoNotOptimize(bview.query_scan(bmetric, bfilter, 0.0, bdur)); },
        budget);

    const util::CpuFeatures& cpu = util::cpu_features();
    const double lanes = cpu.selected == util::SimdLevel::Avx2
                             ? 4.0
                             : (cpu.selected == util::SimdLevel::Sse42 ? 2.0 : 1.0);

    util::Json bs = util::Json::object();
    bs["intervals"] = static_cast<double>(bview.trace().total_intervals());
    bs["block_size"] = static_cast<double>(bview.blocks().block_size());
    bs["simd_level"] = std::string(util::simd_level_name(cpu.selected));
    bs["simd_lane_width"] = lanes;
    bs["query_value"] = probe;
    bs["block_ns_per_query"] = block_ns;
    bs["indexed_ns_per_query"] = bindexed_ns;
    bs["scan_ns_per_query"] = bscan_ns;
    bs["speedup_vs_indexed"] = block_ns > 0 ? bindexed_ns / block_ns : 0.0;
    bs["speedup_vs_scan"] = block_ns > 0 ? bscan_ns / block_ns : 0.0;
    bs["blocks_skipped_ratio"] = visited > 0 ? skipped / visited : 0.0;
    {
      const telemetry::Histogram* h = reg.histogram("bench.block_skip");
      bs["p50_ns_per_query"] = h ? h->quantile(0.5) * 1e9 : 0.0;
      bs["p99_ns_per_query"] = h ? h->quantile(0.99) * 1e9 : 0.0;
    }
    out["block_skip"] = std::move(bs);
    blockskip_block_ns = block_ns;
    blockskip_indexed_ns = bindexed_ns;
    blockskip_ratio = visited > 0 ? skipped / visited : 0.0;
  }

  // Directive lookup: scan oracle vs DirectiveIndex on a harvested-scale
  // set (the acceptance bar is >=10x at >=1000 directives).
  const int n_directives = 1024;
  const pc::DirectiveSet dir_set = synthetic_directives(n_directives);
  const pc::DirectiveIndex dir_index(dir_set);
  const auto dir_queries = synthetic_lookup_queries(n_directives);
  std::size_t dir_qi = 0;
  auto next_query = [&]() -> const DirectiveLookupQuery& {
    const DirectiveLookupQuery& q = dir_queries[dir_qi];
    dir_qi = (dir_qi + 1) % dir_queries.size();
    return q;
  };
  const double dir_scan_ns = time_ns_per_call([&] {
    const DirectiveLookupQuery& q = next_query();
    benchmark::DoNotOptimize(dir_set.prune_match(q.hypothesis, q.focus));
    benchmark::DoNotOptimize(dir_set.priority_of(q.hypothesis, q.focus_name));
    benchmark::DoNotOptimize(dir_set.threshold_for(q.hypothesis));
  });
  const double dir_indexed_ns = time_ns_per_call([&] {
    const DirectiveLookupQuery& q = next_query();
    benchmark::DoNotOptimize(dir_index.prune_match(q.hypothesis, q.focus));
    benchmark::DoNotOptimize(dir_index.priority_of(q.hypothesis, q.focus_name));
    benchmark::DoNotOptimize(dir_index.threshold_for(q.hypothesis));
  });
  util::Json lookup = util::Json::object();
  lookup["directives"] = static_cast<double>(n_directives);
  lookup["scan_ns_per_lookup"] = dir_scan_ns;
  lookup["indexed_ns_per_lookup"] = dir_indexed_ns;
  lookup["speedup_vs_scan"] = dir_indexed_ns > 0 ? dir_scan_ns / dir_indexed_ns : 0.0;
  out["directive_lookup"] = std::move(lookup);

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
    // from_records, the pairwise combine fold, and weighted aggregation,
    // all over the newest 16 runs.
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
      const double fold_ns = time_ns_per_call(
          [&] {
            pc::DirectiveSet acc = sets.front();
            for (std::size_t i = 1; i < sets.size(); ++i)
              acc = history::combine(acc, sets[i], history::CombineMode::Intersection);
            benchmark::DoNotOptimize(acc);
          },
          budget);
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
      dg["pairwise_fold_ns_per_gen"] = fold_ns;
      dg["nrun_combine_ns_per_gen"] = nrun_ns;
      dg["weighted_ns_per_gen"] = weighted_ns;
      dg["speedup_vs_pairwise_fold"] = nrun_ns > 0 ? fold_ns / nrun_ns : 0.0;
      out["directive_gen_nruns"] = std::move(dg);
    }
    fs::remove_all(root);
  }

  // Trace snapshots: cold simulate vs binary encode/decode vs warm cache
  // load, plus sizes vs the JSON oracle. The cache directory lives in the
  // working directory so it persists across processes — CI runs micro_core
  // twice and asserts the second run's cache_hits (counted from the one
  // initial load, before the timing loops) went up.
  double snapshot_simulate_ns = 0.0, snapshot_load_ns = 0.0;
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
    {
      simmpi::TraceColumns cols;
      if (!cache.load(key, &cols)) cache.store(key, trace);
    }
    const double cache_hits = static_cast<double>(cache_reg.counter("trace_cache.hit"));
    const double cache_misses = static_cast<double>(cache_reg.counter("trace_cache.miss"));

    const std::string bytes = simmpi::encode_trace_snapshot(trace);
    const double encode_ns = time_ns_per_call(
        [&] { benchmark::DoNotOptimize(simmpi::encode_trace_snapshot(trace)); }, budget);
    const double warm_load_ns = time_ns_per_call(
        [&] {
          simmpi::TraceColumns cols;
          benchmark::DoNotOptimize(cache.load(key, &cols));
        },
        budget);
    const std::size_t json_bytes = simmpi::trace_to_json(trace).dump().size();

    util::Json snap = util::Json::object();
    snap["intervals"] = static_cast<double>(trace.total_intervals());
    snap["cold_simulate_ns"] = cold_simulate_ns;
    snap["encode_ns"] = encode_ns;
    snap["warm_load_ns"] = warm_load_ns;
    snap["speedup_vs_simulate"] = warm_load_ns > 0 ? cold_simulate_ns / warm_load_ns : 0.0;
    snap["binary_bytes"] = static_cast<double>(bytes.size());
    snap["json_bytes"] = static_cast<double>(json_bytes);
    snap["json_bytes_vs_binary"] =
        bytes.size() > 0 ? static_cast<double>(json_bytes) / static_cast<double>(bytes.size())
                         : 0.0;
    snap["cache_hits"] = cache_hits;
    snap["cache_misses"] = cache_misses;
    out["trace_snapshot"] = std::move(snap);
    snapshot_simulate_ns = cold_simulate_ns;
    snapshot_load_ns = warm_load_ns;
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
  std::printf("wrote %s: metric query %.0f ns indexed / %.0f ns scan (%.1fx), "
              "block skip %.0f ns block-max / %.0f ns indexed (%.1fx, %.0f%% skipped), "
              "directive lookup %.0f ns indexed / %.0f ns scan (%.1fx @ %d directives), "
              "focus ops %.0f ns string / %.0f ns interned (%.1fx), "
              "variants %.3f s sequential / %.3f s on %d workers, "
              "trace snapshot %.2f ms simulate / %.2f ms warm load (%.0fx), "
              "table1 workload %.3f s\n",
              bench::kBenchMetricsPath, indexed_ns, scan_ns,
              scan_ns > 0 ? scan_ns / indexed_ns : 0.0, blockskip_block_ns,
              blockskip_indexed_ns,
              blockskip_block_ns > 0 ? blockskip_indexed_ns / blockskip_block_ns : 0.0,
              blockskip_ratio * 100.0, dir_indexed_ns, dir_scan_ns,
              dir_indexed_ns > 0 ? dir_scan_ns / dir_indexed_ns : 0.0, n_directives,
              intern_string_ns, intern_id_ns,
              intern_id_ns > 0 ? intern_string_ns / intern_id_ns : 0.0, variants_seq_s,
              variants_par_s, variants_threads, snapshot_simulate_ns / 1e6,
              snapshot_load_ns / 1e6,
              snapshot_load_ns > 0 ? snapshot_simulate_ns / snapshot_load_ns : 0.0,
              table1_s);
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
