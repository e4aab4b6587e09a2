#include "cli/commands.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "apps/workload_spec.h"
#include "cli/args.h"
#include "core/session.h"
#include "core/variant_runner.h"
#include "history/combiner.h"
#include "history/compare.h"
#include "history/execution_map.h"
#include "history/generator.h"
#include "history/mapper.h"
#include "history/postmortem.h"
#include "history/report.h"
#include "history/similarity.h"
#include "history/store.h"
#include "serve/http.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "simmpi/trace_io.h"
#include "telemetry/event.h"
#include "telemetry/perf_diff.h"
#include "telemetry/perf_record.h"
#include "telemetry/tracer.h"
#include "util/strings.h"
#include "util/table.h"

namespace histpc::cli {

namespace {

using history::ExperimentRecord;
using history::ExperimentStore;

ExperimentRecord load_or_throw(const ExperimentStore& store, const std::string& run_id) {
  auto rec = store.load(run_id);
  if (!rec)
    throw ArgsError("no record '" + run_id + "' in store " + store.directory());
  return std::move(*rec);
}

void print_result_summary(std::ostream& out, const pc::DiagnosisResult& result) {
  out << "pairs tested:     " << result.stats.pairs_tested << "\n"
      << "bottlenecks:      " << result.stats.bottlenecks << "\n"
      << "pruned candidates:" << " " << result.stats.pruned_candidates << "\n"
      << "search ended at:  " << util::fmt_double(result.stats.end_time, 1) << "s\n"
      << "last true found:  " << util::fmt_double(result.stats.last_true_time, 1) << "s\n"
      << "peak instr. cost: " << util::fmt_percent(result.stats.peak_cost, 1) << "\n"
      << "avg instr. cost:  " << util::fmt_percent(result.telemetry.avg_cost, 1) << "\n";
  if (!result.bottlenecks.empty()) {
    out << "\nbottlenecks (discovery order):\n";
    for (const auto& b : result.bottlenecks)
      out << "  " << util::fmt_double(b.t_found, 1) << "s  "
          << util::fmt_percent(b.fraction, 1) << "  " << b.hypothesis << " : " << b.focus
          << "\n";
  }
}

int cmd_apps(const Args&, std::ostream& out) {
  for (const auto& name : apps::app_names()) out << name << "\n";
  return 0;
}

/// The --trace-format option, defaulting to jsonl.
telemetry::TraceFormat parse_trace_format(const Args& args) {
  const std::string name = args.option_or("trace-format", std::string("jsonl"));
  auto fmt = telemetry::trace_format_from_name(name);
  if (!fmt) throw ArgsError("--trace-format expects 'jsonl' or 'chrome'");
  return *fmt;
}

/// Build the trace for `run`/`report`: a registered app by name, or a
/// JSON workload via --workload. `tracer`, when given, records the
/// simulation phase of a --workload run.
simmpi::ExecutionTrace make_trace(const Args& args, std::string& name_out,
                                  double default_duration,
                                  telemetry::Tracer* tracer = nullptr) {
  if (auto workload = args.option("workload")) {
    apps::Workload w = apps::load_workload(*workload);
    name_out = w.name;
    return simmpi::Simulator(w.network).run(w.program, tracer);
  }
  name_out = args.positional(0, "application name (or --workload FILE)");
  apps::AppParams params;
  params.target_duration = args.option_or("duration", default_duration);
  params.node_base = args.option_or("node-base", 1);
  return apps::run_app(name_out, params);
}

/// Build the session for `run`/`variants`. Registered-app runs go through
/// the trace-snapshot cache (on by default; --no-trace-cache opts out,
/// --trace-cache DIR relocates it) so repeated diagnoses of one app
/// configuration reload the trace instead of re-simulating. Workload runs
/// keep the direct simulate path (and the optional simulation tracer).
std::unique_ptr<core::DiagnosisSession> make_session(const Args& args, pc::PcConfig config,
                                                     double default_duration,
                                                     telemetry::Tracer* tracer = nullptr) {
  if (!args.option("workload") && !args.has_flag("no-trace-cache")) {
    const std::string app = args.positional(0, "application name (or --workload FILE)");
    apps::AppParams params;
    params.target_duration = args.option_or("duration", default_duration);
    params.node_base = args.option_or("node-base", 1);
    config.trace_cache_dir = args.option_or("trace-cache", std::string(kDefaultTraceCacheDir));
    return std::make_unique<core::DiagnosisSession>(app, params, std::move(config));
  }
  std::string app;
  simmpi::ExecutionTrace trace = make_trace(args, app, default_duration, tracer);
  return std::make_unique<core::DiagnosisSession>(std::move(trace), std::move(config), app);
}

/// One status line for cache-enabled sessions: hit or miss, and where.
void print_cache_status(std::ostream& out, const core::DiagnosisSession& session) {
  const std::string& dir = session.config().trace_cache_dir;
  if (dir.empty()) return;
  const bool hit = session.registry().counter("trace_cache.hit") > 0;
  out << "trace cache: " << (hit ? "hit" : "miss") << " (" << dir << ")\n";
}

int cmd_report(const Args& args, std::ostream& out) {
  std::string app;
  const simmpi::ExecutionTrace trace = make_trace(args, app, 300.0);
  out << trace.summary();
  const metrics::TraceView view(trace);
  const auto whole = resources::Focus::whole_program(view.resources());
  out << "\nwhole-program fractions: cpu "
      << util::fmt_percent(
             view.fraction(metrics::MetricKind::CpuTime, whole, 0, trace.duration))
      << ", sync "
      << util::fmt_percent(
             view.fraction(metrics::MetricKind::SyncWaitTime, whole, 0, trace.duration))
      << ", io "
      << util::fmt_percent(
             view.fraction(metrics::MetricKind::IoWaitTime, whole, 0, trace.duration))
      << "\n";

  // Optional time histogram (Paradyn's phase view): one digit per bin,
  // 0 = idle for that metric, 9 = >=90% of execution.
  const int bins = args.option_or("bins", 0);
  if (bins > 0) {
    out << "\ntime histogram (" << bins << " bins over "
        << util::fmt_double(trace.duration, 1) << "s):\n";
    for (auto [metric, label] : {std::pair{metrics::MetricKind::CpuTime, "cpu "},
                                 {metrics::MetricKind::SyncWaitTime, "sync"},
                                 {metrics::MetricKind::IoWaitTime, "io  "}}) {
      const auto series = view.fraction_series(metric, whole, 0, trace.duration,
                                               static_cast<std::size_t>(bins));
      out << "  " << label << " ";
      for (double v : series)
        out << static_cast<char>('0' + std::clamp(static_cast<int>(v * 10), 0, 9));
      out << "\n";
    }
  }
  return 0;
}

int cmd_run(const Args& args, std::ostream& out) {
  pc::PcConfig config;
  if (args.has_flag("extended")) config.hypotheses = pc::HypothesisSet::standard_extended();
  config.threshold_override = args.option_or("threshold", -1.0);
  config.cost_limit = args.option_or("cost-limit", config.cost_limit);
  config.respect_discovery_times = args.has_flag("discovery");

  pc::DirectiveSet directives;
  if (auto file = args.option("directives")) directives = pc::DirectiveSet::load(*file);

  const auto trace_path = args.option("trace");
  const telemetry::TraceFormat trace_format = parse_trace_format(args);
  telemetry::VectorSink event_sink;
  telemetry::Tracer sim_tracer(&event_sink);
  if (trace_path) config.trace_sink = &event_sink;

  auto session_ptr = make_session(args, config, 1500.0, trace_path ? &sim_tracer : nullptr);
  core::DiagnosisSession& session = *session_ptr;
  out << "running " << session.app_name() << " (" << session.trace().num_ranks()
      << " ranks, " << util::fmt_double(session.trace().duration, 1) << "s)\n";
  print_cache_status(out, session);

  pc::DiagnosisResult result;
  if (args.has_flag("postmortem")) {
    history::PostmortemOptions opts;
    opts.hypotheses = config.hypotheses;
    opts.threshold_override = config.threshold_override;
    result = history::postmortem_diagnose(session.view(), opts);
    out << "(postmortem evaluation over the complete execution)\n";
  } else {
    result = session.diagnose(directives);
    if (args.has_flag("shg")) out << "\n" << session.last_shg() << "\n";
    if (auto dot = args.option("dot")) {
      // Re-run is avoided: the session retains the last SHG only as text;
      // produce DOT from a dedicated consultant run for exact structure.
      pc::PcConfig dot_config = config;
      dot_config.trace_sink = nullptr;  // don't record the re-run twice
      pc::PerformanceConsultant consultant(session.view(), dot_config, directives);
      consultant.run();
      util::write_file(*dot, consultant.shg().to_dot());
      out << "wrote " << *dot << "\n";
    }
  }
  print_result_summary(out, result);

  if (trace_path) {
    telemetry::save_trace_file(*trace_path, event_sink.events(), trace_format);
    out << "\nwrote " << event_sink.size() << " telemetry events to " << *trace_path
        << "\n";
  }
  if (auto trace_file = args.option("save-trace")) {
    simmpi::save_trace(session.trace(), *trace_file);
    out << "\nwrote trace to " << *trace_file << "\n";
  }
  const std::string version = args.option_or("version", std::string("1"));
  if (auto store_dir = args.option("store")) {
    ExperimentStore store(*store_dir);
    ExperimentRecord record = session.make_record(result, version);
    record.scenario = args.option_or("scenario", std::string());
    const std::string run_id = store.save(std::move(record));
    out << "\nstored experiment record '" << run_id << "' in " << *store_dir << "\n";
  }
  // Self-diagnosis telemetry: every stored run also appends this run's
  // PerfRecord to the store's perf log (histpc's own historical
  // performance data); --perf-log FILE redirects it elsewhere.
  std::optional<std::string> perf_path = args.option("perf-log");
  if (!perf_path) {
    if (auto store_dir = args.option("store"))
      perf_path = telemetry::PerfLog::path_in_store(*store_dir, session.app_name());
  }
  if (perf_path) {
    telemetry::PerfLog log(*perf_path);
    log.append(session.make_perf_record(version));
    out << "appended perf record to " << log.path() << "\n";
  }
  return 0;
}

int cmd_variants(const Args& args, std::ostream& out) {
  pc::PcConfig config;
  config.threshold_override = args.option_or("threshold", -1.0);
  if (args.has_flag("string-foci")) config.interned_foci = false;

  auto session_ptr = make_session(args, config, 1500.0);
  core::DiagnosisSession& session = *session_ptr;
  out << "running " << session.app_name() << " (" << session.trace().num_ranks()
      << " ranks, " << util::fmt_double(session.trace().duration, 1) << "s)\n";
  print_cache_status(out, session);

  // The base (undirected) diagnosis supplies the record every directed
  // variant harvests its directives from.
  const pc::DiagnosisResult base = session.diagnose();
  const auto record = session.make_record(base, args.option_or("version", std::string("1")));

  const auto variants = core::table1_variants(record, config);
  const core::VariantRunReport report =
      core::run_variants(session.view(), variants, args.option_or("threads", 0));

  util::TablePrinter table({"variant", "pairs", "bottlenecks", "last true", "wall ms"});
  for (const auto& o : report.outcomes)
    table.add_row({o.name, std::to_string(o.result.stats.pairs_tested),
                   std::to_string(o.result.stats.bottlenecks),
                   util::fmt_double(o.result.stats.last_true_time, 1) + "s",
                   util::fmt_double(o.wall_seconds * 1e3, 1)});
  table.print(out);
  out << "\n" << report.threads << " worker thread(s), bundle wall "
      << util::fmt_double(report.wall_seconds * 1e3, 1) << "ms\ncombined: "
      << report.combined.pairs_tested << " pairs tested, " << report.combined.conclusions_true
      << " true / " << report.combined.conclusions_false << " false conclusions, "
      << report.combined.prune_hits_subtree + report.combined.prune_hits_pair
      << " prune hits\n";
  return 0;
}

int cmd_list(const Args& args, std::ostream& out) {
  ExperimentStore store(args.option_or("store", std::string(kDefaultStoreDir)));
  history::StoreQuery query;
  query.app = args.option_or("app", std::string());
  query.version = args.option_or("version", std::string());
  query.machine = args.option_or("machine", std::string());
  query.scenario = args.option_or("scenario", std::string());
  // Rendered from the index: no record files are opened, so listing stays
  // O(index) at thousands of stored runs. Unreadable files drop out of the
  // listing with a warning during the index heal pass; `show <id>` stays
  // strict.
  util::TablePrinter table(
      {"run id", "app", "version", "machine", "scenario", "ranks", "duration",
       "bottlenecks"});
  for (const history::IndexEntry& e : store.summaries(query))
    table.add_row({e.run_id, e.app, e.version, e.machine, e.scenario,
                   std::to_string(e.nranks), util::fmt_double(e.duration, 1) + "s",
                   std::to_string(e.bottlenecks)});
  if (table.num_rows() == 0) {
    out << "(no records)\n";
  } else {
    table.print(out);
  }
  return 0;
}

int cmd_migrate(const Args& args, std::ostream& out) {
  ExperimentStore store(args.option_or("store", std::string(kDefaultStoreDir)));
  // --jobs N parallelizes the parse/encode work on a thread pool (0 = all
  // hardware threads). The summary below is identical for every N — the
  // store folds the results in sorted order regardless of which worker
  // finished first.
  const int jobs = args.option_or("jobs", 1);
  if (jobs < 0)
    throw ArgsError("option --jobs expects a non-negative integer (0 = all hardware threads)");
  const std::size_t migrated = store.migrate_all(jobs);
  out << "migrated " << migrated << " legacy JSON record(s) to binary in "
      << store.directory() << "\n";
  return 0;
}

// ------------------------------------------------------- serve / bench-client

int cmd_serve(const Args& args, std::ostream& out) {
  serve::ServeConfig cfg;
  cfg.host = args.option_or("host", cfg.host);
  cfg.port = args.option_or("port", 7777);
  cfg.threads = args.option_or("threads", cfg.threads);
  cfg.queue_depth = args.option_or("queue-depth", cfg.queue_depth);
  if (cfg.threads < 0) throw ArgsError("option --threads expects a non-negative integer");
  if (cfg.queue_depth < 1) throw ArgsError("option --queue-depth expects a positive integer");
  cfg.store_dir = args.option_or("store", std::string(kDefaultStoreDir));
  cfg.trace_cache_dir = args.option_or("trace-cache", std::string(kDefaultTraceCacheDir));
  if (args.has_flag("no-trace-cache")) cfg.trace_cache_dir.clear();
  const int max_body_kb = args.option_or("max-body-kb", 1024);
  if (max_body_kb < 1) throw ArgsError("option --max-body-kb expects a positive integer");
  cfg.max_body_bytes = static_cast<std::size_t>(max_body_kb) * 1024;
  cfg.result_cache = !args.has_flag("no-result-cache");
  cfg.perf_log = !args.has_flag("no-perf-log");
  if (auto log = args.option("perf-log")) cfg.perf_log_path = *log;

  serve::DiagnosisServer server(std::move(cfg));
  server.start();
  out << "histpc serve listening on http://" << server.config().host << ":" << server.port()
      << "\n  store " << server.config().store_dir << ", "
      << util::ThreadPool::resolve(server.config().threads) << " worker thread(s), queue depth "
      << server.config().queue_depth << "\n  endpoints: POST /diagnose /list /perf-report "
      << "/shutdown, GET /healthz /stats\n";
  out.flush();
  server.wait();  // returns on POST /shutdown
  server.stop();
  const serve::ServeStats s = server.stats();
  out << "shut down after " << s.served << " request(s) served, " << s.shed << " shed, "
      << s.result_cache_hits << " result-cache hit(s)\n";
  return 0;
}

int cmd_bench_client(const Args& args, std::ostream& out) {
  serve::LoadGenOptions opt;
  opt.host = args.option_or("host", opt.host);
  opt.port = args.option_or("port", 7777);
  opt.rps = args.option_or("rps", 20.0);
  opt.duration_seconds = args.option_or("duration", 2.0);
  opt.connections = args.option_or("connections", 4);
  opt.seed = static_cast<std::uint64_t>(args.option_or("seed", 1));
  if (opt.rps <= 0.0) throw ArgsError("option --rps expects a positive number");
  if (opt.duration_seconds <= 0.0) throw ArgsError("option --duration expects a positive number");
  if (opt.connections < 1) throw ArgsError("option --connections expects a positive integer");

  util::Json body = util::Json::object();
  body["app"] = args.option_or("app", std::string("poisson_a"));
  body["duration"] = args.option_or("app-duration", 1500.0);
  if (args.has_flag("no-result-cache")) body["no_result_cache"] = true;
  if (const double deadline = args.option_or("deadline-ms", 0.0); deadline > 0.0)
    body["deadline_ms"] = deadline;
  opt.body = body.dump();

  // Readiness: the server may still be binding (CI starts it in the
  // background); retry /healthz briefly before declaring it unreachable.
  const double connect_wait = args.option_or("connect-wait", 10.0);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(connect_wait);
  bool ready = false;
  while (!ready && std::chrono::steady_clock::now() < give_up) {
    if (auto health = serve::http_get(opt.host, opt.port, "/healthz", 2.0);
        health && health->status == 200) {
      ready = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  if (!ready) {
    out << "no server reachable at " << opt.host << ":" << opt.port << " within "
        << util::fmt_double(connect_wait, 1) << "s\n";
    return 1;
  }

  out << "driving " << opt.host << ":" << opt.port << " at " << util::fmt_double(opt.rps, 1)
      << " req/s for " << util::fmt_double(opt.duration_seconds, 1) << "s ("
      << opt.connections << " connection(s), open-loop Poisson arrivals)\n";
  const serve::LoadPoint point = serve::run_load(opt);
  out << "sent " << point.sent << ": " << point.ok << " ok, " << point.shed << " shed, "
      << point.errors << " error(s)\n"
      << "achieved " << util::fmt_double(point.achieved_rps, 1) << " req/s, p50 "
      << util::fmt_double(point.p50_ms, 2) << "ms, p99 " << util::fmt_double(point.p99_ms, 2)
      << "ms, shed rate " << util::fmt_percent(point.shed_rate, 1) << "\n";

  if (auto out_path = args.option("out")) {
    // Merge a serve_load section into the metrics file (read-modify-write,
    // same contract as the bench binaries' BENCH_metrics.json sections).
    util::Json root = util::Json::object();
    try {
      root = util::Json::parse(util::read_file(*out_path));
      if (!root.is_object()) root = util::Json::object();
    } catch (const std::exception&) {
      root = util::Json::object();
    }
    util::Json section = util::Json::object();
    section["source"] = "bench-client";
    section["app"] = body.at("app").as_string();
    util::Json points = util::Json::array();
    points.push_back(point.to_json());
    section["points"] = std::move(points);
    root["serve_load"] = std::move(section);
    util::write_file(*out_path, root.dump(2) + "\n");
    out << "wrote serve_load section to " << *out_path << "\n";
  }
  return point.errors > 0 ? 1 : 0;
}

int cmd_show(const Args& args, std::ostream& out) {
  ExperimentStore store(args.option_or("store", std::string(kDefaultStoreDir)));
  const ExperimentRecord rec = load_or_throw(store, args.positional(0, "run id"));
  if (args.has_flag("report")) {
    out << history::tuning_report(rec);
    return 0;
  }
  out << "run:        " << rec.run_id << "\n"
      << "app:        " << rec.app << " (version " << rec.version << ")\n"
      << "ranks:      " << rec.nranks << "\n"
      << "duration:   " << util::fmt_double(rec.duration, 1) << "s\n"
      << "threshold:  " << util::fmt_percent(rec.threshold_used, 0) << "\n"
      << "pairs:      " << rec.pairs_tested << "\n"
      << "machine<->process 1:1: " << (rec.machine_process_one_to_one ? "yes" : "no") << "\n"
      << "bottlenecks (" << rec.bottlenecks.size() << "):\n";
  for (const auto& b : rec.bottlenecks)
    out << "  " << util::fmt_percent(b.fraction, 1) << "  " << b.hypothesis << " : "
        << b.focus << "\n";
  return 0;
}

int cmd_harvest(const Args& args, std::ostream& out) {
  ExperimentStore store(args.option_or("store", std::string(kDefaultStoreDir)));
  std::vector<ExperimentRecord> records;
  for (const auto& id : args.positionals()) records.push_back(load_or_throw(store, id));
  if (auto ref_id = args.option("similar-to")) {
    // Auto-select the input runs: score every stored run of the same app
    // against the reference and keep the best few, oldest first. Explicit
    // positional ids can ride along (they come first, i.e. oldest).
    const ExperimentRecord reference = load_or_throw(store, *ref_id);
    std::vector<ExperimentRecord> candidates;
    for (const history::IndexEntry& e :
         store.summaries({reference.app, "", "", ""})) {
      if (e.run_id == reference.run_id) continue;
      if (auto rec = store.try_load(e.run_id)) candidates.push_back(std::move(*rec));
    }
    const int max_runs = args.option_or("max-runs", 8);
    if (max_runs < 1) throw ArgsError("option --max-runs expects a positive integer");
    const auto selected = history::select_similar_runs(
        candidates, reference, static_cast<std::size_t>(max_runs),
        args.option_or("min-similarity", 0.25));
    if (selected.empty() && records.empty())
      throw ArgsError("no stored runs similar to '" + *ref_id + "' in store " +
                      store.directory());
    for (const auto& s : selected) {
      out << "# similar run " << s.run_id << " (similarity "
          << util::fmt_double(s.similarity, 2) << ")\n";
      for (auto& rec : candidates)
        if (rec.run_id == s.run_id) records.push_back(std::move(rec));
    }
  }
  if (records.empty()) throw ArgsError("missing argument: run id(s)");

  history::GeneratorOptions opts;
  opts.priorities = !args.has_flag("no-priorities");
  opts.general_prunes = !args.has_flag("no-general-prunes");
  opts.historic_prunes = !args.has_flag("no-historic-prunes");
  opts.false_pair_prunes = args.has_flag("false-pair-prunes");
  opts.thresholds = args.has_flag("thresholds");
  const history::DirectiveGenerator generator(opts);

  pc::DirectiveSet directives;
  if (auto combine_mode = args.option("combine")) {
    if (*combine_mode == "weighted") {
      // Recency/frequency-weighted N-run aggregation: records are ordered
      // oldest → newest, and --half-life K halves a run's vote every K
      // runs of age.
      history::WeightedCombineOptions wopts;
      wopts.half_life_runs = args.option_or("half-life", wopts.half_life_runs);
      directives = generator.from_records_weighted(records, wopts);
    } else {
      // Combination semantics (paper §4.3) over all N runs: high in ALL
      // (intersect) or high in ANY (union) instead of pooling the records.
      history::CombineMode mode;
      if (*combine_mode == "intersect") mode = history::CombineMode::Intersection;
      else if (*combine_mode == "union") mode = history::CombineMode::Union;
      else throw ArgsError("--combine expects 'intersect', 'union' or 'weighted'");
      if (records.size() < 2) throw ArgsError("--combine needs at least two run ids");
      std::vector<pc::DirectiveSet> sets;
      sets.reserve(records.size());
      for (const auto& rec : records) sets.push_back(generator.from_record(rec));
      directives = history::combine_runs(sets, mode);
    }
  } else {
    directives = generator.from_records(records);
  }
  const std::string text = directives.serialize();
  if (auto file = args.option("out")) {
    util::write_file(*file, text);
    out << "wrote " << directives.prunes.size() << " prunes, "
        << directives.pair_prunes.size() << " pair prunes, "
        << directives.priorities.size() << " priorities, "
        << directives.thresholds.size() << " thresholds to " << *file << "\n";
  } else {
    out << text;
  }
  return 0;
}

int cmd_map(const Args& args, std::ostream& out) {
  ExperimentStore store(args.option_or("store", std::string(kDefaultStoreDir)));
  const ExperimentRecord from = load_or_throw(store, args.positional(0, "source run id"));
  const ExperimentRecord to = load_or_throw(store, args.positional(1, "target run id"));
  const auto maps = history::suggest_mappings(from.resources, to.resources);
  if (maps.empty()) {
    out << "# no mappings needed: the runs share their resource names\n";
  } else {
    for (const auto& m : maps) out << "map " << m.from << " " << m.to << "\n";
  }
  return 0;
}

int cmd_compare(const Args& args, std::ostream& out) {
  ExperimentStore store(args.option_or("store", std::string(kDefaultStoreDir)));
  const ExperimentRecord a = load_or_throw(store, args.positional(0, "first run id"));
  const ExperimentRecord b = load_or_throw(store, args.positional(1, "second run id"));
  std::vector<pc::MapDirective> maps;
  if (!args.has_flag("no-map")) maps = history::suggest_mappings(a.resources, b.resources);
  out << history::render_comparison(history::compare_records(a, b, maps), a.run_id,
                                    b.run_id);
  return 0;
}

int cmd_diff(const Args& args, std::ostream& out) {
  ExperimentStore store(args.option_or("store", std::string(kDefaultStoreDir)));
  const ExperimentRecord first = load_or_throw(store, args.positional(0, "first run id"));
  const ExperimentRecord second = load_or_throw(store, args.positional(1, "second run id"));
  const history::ExecutionMap map =
      history::build_execution_map(first.resources, second.resources);
  out << "execution map (1 = " << first.run_id << " only, 2 = " << second.run_id
      << " only, 3 = both):\n\n"
      << map.render();
  return 0;
}

int cmd_diagnose_trace(const Args& args, std::ostream& out) {
  const std::string path = args.positional(0, "trace file");
  pc::DirectiveSet directives;
  if (auto file = args.option("directives")) directives = pc::DirectiveSet::load(*file);

  const auto trace_path = args.option("trace");
  const telemetry::TraceFormat trace_format = parse_trace_format(args);
  telemetry::VectorSink event_sink;
  pc::PcConfig config;
  if (trace_path) config.trace_sink = &event_sink;

  core::DiagnosisSession session(simmpi::load_trace(path), config);
  const pc::DiagnosisResult result = session.diagnose(directives);
  if (args.has_flag("shg")) out << session.last_shg() << "\n";
  print_result_summary(out, result);
  if (trace_path) {
    telemetry::save_trace_file(*trace_path, event_sink.events(), trace_format);
    out << "\nwrote " << event_sink.size() << " telemetry events to " << *trace_path
        << "\n";
  }
  return 0;
}

int cmd_trace_report(const Args& args, std::ostream& out) {
  const std::string path = args.positional(0, "trace file");
  // A bad file should diagnose, not dump a bare JSON parse error: name the
  // file, say what was expected, and exit non-zero so scripts notice.
  std::vector<telemetry::Event> events;
  try {
    events = telemetry::load_trace_file(path);
  } catch (const std::exception& e) {
    out << path << ": not a readable telemetry trace: " << e.what() << "\n"
        << "expected JSONL (one event object per line) or a Chrome trace-event file,\n"
        << "as written by `histpc run <app> --trace FILE [--trace-format chrome]`\n";
    return 1;
  }
  out << path << ": " << events.size() << " events\n";
  if (events.empty()) {
    out << "the trace is empty — was the run recorded with --trace?\n";
    return 1;
  }

  struct HypRow {
    std::uint64_t instruments = 0, trues = 0, falses = 0, refines = 0, prunes = 0;
    double first = std::numeric_limits<double>::infinity();
    double last = -std::numeric_limits<double>::infinity();
  };
  std::map<std::string, HypRow> by_hyp;
  struct PhaseRow {
    std::uint64_t count = 0;
    double seconds = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };
  std::map<std::string, PhaseRow> phases;
  std::map<std::string, double> open_phases;
  std::uint64_t probe_inserts = 0, probe_removes = 0, gate_engagements = 0;
  double peak_cost = 0.0;

  for (const auto& e : events) {
    peak_cost = std::max(peak_cost, e.cost);
    switch (e.kind) {
      case telemetry::EventKind::PhaseBegin:
        open_phases[e.detail] = e.t;
        continue;
      case telemetry::EventKind::PhaseEnd:
        if (auto it = open_phases.find(e.detail); it != open_phases.end()) {
          PhaseRow& p = phases[e.detail];
          const double lap = e.t - it->second;
          ++p.count;
          p.seconds += lap;
          p.min = std::min(p.min, lap);
          p.max = std::max(p.max, lap);
          open_phases.erase(it);
        }
        continue;
      case telemetry::EventKind::ProbeInsert: ++probe_inserts; continue;
      case telemetry::EventKind::ProbeRemove: ++probe_removes; continue;
      case telemetry::EventKind::CostGate:
        if (e.detail == "engaged") ++gate_engagements;
        continue;
      default:
        break;
    }
    if (e.hypothesis.empty()) continue;
    HypRow& row = by_hyp[e.hypothesis];
    row.first = std::min(row.first, e.t);
    row.last = std::max(row.last, e.t);
    switch (e.kind) {
      case telemetry::EventKind::Instrument: ++row.instruments; break;
      case telemetry::EventKind::ConcludeTrue: ++row.trues; break;
      case telemetry::EventKind::ConcludeFalse: ++row.falses; break;
      case telemetry::EventKind::Refine: ++row.refines; break;
      case telemetry::EventKind::PruneHit: ++row.prunes; break;
      default: break;
    }
  }

  if (!by_hyp.empty()) {
    out << "\nby hypothesis:\n";
    util::TablePrinter table(
        {"hypothesis", "instr", "true", "false", "refine", "prune", "first", "last"});
    for (const auto& [hyp, row] : by_hyp)
      table.add_row({hyp, std::to_string(row.instruments), std::to_string(row.trues),
                     std::to_string(row.falses), std::to_string(row.refines),
                     std::to_string(row.prunes), util::fmt_double(row.first, 1) + "s",
                     util::fmt_double(row.last, 1) + "s"});
    table.print(out);
  }
  if (!phases.empty()) {
    // Per-lap min/max expose outlier laps that the total/count would
    // average away (one 30s phase among a hundred 1s phases).
    out << "\nphases (virtual time):\n";
    util::TablePrinter table({"phase", "count", "seconds", "min lap", "max lap"});
    for (const auto& [name, p] : phases)
      table.add_row({name, std::to_string(p.count), util::fmt_double(p.seconds, 1),
                     util::fmt_double(p.min, 1), util::fmt_double(p.max, 1)});
    table.print(out);
  }
  out << "\nprobe inserts:     " << probe_inserts << "\n"
      << "probe removes:     " << probe_removes << "\n"
      << "cost-gate engages: " << gate_engagements << "\n"
      << "peak active cost:  " << util::fmt_percent(peak_cost, 1) << "\n";
  return 0;
}

// ------------------------------------------------- perf-report / perf-diff

/// Resolve the perf log the perf commands read: --log FILE wins; otherwise
/// the per-store location `<store>/perf-log/<app>.jsonl` (needs --app).
telemetry::PerfLog resolve_perf_log(const Args& args) {
  if (auto log = args.option("log")) return telemetry::PerfLog(*log);
  if (auto app = args.option("app"))
    return telemetry::PerfLog(telemetry::PerfLog::path_in_store(
        args.option_or("store", std::string(kDefaultStoreDir)), *app));
  throw ArgsError("need --log FILE, or --app NAME [--store DIR]");
}

int cmd_perf_report(const Args& args, std::ostream& out) {
  const telemetry::PerfLog log = resolve_perf_log(args);
  const std::vector<telemetry::PerfRecord> records = log.read_all();
  if (records.empty()) {
    out << log.path() << ": no perf records (run `histpc run <app> --store DIR` or "
        << "--perf-log FILE to start collecting)\n";
    return 2;
  }
  const telemetry::PerfRecord& rec = records.back();
  if (args.has_flag("json")) {
    out << rec.to_json().dump(2) << "\n";
    return 0;
  }
  out << "perf log:   " << log.path() << " (" << records.size() << " records)\n"
      << "app:        " << rec.app << " (version " << rec.version << ", kind " << rec.kind
      << ")\n"
      << "machine:    " << rec.machine << "\n"
      << "build:      " << rec.build << "\n";
  if (!rec.config.empty()) {
    out << "config:     ";
    bool first = true;
    for (const auto& [key, value] : rec.config) {
      if (!first) out << ", ";
      out << key << "=" << value;
      first = false;
    }
    out << "\n";
  }
  if (!rec.registry.timers().empty()) {
    out << "\ntimers:\n";
    util::TablePrinter table(
        {"timer", "count", "total", "mean", "min", "max", "p50", "p90", "p99"});
    for (const auto& [name, stat] : rec.registry.timers()) {
      const telemetry::Histogram* h = rec.registry.histogram(name);
      const double mean = stat.count ? stat.seconds / static_cast<double>(stat.count) : 0.0;
      table.add_row({name, std::to_string(stat.count), util::fmt_seconds(stat.seconds),
                     util::fmt_seconds(mean), util::fmt_seconds(stat.count ? stat.min : 0.0),
                     util::fmt_seconds(stat.count ? stat.max : 0.0),
                     h ? util::fmt_seconds(h->quantile(0.50)) : "-",
                     h ? util::fmt_seconds(h->quantile(0.90)) : "-",
                     h ? util::fmt_seconds(h->quantile(0.99)) : "-"});
    }
    table.print(out);
  }
  if (!rec.registry.counters().empty()) {
    out << "\ncounters:\n";
    util::TablePrinter table({"counter", "value"});
    for (const auto& [name, value] : rec.registry.counters())
      table.add_row({name, std::to_string(value)});
    table.print(out);
  }
  if (!rec.registry.gauges().empty()) {
    out << "\ngauges:\n";
    util::TablePrinter table({"gauge", "value"});
    for (const auto& [name, value] : rec.registry.gauges())
      table.add_row({name, util::fmt_double(value, 4)});
    table.print(out);
  }
  return 0;
}

int cmd_perf_diff(const Args& args, std::ostream& out) {
  const telemetry::PerfLog log = resolve_perf_log(args);
  std::vector<telemetry::PerfRecord> records = log.read_all();
  if (records.empty()) {
    out << log.path() << ": no perf records to diff\n";
    return 2;
  }
  const telemetry::PerfRecord current = std::move(records.back());
  records.pop_back();

  std::vector<telemetry::PerfRecord> baseline;
  std::string baseline_desc;
  if (auto baseline_path = args.option("baseline")) {
    baseline = telemetry::PerfLog(*baseline_path).read_all();
    baseline_desc = *baseline_path;
  } else {
    baseline = std::move(records);
    baseline_desc = "earlier records in " + log.path();
  }
  if (baseline.empty()) {
    out << "no baseline records (" << baseline_desc << " is empty) — "
        << "need at least one historical run to diff against\n";
    return 2;
  }

  telemetry::PerfDiffOptions opts;
  // Don't clamp: --window 0 means "compare against nothing", which is a
  // degenerate request the caller should hear about, not silently a
  // window of 1. Negative windows are nonsense.
  const int window = args.option_or("window", 5);
  if (window < 0) throw ArgsError("option --window expects a non-negative integer");
  if (window == 0) {
    out << "nothing to compare: --window 0 selects no baseline records\n";
    return 2;
  }
  opts.window = static_cast<std::size_t>(window);
  opts.sigma = args.option_or("sigma", opts.sigma);
  opts.min_rel = args.option_or("min-rel", opts.min_rel);
  opts.min_abs = args.option_or("min-abs", opts.min_abs);
  const telemetry::PerfDiffReport report = telemetry::perf_diff(current, baseline, opts);

  if (args.has_flag("json")) {
    out << report.to_json().dump(2) << "\n";
    return report.regressions > 0 ? 1 : 0;
  }
  out << "current:  " << current.app << " (" << current.kind << ", build " << current.build
      << ", " << current.machine << ")\n"
      << "baseline: " << baseline_desc << " (window "
      << std::min(opts.window, baseline.size()) << " of " << baseline.size() << ")\n";
  for (const std::string& note : report.notes) out << "note: " << note << "\n";
  if (report.entries.empty()) {
    out << "no comparable metrics between current and baseline records\n";
    return 2;
  }
  out << "\n";
  util::TablePrinter table({"metric", "baseline median", "current", "ratio", "band", "verdict"});
  for (const telemetry::PerfDiffEntry& e : report.entries)
    table.add_row({e.metric, util::fmt_seconds(e.median), util::fmt_seconds(e.current),
                   util::fmt_double(e.ratio, 2) + "x", util::fmt_seconds(e.band),
                   e.regressed ? "REGRESSED" : (e.improved ? "improved" : "ok")});
  table.print(out);
  out << "\n" << report.entries.size() << " metrics: " << report.regressions
      << " regressed, " << report.improvements << " improved\n";
  return report.regressions > 0 ? 1 : 0;
}

struct Command {
  const char* name;
  int (*fn)(const Args&, std::ostream&);
  std::set<std::string> value_options;
  std::set<std::string> flag_options;
};

const Command kCommands[] = {
    {"apps", cmd_apps, {}, {}},
    {"report", cmd_report, {"duration", "node-base", "workload", "bins"}, {}},
    {"run",
     cmd_run,
     {"duration", "node-base", "threshold", "cost-limit", "directives", "store", "version",
      "scenario", "save-trace", "dot", "workload", "trace", "trace-format", "trace-cache",
      "perf-log"},
     {"shg", "extended", "postmortem", "discovery", "no-trace-cache"}},
    {"variants",
     cmd_variants,
     {"duration", "node-base", "workload", "threads", "threshold", "version", "trace-cache"},
     {"string-foci", "no-trace-cache"}},
    {"list", cmd_list, {"store", "app", "version", "machine", "scenario"}, {}},
    {"migrate", cmd_migrate, {"store", "jobs"}, {}},
    {"serve",
     cmd_serve,
     {"host", "port", "threads", "queue-depth", "store", "trace-cache", "max-body-kb",
      "perf-log"},
     {"no-result-cache", "no-perf-log", "no-trace-cache"}},
    {"bench-client",
     cmd_bench_client,
     {"host", "port", "rps", "duration", "connections", "seed", "app", "app-duration",
      "deadline-ms", "out", "connect-wait"},
     {"no-result-cache"}},
    {"show", cmd_show, {"store"}, {"report"}},
    {"harvest",
     cmd_harvest,
     {"store", "out", "combine", "half-life", "similar-to", "max-runs", "min-similarity"},
     {"no-priorities", "no-general-prunes", "no-historic-prunes", "false-pair-prunes",
      "thresholds"}},
    {"map", cmd_map, {"store"}, {}},
    {"compare", cmd_compare, {"store"}, {"no-map"}},
    {"diff", cmd_diff, {"store"}, {}},
    {"diagnose-trace",
     cmd_diagnose_trace,
     {"directives", "trace", "trace-format"},
     {"shg"}},
    {"trace-report", cmd_trace_report, {}, {}},
    {"perf-report", cmd_perf_report, {"log", "store", "app"}, {"json"}},
    {"perf-diff",
     cmd_perf_diff,
     {"log", "store", "app", "baseline", "window", "sigma", "min-rel", "min-abs"},
     {"json"}},
};

}  // namespace

std::string usage() {
  std::ostringstream os;
  os << "histpc — historical-data-directed online performance diagnosis\n\n"
        "usage: histpc <command> [args]\n\ncommands:\n"
        "  apps                         list registered applications\n"
        "  report <app>                 simulate and summarize an execution\n"
        "  run <app>                    simulate + diagnose (optionally directed/stored)\n"
        "  variants <app>               run the table-1 directive variants in parallel\n"
        "  list                         list stored experiment records\n"
        "  migrate                      convert legacy JSON records to binary\n"
        "  serve                        long-running diagnosis service (HTTP/JSON)\n"
        "  bench-client                 open-loop load generator for serve\n"
        "  show <run_id>                print one record\n"
        "  harvest <run_id>             extract search directives from a record\n"
        "  map <from_id> <to_id>        suggest resource mappings between two runs\n"
        "  compare <id1> <id2>          bottlenecks resolved/appeared/moved between runs\n"
        "  diff <id1> <id2>             execution map of two runs' resources\n"
        "  diagnose-trace <file.json>   diagnose a serialized trace\n"
        "  trace-report <trace>         summarize a saved telemetry trace\n"
        "  perf-report                  show the latest self-telemetry perf record\n"
        "  perf-diff                    flag cross-run performance regressions\n"
        "\nexperiment records are stored as binary snapshots (.histexp) with\n"
        "an on-disk index; legacy .json records still load and migrate on\n"
        "first read (or all at once via migrate --store DIR). list filters\n"
        "on --app/--version/--machine/--scenario straight from the index;\n"
        "run --scenario LABEL tags the stored record. harvest combines\n"
        "several runs with --combine intersect|union|weighted (weighted\n"
        "decays each run's vote with --half-life K runs) and can pick the\n"
        "input runs automatically: --similar-to RUN_ID [--max-runs N]\n"
        "[--min-similarity S] scores every stored run of the same app.\n"
        "\nrun/diagnose-trace also take --trace FILE [--trace-format jsonl|chrome]\n"
        "to record the search's telemetry events (chrome = load in Perfetto).\n"
        "run/variants cache simulated traces as binary snapshots (default\n"
        "directory .histpc/trace-cache); --trace-cache DIR relocates the\n"
        "cache and --no-trace-cache simulates from scratch.\n"
        "run --store DIR also appends this run's telemetry (timers with\n"
        "p50/p90/p99 lap histograms) as a PerfRecord under DIR/perf-log/;\n"
        "--perf-log FILE redirects it. perf-report/perf-diff read those logs\n"
        "(--log FILE, or --app NAME [--store DIR]); perf-diff compares the\n"
        "newest record against a --window K baseline (or --baseline FILE)\n"
        "with a MAD band (--sigma/--min-rel/--min-abs) and exits non-zero\n"
        "when a metric regressed.\n"
        "\nmigrate --jobs N parses/encodes legacy records on N threads (0 =\n"
        "all hardware threads); the resulting index and summary line are\n"
        "identical for every N.\n"
        "serve [--port N] answers POST /diagnose /list /perf-report (and\n"
        "GET /healthz /stats, POST /shutdown) concurrently over one shared\n"
        "read-mostly store + trace cache; --threads/--queue-depth size the\n"
        "worker pool and admission queue (excess requests are shed with\n"
        "429), --no-result-cache disables warm-result memoization, and each\n"
        "request appends a kind=serve PerfRecord readable by perf-report\n"
        "--app serve. bench-client --port N --rps R --duration S drives a\n"
        "running server with open-loop Poisson arrivals and prints p50/p99\n"
        "latency and shed rate; --out FILE merges a serve_load section into\n"
        "a BENCH_metrics.json-style file.\n";
  return os.str();
}

int run_command(const std::string& command, const std::vector<std::string>& tokens,
                std::ostream& out) {
  for (const Command& c : kCommands) {
    if (command == c.name) {
      const Args args = Args::parse(tokens, c.value_options, c.flag_options);
      return c.fn(args, out);
    }
  }
  throw ArgsError("unknown command '" + command + "'\n" + usage());
}

}  // namespace histpc::cli
