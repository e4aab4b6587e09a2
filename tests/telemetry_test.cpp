// Tests for the search-telemetry subsystem: event serialization (JSONL and
// Chrome trace-event), the counters/gauges/timers registry, and the
// integration contract between the Performance Consultant and its tracer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics/trace_view.h"
#include "pc/consultant.h"
#include "pc/directives.h"
#include "scratch_dir.h"
#include "simmpi/program.h"
#include "simmpi/simulator.h"
#include "telemetry/event.h"
#include "telemetry/registry.h"
#include "telemetry/tracer.h"
#include "util/json.h"
#include "util/strings.h"

namespace histpc::telemetry {
namespace {

using simmpi::FunctionScope;
using simmpi::Recorder;

std::vector<Event> sample_events() {
  std::vector<Event> events;
  double t = 0.0;
  for (EventKind kind : kAllEventKinds) {
    Event e;
    e.kind = kind;
    e.t = t += 1.5;
    e.hypothesis = "CPUbound";
    e.focus = "</Code/work.c,/Machine,/Process,/SyncObject>";
    e.value = 0.31;
    e.threshold = 0.2;
    e.cost = 0.04;
    e.detail = "subtree";
    events.push_back(std::move(e));
  }
  // One with every defaulted field, to exercise omitted-key handling.
  Event minimal;
  minimal.kind = EventKind::CostGate;
  events.push_back(minimal);
  return events;
}

TEST(TelemetryEvent, KindNamesRoundTrip) {
  for (EventKind kind : kAllEventKinds) {
    const char* name = event_kind_name(kind);
    auto back = event_kind_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(event_kind_from_name("bogus").has_value());
}

TEST(TelemetryEvent, JsonRoundTrip) {
  for (const Event& e : sample_events()) {
    const Event back = Event::from_json(e.to_json());
    EXPECT_EQ(back, e);
  }
}

TEST(TelemetryEvent, JsonlRoundTrip) {
  const std::vector<Event> events = sample_events();
  const std::string text = to_jsonl(events);
  EXPECT_EQ(from_jsonl(text), events);
}

TEST(TelemetryEvent, ChromeTraceIsValidAndRoundTrips) {
  const std::vector<Event> events = sample_events();
  const util::Json trace = to_chrome_trace(events);
  // Re-parse through the in-repo JSON reader: the export must be plain,
  // valid JSON with the trace-event envelope.
  const util::Json reparsed = util::Json::parse(trace.dump());
  ASSERT_TRUE(reparsed.is_object());
  ASSERT_TRUE(reparsed.at("traceEvents").is_array());
  for (const auto& ev : reparsed.at("traceEvents").as_array()) {
    ASSERT_TRUE(ev.is_object());
    EXPECT_TRUE(ev.at("ph").is_string());
  }
  EXPECT_EQ(from_chrome_trace(reparsed), events);
}

TEST(TelemetryEvent, ChromeTraceHasDerivedTracks) {
  // instrument at t=1 then conclude_true at t=4 must become a complete
  // ("X") span, phases a B/E pair, and cost samples a counter track.
  std::vector<Event> events;
  events.push_back({EventKind::PhaseBegin, 0.0, "", "", 0, 0, 0, "search"});
  events.push_back({EventKind::Instrument, 1.0, "CPUbound", "<f>", 0.01, 0.2, 0.01, ""});
  events.push_back({EventKind::ConcludeTrue, 4.0, "CPUbound", "<f>", 0.35, 0.2, 0.01, ""});
  events.push_back({EventKind::PhaseEnd, 5.0, "", "", 0, 0, 0, "search"});
  const util::Json trace = to_chrome_trace(events);
  bool saw_span = false, saw_begin = false, saw_end = false, saw_counter = false;
  for (const auto& ev : trace.at("traceEvents").as_array()) {
    const std::string ph = ev.at("ph").as_string();
    if (ph == "X") saw_span = true;
    if (ph == "B") saw_begin = true;
    if (ph == "E") saw_end = true;
    if (ph == "C") saw_counter = true;
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_end);
  EXPECT_TRUE(saw_counter);
}

TEST(TelemetryEvent, SaveLoadAutodetectsBothFormats) {
  const std::vector<Event> events = sample_events();
  const testing_support::ScratchDir scratch("telemetry_event");
  for (auto [fmt, name] : {std::pair{TraceFormat::Jsonl, "t.jsonl"},
                           std::pair{TraceFormat::Chrome, "t.chrome.json"}}) {
    const std::string path = scratch.file(name);
    save_trace_file(path, events, fmt);
    EXPECT_EQ(load_trace_file(path), events) << name;
  }
}

TEST(TelemetryEvent, TraceFormatNames) {
  EXPECT_EQ(trace_format_from_name("jsonl"), TraceFormat::Jsonl);
  EXPECT_EQ(trace_format_from_name("chrome"), TraceFormat::Chrome);
  EXPECT_FALSE(trace_format_from_name("xml").has_value());
}

// ----------------------------------------------------------------- registry

TEST(TelemetryRegistry, CounterSemantics) {
  Registry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counter("x"), 0u);
  reg.add("x");
  reg.add("x", 4);
  EXPECT_EQ(reg.counter("x"), 5u);
  EXPECT_EQ(reg.counter("never"), 0u);
  EXPECT_FALSE(reg.empty());
  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(TelemetryRegistry, GaugeSemantics) {
  Registry reg;
  reg.gauge_set("g", 2.0);
  reg.gauge_set("g", 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("g"), 1.0);
  reg.gauge_max("peak", 1.0);
  reg.gauge_max("peak", 3.0);
  reg.gauge_max("peak", 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("peak"), 3.0);
}

TEST(TelemetryRegistry, TimerAndScopedTimer) {
  Registry reg;
  reg.add_seconds("t", 0.25);
  reg.add_seconds("t", 0.5);
  EXPECT_EQ(reg.timer("t").count, 2u);
  EXPECT_DOUBLE_EQ(reg.timer("t").seconds, 0.75);
  {
    ScopedTimer timer(reg, "scoped");
  }
  EXPECT_EQ(reg.timer("scoped").count, 1u);
  EXPECT_GE(reg.timer("scoped").seconds, 0.0);
}

TEST(TelemetryRegistry, TimerTracksPerLapExtrema) {
  Registry reg;
  reg.add_seconds("t", 0.5);
  reg.add_seconds("t", 0.25);
  reg.add_seconds("t", 2.0);
  EXPECT_DOUBLE_EQ(reg.timer("t").min, 0.25);
  EXPECT_DOUBLE_EQ(reg.timer("t").max, 2.0);
  // Every lap also lands in the histogram of the same name.
  const Histogram* h = reg.histogram("t");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->min(), 0.25);
  EXPECT_DOUBLE_EQ(h->max(), 2.0);
}

TEST(TelemetryRegistry, ToJson) {
  Registry reg;
  reg.add("c", 3);
  reg.gauge_set("g", 1.5);
  reg.add_seconds("t", 0.1);
  const util::Json j = reg.to_json();
  EXPECT_EQ(j.at("counters").at("c").as_int(), 3);
  EXPECT_DOUBLE_EQ(j.at("gauges").at("g").as_double(), 1.5);
  EXPECT_EQ(j.at("timers").at("t").at("count").as_int(), 1);
  EXPECT_DOUBLE_EQ(j.at("timers").at("t").at("min").as_double(), 0.1);
  EXPECT_DOUBLE_EQ(j.at("timers").at("t").at("max").as_double(), 0.1);
  EXPECT_EQ(j.at("histograms").at("t").at("count").as_int(), 1);
}

TEST(TelemetryRegistry, FromJsonRoundTripsAndToleratesOldRecords) {
  Registry reg;
  reg.add("c", 3);
  reg.gauge_max("g", 1.5);
  reg.add_seconds("t", 0.1);
  reg.add_seconds("t", 0.3);
  reg.record_value("h", 42e-9);
  const Registry back = Registry::from_json(util::Json::parse(reg.to_json().dump()));
  EXPECT_EQ(back.to_json().dump(), reg.to_json().dump());

  // Records written before per-lap extrema and histograms existed still
  // load: min/max default to the mean lap, histograms to absent.
  const Registry old = Registry::from_json(util::Json::parse(
      R"({"counters":{"c":2},"gauges":{},"timers":{"t":{"count":2,"seconds":0.4}}})"));
  EXPECT_EQ(old.counter("c"), 2u);
  EXPECT_DOUBLE_EQ(old.timer("t").min, 0.2);
  EXPECT_DOUBLE_EQ(old.timer("t").max, 0.2);
  EXPECT_EQ(old.histogram("t"), nullptr);
}

// ---------------------------------------------------------------- histogram

TEST(TelemetryHistogram, ZeroSamples) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(TelemetryHistogram, OneSampleIsExactAtEveryQuantile) {
  Histogram h;
  h.record(4.2e-3);
  for (double q : {0.0, 0.01, 0.5, 0.9, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), 4.2e-3) << "q=" << q;
  EXPECT_DOUBLE_EQ(h.min(), 4.2e-3);
  EXPECT_DOUBLE_EQ(h.max(), 4.2e-3);
}

TEST(TelemetryHistogram, BucketBoundariesAreExact) {
  // A value exactly on bucket i's lower bound must record into bucket i,
  // not a float-fuzz neighbor — the bound table is searched, not recomputed.
  for (int i = 1; i <= Histogram::kNumBounds; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower_bound(i)), i) << i;
    EXPECT_GT(Histogram::bucket_lower_bound(i), Histogram::bucket_lower_bound(i - 1)) << i;
  }
  // Underflow: non-positive and sub-ns values land in bucket 0.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_index(0.5e-9), 0);
  Histogram h;
  h.record(0.0);
  EXPECT_EQ(h.buckets()[0], 1u);
}

TEST(TelemetryHistogram, OverflowSaturatesWithoutDroppingSamples) {
  Histogram h;
  h.record(1e6);  // ~11.6 days, far past the ~68.7s top bound
  h.record(2e6);
  EXPECT_EQ(h.buckets()[Histogram::kNumBuckets - 1], 2u);
  EXPECT_EQ(h.count(), 2u);
  // The overflow bucket has no upper bound; quantiles use the recorded max.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2e6);
  EXPECT_LE(h.quantile(0.5), 2e6);
  EXPECT_GE(h.quantile(0.5), 1e6);
}

TEST(TelemetryHistogram, QuantilesMonotoneAndWithinExtrema) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 1e-6);
  double prev = 0.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    prev = v;
  }
  // The median of 1..1000 us is near 500 us — well within one bucket width
  // (~19%) of the exact answer.
  EXPECT_NEAR(h.quantile(0.5), 500e-6, 500e-6 * 0.2);
}

TEST(TelemetryHistogram, JsonRoundTripPreservesQuantiles) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(1e-6 * (1 + i % 17));
  const Histogram back = Histogram::from_json(util::Json::parse(h.to_json().dump()));
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.buckets(), h.buckets());
  for (double q : {0.5, 0.9, 0.99}) EXPECT_EQ(back.quantile(q), h.quantile(q)) << q;
}

TEST(TelemetryRegistry, MergeIsOrderIndependent) {
  // The same samples, split across three registries and merged in two
  // different orders, must yield bit-identical quantiles — this is what
  // makes histogram quantiles independent of thread count.
  std::vector<double> samples;
  for (int i = 0; i < 300; ++i) samples.push_back(1e-6 * (1 + (i * 37) % 100));

  Registry parts[3];
  for (std::size_t i = 0; i < samples.size(); ++i)
    parts[i % 3].add_seconds("t", samples[i]);

  Registry forward, backward;
  for (int i = 0; i < 3; ++i) forward.merge_from(parts[i]);
  for (int i = 2; i >= 0; --i) backward.merge_from(parts[i]);

  const Histogram* hf = forward.histogram("t");
  const Histogram* hb = backward.histogram("t");
  ASSERT_NE(hf, nullptr);
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(hf->buckets(), hb->buckets());
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(hf->quantile(q), hb->quantile(q)) << q;  // bit-identical
  }
  EXPECT_EQ(forward.timer("t").count, 300u);
  EXPECT_DOUBLE_EQ(forward.timer("t").min, backward.timer("t").min);
  EXPECT_DOUBLE_EQ(forward.timer("t").max, backward.timer("t").max);
  // Counters and gauges fold too: sum and max respectively.
  Registry a, b;
  a.add("c", 2);
  b.add("c", 3);
  a.gauge_max("g", 1.0);
  b.gauge_max("g", 5.0);
  a.merge_from(b);
  EXPECT_EQ(a.counter("c"), 5u);
  EXPECT_DOUBLE_EQ(a.gauge("g"), 5.0);
}

TEST(TelemetryTracer, SinkRouting) {
  const auto refine = [] {
    Event e;
    e.kind = EventKind::Refine;
    e.t = 1.0;
    return e;
  };

  Tracer off;
  EXPECT_FALSE(off.tracing());
  off.emit(refine());  // must be a no-op, not a crash

  VectorSink sink;
  Tracer on(&sink);
  EXPECT_TRUE(on.tracing());
  on.emit(refine());
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.events()[0].kind, EventKind::Refine);
}

// -------------------------------------------------------------- integration

/// Two ranks; rank 1 waits on rank 0 most of each iteration, so the search
/// finds sync bottlenecks and refines enough to exercise every decision.
simmpi::ExecutionTrace imbalance_trace() {
  simmpi::ProgramBuilder b(simmpi::MachineSpec::one_to_one(2, "node", "app"));
  b.record([](Recorder& r) {
    FunctionScope fmain(r, "main", "main.c");
    for (int i = 0; i < 800; ++i) {
      {
        FunctionScope f(r, "work", "work.c");
        r.compute(r.rank() == 1 ? 0.2 : 1.0);
      }
      {
        FunctionScope f(r, "exchange", "comm.c");
        if (r.rank() == 1) r.recv(0, 7);
        else r.send(1, 7, 64);
        r.barrier();
      }
    }
  });
  return simmpi::Simulator().run(b.build());
}

pc::PcConfig traced_config(EventSink* sink) {
  pc::PcConfig cfg;
  cfg.min_observation = 10.0;
  cfg.tick = 0.5;
  cfg.cost_limit = 0.05;
  cfg.trace_sink = sink;
  return cfg;
}

TEST(TelemetryIntegration, PruneHitsMatchDirectives) {
  const simmpi::ExecutionTrace trace = imbalance_trace();
  const metrics::TraceView view(trace);

  pc::DirectiveSet directives = pc::DirectiveSet::parse(
      "prune * /Machine\n"
      "prune CPUbound /SyncObject\n");

  VectorSink sink;
  pc::PerformanceConsultant consultant(view, traced_config(&sink), directives);
  const pc::DiagnosisResult result = consultant.run();

  std::size_t prune_hits = 0, instruments = 0;
  for (const Event& e : sink.events()) {
    if (e.kind == EventKind::PruneHit) {
      ++prune_hits;
      EXPECT_TRUE(e.detail == "subtree" || e.detail == "pair") << e.detail;
      // Every recorded hit names a pair the directive set really excludes.
      auto focus = resources::Focus::parse(e.focus, view.resources());
      ASSERT_TRUE(focus.has_value()) << e.focus;
      EXPECT_TRUE(directives.is_pruned(e.hypothesis, *focus))
          << e.hypothesis << " : " << e.focus;
    } else if (e.kind == EventKind::Instrument) {
      ++instruments;
    }
  }
  EXPECT_GT(prune_hits, 0u);
  EXPECT_EQ(prune_hits, result.stats.pruned_candidates);
  EXPECT_EQ(instruments, result.stats.pairs_tested);
  EXPECT_EQ(result.telemetry.prune_hits_subtree + result.telemetry.prune_hits_pair,
            result.stats.pruned_candidates);
}

TEST(TelemetryIntegration, EveryDecisionTypeRecorded) {
  const simmpi::ExecutionTrace trace = imbalance_trace();
  const metrics::TraceView view(trace);

  VectorSink sink;
  pc::PerformanceConsultant consultant(view, traced_config(&sink));
  const pc::DiagnosisResult result = consultant.run();

  std::size_t by_kind[std::size(kAllEventKinds)] = {};
  for (const Event& e : sink.events()) ++by_kind[static_cast<std::size_t>(e.kind)];
  EXPECT_GT(by_kind[static_cast<std::size_t>(EventKind::Instrument)], 0u);
  EXPECT_GT(by_kind[static_cast<std::size_t>(EventKind::ConcludeTrue)], 0u);
  EXPECT_GT(by_kind[static_cast<std::size_t>(EventKind::ConcludeFalse)], 0u);
  EXPECT_GT(by_kind[static_cast<std::size_t>(EventKind::Refine)], 0u);
  EXPECT_GT(by_kind[static_cast<std::size_t>(EventKind::ProbeInsert)], 0u);
  EXPECT_GT(by_kind[static_cast<std::size_t>(EventKind::ProbeRemove)], 0u);
  EXPECT_EQ(by_kind[static_cast<std::size_t>(EventKind::PhaseBegin)], 1u);
  EXPECT_EQ(by_kind[static_cast<std::size_t>(EventKind::PhaseEnd)], 1u);

  // Summary counters agree with the event stream.
  EXPECT_EQ(result.telemetry.pairs_tested, result.stats.pairs_tested);
  EXPECT_EQ(result.telemetry.conclusions_true + result.telemetry.conclusions_false,
            by_kind[static_cast<std::size_t>(EventKind::ConcludeTrue)] +
                by_kind[static_cast<std::size_t>(EventKind::ConcludeFalse)]);
  EXPECT_EQ(result.telemetry.refinements,
            by_kind[static_cast<std::size_t>(EventKind::Refine)]);
  EXPECT_DOUBLE_EQ(result.telemetry.peak_cost, result.stats.peak_cost);
  EXPECT_GT(result.telemetry.avg_cost, 0.0);
  EXPECT_LE(result.telemetry.avg_cost, result.telemetry.peak_cost);
  EXPECT_FALSE(result.telemetry.phase_seconds.empty());
}

TEST(TelemetryIntegration, DisabledSinkLeavesDiagnosisIdentical) {
  const simmpi::ExecutionTrace trace = imbalance_trace();
  const metrics::TraceView view(trace);

  VectorSink sink;
  pc::PerformanceConsultant traced(view, traced_config(&sink));
  const pc::DiagnosisResult with = traced.run();

  pc::PerformanceConsultant plain(view, traced_config(nullptr));
  const pc::DiagnosisResult without = plain.run();
  EXPECT_FALSE(plain.tracer().tracing());

  ASSERT_EQ(with.bottlenecks.size(), without.bottlenecks.size());
  for (std::size_t i = 0; i < with.bottlenecks.size(); ++i) {
    EXPECT_EQ(with.bottlenecks[i].hypothesis, without.bottlenecks[i].hypothesis);
    EXPECT_EQ(with.bottlenecks[i].focus, without.bottlenecks[i].focus);
    EXPECT_DOUBLE_EQ(with.bottlenecks[i].t_found, without.bottlenecks[i].t_found);
    EXPECT_DOUBLE_EQ(with.bottlenecks[i].fraction, without.bottlenecks[i].fraction);
  }
  EXPECT_EQ(with.stats.nodes_created, without.stats.nodes_created);
  EXPECT_EQ(with.stats.pairs_tested, without.stats.pairs_tested);
  EXPECT_DOUBLE_EQ(with.stats.end_time, without.stats.end_time);
  // Counters (and so the summary) are collected even with tracing off.
  EXPECT_EQ(with.telemetry.pairs_tested, without.telemetry.pairs_tested);
  EXPECT_EQ(with.telemetry.conclusions_true, without.telemetry.conclusions_true);
  EXPECT_EQ(with.telemetry.refinements, without.telemetry.refinements);
}

TEST(TelemetryIntegration, SimulatorPhaseAndCounters) {
  simmpi::ProgramBuilder b(simmpi::MachineSpec::one_to_one(2, "node", "app"));
  b.record([](Recorder& r) {
    FunctionScope fmain(r, "main", "main.c");
    r.compute(1.0);
    r.barrier();
  });
  const simmpi::SimProgram program = b.build();

  VectorSink sink;
  Tracer tracer(&sink);
  const simmpi::ExecutionTrace trace = simmpi::Simulator().run(program, &tracer);

  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.events()[0].kind, EventKind::PhaseBegin);
  EXPECT_EQ(sink.events()[0].detail, "simulate");
  EXPECT_EQ(sink.events()[1].kind, EventKind::PhaseEnd);
  EXPECT_DOUBLE_EQ(sink.events()[1].t, trace.duration);
  EXPECT_EQ(tracer.registry().counter("sim.ranks"), 2u);
  EXPECT_GT(tracer.registry().counter("sim.ops"), 0u);
  EXPECT_EQ(tracer.registry().timer("sim.run").count, 1u);
}

TEST(TelemetrySummary, ToJsonNamesEveryField) {
  pc::TelemetrySummary s;
  s.pairs_tested = 7;
  s.prune_hits_subtree = 2;
  s.peak_cost = 0.19;
  s.phase_seconds["pc.advance"] = 0.5;
  const util::Json j = s.to_json();
  EXPECT_EQ(j.at("pairs_tested").as_int(), 7);
  EXPECT_EQ(j.at("prune_hits_subtree").as_int(), 2);
  EXPECT_DOUBLE_EQ(j.at("peak_cost").as_double(), 0.19);
  EXPECT_DOUBLE_EQ(j.at("phase_seconds").at("pc.advance").as_double(), 0.5);
}

}  // namespace
}  // namespace histpc::telemetry
