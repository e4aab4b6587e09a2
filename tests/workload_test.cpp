#include <gtest/gtest.h>

#include "apps/workload_spec.h"
#include "core/session.h"
#include "metrics/trace_view.h"

namespace histpc::apps {
namespace {

using util::Json;

Json base_spec() {
  return Json::parse(R"({
    "name": "wl",
    "ranks": 4,
    "iterations": 50,
    "body": [
      { "op": "compute", "seconds": 0.5, "function": "solve", "module": "solver.c" },
      { "op": "barrier" }
    ]
  })");
}

TEST(Workload, BuildsAndRuns) {
  const simmpi::ExecutionTrace trace = run_workload(base_spec());
  EXPECT_EQ(trace.num_ranks(), 4);
  // 50 iterations of 0.5s compute + barriers.
  EXPECT_NEAR(trace.duration, 25.0, 0.5);
  EXPECT_NO_THROW(trace.validate());
  const metrics::TraceView view(trace);
  EXPECT_TRUE(view.resources().contains("/Code/solver.c/solve"));
  EXPECT_TRUE(view.resources().contains("/Code/wl.c/main"));
  EXPECT_TRUE(view.resources().contains("/Process/wl:1"));
}

TEST(Workload, FactorsScalePerRank) {
  Json spec = base_spec();
  spec["body"].as_array()[0]["factors"] =
      Json::parse(R"([1.0, 1.0, 0.5, 0.5])");
  const simmpi::ExecutionTrace trace = run_workload(spec);
  const metrics::TraceView view(trace);
  // Slow-factor ranks wait at the barrier ~half of every iteration.
  auto frac = [&](const char* proc) {
    auto f = resources::Focus::whole_program(view.resources())
                 .with_part(2, std::string("/Process/") + proc);
    return view.fraction(metrics::MetricKind::SyncWaitTime, f);
  };
  EXPECT_LT(frac("wl:1"), 0.05);
  EXPECT_NEAR(frac("wl:3"), 0.5, 0.05);
}

TEST(Workload, MachineSpeedsApply) {
  Json spec = base_spec();
  spec["machine"] = Json::parse(R"({"speeds": [2.0, 1.0, 1.0, 1.0]})");
  const simmpi::ExecutionTrace trace = run_workload(spec);
  // Rank 0 computes twice as fast, so it waits at barriers.
  const metrics::TraceView view(trace);
  auto f = resources::Focus::whole_program(view.resources()).with_part(2, "/Process/wl:1");
  EXPECT_NEAR(view.fraction(metrics::MetricKind::SyncWaitTime, f), 0.5, 0.05);
}

TEST(Workload, EveryCadence) {
  Json spec = base_spec();
  spec["iterations"] = 40;
  spec["body"].push_back(Json::parse(
      R"({ "op": "io", "seconds": 1.0, "every": 10, "function": "ckpt", "module": "io.c" })"));
  const simmpi::ExecutionTrace trace = run_workload(spec);
  const metrics::TraceView view(trace);
  auto f = resources::Focus::whole_program(view.resources()).with_part(0, "/Code/io.c");
  // 4 of 40 iterations do 1s of I/O each.
  EXPECT_NEAR(view.query(metrics::MetricKind::IoWaitTime, f) / 4.0, 4.0, 0.01);
}

TEST(Workload, ExchangePatterns) {
  for (const char* pattern : {"ring", "pairs", "butterfly"}) {
    Json spec = base_spec();
    Json step = Json::parse(
        R"({ "op": "exchange", "bytes": 500000, "tag": 3, "function": "x", "module": "x.c" })");
    step["pattern"] = pattern;
    spec["body"].push_back(std::move(step));
    const simmpi::ExecutionTrace trace = run_workload(spec);
    const metrics::TraceView view(trace);
    EXPECT_TRUE(view.resources().contains("/SyncObject/Message/3")) << pattern;
    EXPECT_GT(trace.totals().sync_wait, 0.0) << pattern;
  }
}

TEST(Workload, CollectiveOps) {
  for (const char* op : {"bcast", "gather", "alltoall"}) {
    Json spec = base_spec();
    Json step = Json::parse(R"({ "bytes": 100000 })");
    step["op"] = op;
    spec["body"].push_back(std::move(step));
    const simmpi::ExecutionTrace trace = run_workload(spec);
    const metrics::TraceView view(trace);
    std::string name = std::string("/SyncObject/Collective/") +
                       (op[0] == 'b' ? "Bcast" : op[0] == 'g' ? "Gather" : "Alltoall");
    EXPECT_TRUE(view.resources().contains(name)) << name;
  }
}

TEST(Workload, NetworkOverride) {
  Json spec = base_spec();
  spec["body"].push_back(Json::parse(
      R"({ "op": "exchange", "pattern": "ring", "bytes": 1000000, "function": "x", "module": "x.c" })"));
  Json slow = spec;
  slow["network"] = Json::parse(R"({"latency": 0.001, "bandwidth": 1000000.0})");
  const double fast_time = run_workload(spec).duration;
  const double slow_time = run_workload(slow).duration;
  EXPECT_GT(slow_time, fast_time + 10.0);  // 1 MB at 1 MB/s adds ~1s per iteration
}

TEST(Workload, InitRunsOnce) {
  Json spec = base_spec();
  spec["init"] = Json::parse(
      R"([{ "op": "compute", "seconds": 3.0, "function": "setup", "module": "init.c" }])");
  const simmpi::ExecutionTrace trace = run_workload(spec);
  const metrics::TraceView view(trace);
  auto f = resources::Focus::whole_program(view.resources()).with_part(0, "/Code/init.c");
  EXPECT_NEAR(view.query(metrics::MetricKind::CpuTime, f), 12.0, 0.01);
}

TEST(Workload, Deterministic) {
  const simmpi::ExecutionTrace a = run_workload(base_spec());
  const simmpi::ExecutionTrace b = run_workload(base_spec());
  EXPECT_DOUBLE_EQ(a.duration, b.duration);
}

TEST(Workload, DiagnosableEndToEnd) {
  Json spec = base_spec();
  spec["iterations"] = 500;
  spec["body"].as_array()[0]["factors"] = Json::parse(R"([1.0, 1.0, 0.3, 0.3])");
  core::DiagnosisSession session(run_workload(spec), pc::PcConfig{}, "wl");
  const pc::DiagnosisResult r = session.diagnose();
  EXPECT_TRUE(std::any_of(r.bottlenecks.begin(), r.bottlenecks.end(), [](const auto& b) {
    return b.hypothesis == pc::kSyncWaitName && b.focus.find("/Process/wl:3") != std::string::npos;
  }));
}

TEST(Workload, ValidationErrors) {
  auto expect_error = [](const char* json, const char* why) {
    EXPECT_THROW(build_workload(Json::parse(json)), WorkloadError) << why;
  };
  expect_error(R"([])", "not an object");
  expect_error(R"({"ranks": 0, "iterations": 1, "body": [{"op": "barrier"}]})", "bad ranks");
  expect_error(R"({"ranks": 2, "iterations": 0, "body": [{"op": "barrier"}]})",
               "bad iterations");
  expect_error(R"({"ranks": 2, "iterations": 1})", "missing body");
  expect_error(R"({"ranks": 2, "iterations": 1, "body": []})", "empty body");
  expect_error(R"({"ranks": 2, "iterations": 1, "body": [{"op": "fly"}]})", "unknown op");
  expect_error(R"({"ranks": 2, "iterations": 1, "body": [{"op": "compute"}]})",
               "compute without seconds");
  expect_error(
      R"({"ranks": 2, "iterations": 1,
          "body": [{"op": "compute", "seconds": 1, "factors": [1.0]}]})",
      "factor count mismatch");
  expect_error(
      R"({"ranks": 3, "iterations": 1, "body": [{"op": "exchange", "pattern": "pairs"}]})",
      "odd pairs");
  expect_error(
      R"({"ranks": 2, "iterations": 1,
          "body": [{"op": "compute", "seconds": 1, "function": "f"}]})",
      "function without module");
  expect_error(
      R"({"ranks": 2, "iterations": 1, "body": [{"op": "barrier", "every": 0}]})",
      "bad every");
  expect_error(
      R"({"ranks": 2, "iterations": 1, "body": [{"op": "barrier"}],
          "network": {"bandwidth": -1}})",
      "bad network");
  expect_error(
      R"({"ranks": 2, "iterations": 1, "body": [{"op": "barrier"}],
          "machine": {"speeds": [1.0]}})",
      "speeds count mismatch");
}

}  // namespace
}  // namespace histpc::apps
