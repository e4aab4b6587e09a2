// Tests of the benchmark's own machinery: the generator, the ledger and
// the output checks that feed ok_frac.
#include <gtest/gtest.h>

#include <set>

#include "apps/workload_spec.h"
#include "core/session.h"
#include "ledger.h"
#include "probes.h"
#include "spmd_gen.h"
#include "util/json.h"

namespace histpc::e2e {
namespace {

TEST(SpmdGen, SameSeedGivesIdenticalBytes) {
  const GeneratedSpec a = generate_spmd(42);
  const GeneratedSpec b = generate_spmd(42);
  EXPECT_EQ(a.json, b.json);
  ASSERT_EQ(a.truth.size(), b.truth.size());
  for (std::size_t k = 0; k < a.truth.size(); ++k) EXPECT_EQ(a.truth[k].focus_part, b.truth[k].focus_part);
  EXPECT_NE(a.json, generate_spmd(43).json);
}

TEST(SpmdGen, EmitsAValidSpecWithEveryInjectionKind) {
  const GeneratedSpec g = generate_spmd(7);
  const apps::Workload w = apps::build_workload(util::Json::parse(g.json));
  EXPECT_EQ(w.program.num_ranks(), 16);
  std::set<std::string> kinds;
  for (const Injection& inj : g.truth) kinds.insert(inj.kind);
  EXPECT_EQ(kinds, (std::set<std::string>{"imbalance", "hot_function", "slow_node",
                                          "tag_contention"}));
}

TEST(SpmdGen, EveryInjectionIsReportedByTheBenchmarkConfiguration) {
  const GeneratedSpec g = generate_spmd(3);
  const apps::Workload w = apps::build_workload(util::Json::parse(g.json));
  pc::PcConfig config;
  config.cost_limit = 0.25;  // as the scaled_spmd workload runs it
  core::DiagnosisSession session(simmpi::Simulator(w.network).run(w.program), config, w.name);
  const pc::DiagnosisResult result = session.diagnose();
  for (const Injection& inj : g.truth) EXPECT_TRUE(reported(inj, result.bottlenecks)) << inj.kind;
}

TEST(Ledger, SelfTimesPlusResidualAddUpToWall) {
  SpanRecorder spans(true);
  // op [0, 10]: a [1, 4] holding c [2, 3]; b [5, 9].
  const int op = spans.add_op(0.0, 10.0);
  const int a = spans.add("core.a", 1.0, 4.0, op);
  spans.add("pc.c", 2.0, 3.0, a);
  spans.add("history.b", 5.0, 9.0, op);
  // A second op recorded through scopes, with real clock readings.
  {
    auto root = spans.op();
    auto outer = spans.span("core.outer");
    { auto inner = spans.span("metrics.inner"); }
  }
  const Ledger ledger = build_ledger(spans);
  ASSERT_EQ(ledger.ops, 2u);
  EXPECT_DOUBLE_EQ(ledger.row("core.a")->self_ms, 2.0);
  EXPECT_DOUBLE_EQ(ledger.row("pc.c")->self_ms, 1.0);
  EXPECT_DOUBLE_EQ(ledger.row("history.b")->self_ms, 4.0);
  EXPECT_DOUBLE_EQ(ledger.op_residual_ms[0], 3.0);
  double self_total = ledger.residual_ms;
  for (const LedgerRow& r : ledger.rows) self_total += r.self_ms;
  EXPECT_NEAR(self_total, ledger.wall_ms, 1e-9);
  for (std::size_t k = 0; k < ledger.ops; ++k)
    EXPECT_NEAR(ledger.op_accounted_ms[k] + ledger.op_residual_ms[k], ledger.op_wall_ms[k], 1e-9);
}

TEST(Ledger, DisabledRecorderRecordsNothing) {
  SpanRecorder spans(false);
  {
    auto root = spans.op();
    auto s = spans.span("core.x");
  }
  spans.count("pc.pairs_tested", 3);
  EXPECT_TRUE(spans.spans().empty());
  EXPECT_TRUE(spans.counters().empty());
}

class Checks : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::DiagnosisSession session("tester");
    result_ = new pc::DiagnosisResult(session.diagnose());
  }
  static void TearDownTestSuite() { delete result_; }
  static pc::DiagnosisResult* result_;
};
pc::DiagnosisResult* Checks::result_ = nullptr;

TEST_F(Checks, TamperedBottleneckChangesTheResultBytes) {
  ASSERT_FALSE(result_->bottlenecks.empty());
  const std::string reference = result_bytes("tester", *result_);
  pc::DiagnosisResult tampered = *result_;
  tampered.bottlenecks.back().fraction += 1e-9;
  EXPECT_NE(result_bytes("tester", tampered), reference);
  tampered = *result_;
  tampered.bottlenecks.pop_back();
  EXPECT_NE(result_bytes("tester", tampered), reference);
}

TEST_F(Checks, TamperedServedResultFails) {
  const std::string expected = result_bytes("tester", *result_);
  const std::string body =
      "{\"result\":" + expected + ",\"server\":{\"warm_view\":true,\"wall_ms\":0.5}}\n";
  EXPECT_TRUE(served_result_matches(expected, 200, body));
  EXPECT_FALSE(served_result_matches(expected, 429, body));
  std::string flipped = body;
  flipped[std::string("{\"result\":").size() + expected.size() / 2] ^= 1;
  EXPECT_FALSE(served_result_matches(expected, 200, flipped));
  EXPECT_FALSE(served_result_matches(expected, 200, "{\"result\":" + expected + "}"));
}

TEST_F(Checks, MissingInjectionIsNotReported) {
  const Injection inj{"hot_function", result_->bottlenecks.front().hypothesis,
                      result_->bottlenecks.front().focus};
  EXPECT_TRUE(reported(inj, result_->bottlenecks));
  std::vector<pc::BottleneckReport> without = result_->bottlenecks;
  std::erase_if(without, [&](const pc::BottleneckReport& b) {
    return b.focus.find(inj.focus_part) != std::string::npos;
  });
  EXPECT_FALSE(reported(inj, without));
}

}  // namespace
}  // namespace histpc::e2e
