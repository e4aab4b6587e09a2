#include "core/variant_runner.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>

#include "history/generator.h"
#include "util/thread_pool.h"

namespace histpc::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

pc::TelemetrySummary combine_telemetry(const std::vector<VariantOutcome>& outcomes) {
  pc::TelemetrySummary combined;
  double weighted_cost = 0.0;
  double total_weight = 0.0;
  for (const VariantOutcome& o : outcomes) {
    const pc::TelemetrySummary& t = o.result.telemetry;
    combined.pairs_tested += t.pairs_tested;
    combined.conclusions_true += t.conclusions_true;
    combined.conclusions_false += t.conclusions_false;
    combined.refinements += t.refinements;
    combined.prune_hits_subtree += t.prune_hits_subtree;
    combined.prune_hits_pair += t.prune_hits_pair;
    combined.priority_seeds += t.priority_seeds;
    combined.cost_gate_engagements += t.cost_gate_engagements;
    combined.peak_cost = std::max(combined.peak_cost, t.peak_cost);
    const double weight = o.result.stats.end_time;
    weighted_cost += t.avg_cost * weight;
    total_weight += weight;
    for (const auto& [name, secs] : t.phase_seconds) combined.phase_seconds[name] += secs;
  }
  combined.avg_cost = total_weight > 0.0 ? weighted_cost / total_weight : 0.0;
  return combined;
}

VariantRunReport run_variants(const metrics::TraceView& view,
                              const std::vector<DiagnosisVariant>& variants,
                              int threads) {
  VariantRunReport report;
  if (variants.empty()) return report;

  const int n = std::clamp(util::ThreadPool::resolve(threads), 1,
                           static_cast<int>(variants.size()));
  report.threads = n;

  const auto bundle_start = std::chrono::steady_clock::now();
  report.outcomes.resize(variants.size());
  std::vector<std::exception_ptr> errors(variants.size());

  {
    util::ThreadPool pool(n);
    for (std::size_t i = 0; i < variants.size(); ++i) {
      pool.submit([&, i] {
        const auto start = std::chrono::steady_clock::now();
        try {
          pc::PerformanceConsultant consultant(view, variants[i].config,
                                               variants[i].directives);
          report.outcomes[i].result = consultant.run();
        } catch (...) {
          errors[i] = std::current_exception();
        }
        report.outcomes[i].name = variants[i].name;
        report.outcomes[i].wall_seconds = seconds_since(start);
      });
    }
    pool.wait_idle();
  }

  // Rethrow in input order so failures are deterministic regardless of
  // which worker hit them first.
  for (std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  report.combined = combine_telemetry(report.outcomes);
  report.wall_seconds = seconds_since(bundle_start);
  return report;
}

std::vector<DiagnosisVariant> table1_variants(const history::ExperimentRecord& record,
                                              const pc::PcConfig& base) {
  struct Spec {
    const char* name;
    history::GeneratorOptions options;
    bool use_directives = true;
  };
  std::vector<Spec> specs;
  {
    Spec s;
    s.name = "No Directives";
    s.use_directives = false;
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "Prunes Only";
    s.options.priorities = false;
    s.options.false_pair_prunes = true;
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "General Prunes Only";
    s.options.priorities = false;
    s.options.historic_prunes = false;
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "Historic Prunes Only";
    s.options.priorities = false;
    s.options.general_prunes = false;
    s.options.false_pair_prunes = true;
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "Priorities Only";
    s.options.general_prunes = false;
    s.options.historic_prunes = false;
    specs.push_back(s);
  }
  {
    // The paper's combined variant: hierarchy/resource prunes plus
    // priorities, but no pair prunes of previously-false tests, so new
    // behaviours can never be missed.
    Spec s;
    s.name = "Priorities & All Prunes";
    specs.push_back(s);
  }

  std::vector<DiagnosisVariant> variants;
  variants.reserve(specs.size());
  for (const Spec& s : specs) {
    DiagnosisVariant v;
    v.name = s.name;
    v.config = base;
    if (s.use_directives)
      v.directives = history::DirectiveGenerator(s.options).from_record(record);
    variants.push_back(std::move(v));
  }
  return variants;
}

}  // namespace histpc::core
