// history_cycle: the paper's tuning loop over Poisson versions A -> B -> C
// -> D, each run on renamed nodes, against a store holding a few hundred
// earlier runs. The only workload where the history layer and the
// directive-directed search do most of the work.
#include <algorithm>
#include <cctype>
#include <optional>

#include "history/generator.h"
#include "history/mapper.h"
#include "history/similarity.h"
#include "history/store.h"
#include "probes.h"
#include "simmpi/trace_cache.h"
#include "util/rng.h"
#include "workloads.h"

namespace histpc::e2e {

namespace {

constexpr char kVersions[] = {'A', 'B', 'C', 'D'};
constexpr std::size_t kNodeBases = 3;
// 4 versions x 3 node bases x 25 copies = 300 pre-filled runs.
constexpr std::size_t kPrefillCopies = 25;
// Harvest input: the newest kCandidates pre-filled runs of the previous
// version, of which select_similar_runs keeps kMaxRuns.
constexpr std::size_t kCandidates = 16;
constexpr std::size_t kMaxRuns = 8;
constexpr double kDuration = 1500.0;

std::string app_for(char version) {
  return std::string("poisson_") + static_cast<char>(std::tolower(version));
}

char previous(char version) { return version == 'A' ? 'D' : static_cast<char>(version - 1); }

class HistoryCycle final : public ClosedLoop {
 public:
  explicit HistoryCycle(std::uint64_t seed) : seed_(seed) {}

  void setup(const std::string& dir) override {
    config_.trace_cache_dir = dir + "/trace-cache";
    store_.emplace(dir + "/store");
    util::Rng rng(seed_);
    while (node_bases_.size() < kNodeBases) {
      const int base = 1 + 8 * static_cast<int>(rng.next_below(8));
      if (std::find(node_bases_.begin(), node_bases_.end(), base) == node_bases_.end())
        node_bases_.push_back(base);
    }

    // Fill the trace cache, pre-fill the store, and keep one session per
    // input (simulated without the cache) for the reference results.
    const simmpi::TraceCache cache({config_.trace_cache_dir});
    std::vector<std::unique_ptr<core::DiagnosisSession>> sessions;
    for (int base : node_bases_) {
      for (char v : kVersions) {
        const std::string app = app_for(v);
        const apps::AppParams params = params_for(base);
        const simmpi::SimProgram program = apps::build_app(app, params);
        const simmpi::NetworkModel net = apps::network_for(app);
        simmpi::ExecutionTrace trace = simmpi::Simulator(net).run(program);
        cache.store(simmpi::trace_content_key(program, net), trace);
        auto session = std::make_unique<core::DiagnosisSession>(std::move(trace), pc::PcConfig{}, app);
        const pc::DiagnosisResult base_result = session->diagnose();
        Reference ref;
        ref.undirected = result_bytes(app, base_result);
        history::ExperimentRecord record = session->make_record(base_result, std::string(1, v));
        record.scenario = "prefill";
        for (std::size_t c = 0; c < kPrefillCopies; ++c) store_->save(record);
        record.scenario = "cycle";
        ref.record = std::move(record);
        refs_[{v, base}] = std::move(ref);
        sessions.push_back(std::move(session));
      }
    }
    // Directed references: the harvest reads only pre-filled runs, so it
    // gives the same directives at every step of the run.
    SpanRecorder off(false);
    std::size_t k = 0;
    for (int base : node_bases_) {
      for (char v : kVersions) {
        Reference& ref = refs_[{v, base}];
        core::DiagnosisSession& session = *sessions[k++];
        const pc::DirectiveSet directives = harvest(v, ref.record, session.view(), off);
        ref.directed = result_bytes(app_for(v), session.diagnose(directives));
      }
    }
  }

  std::size_t cycle() const override { return 4 * kNodeBases; }

  std::string label(std::size_t i) const override { return app_for(kVersions[i % 4]); }

  Op run(std::size_t i, SpanRecorder& spans) override {
    const char v = kVersions[i % 4];
    const int base = node_bases_[(i / 4) % node_bases_.size()];
    const std::string app = app_for(v);
    const Reference& ref = refs_.at({v, base});

    Op op;
    SessionSpan built;
    std::unique_ptr<core::DiagnosisSession> session;
    pc::DiagnosisResult undirected;
    pc::DiagnosisResult directed;
    const auto t0 = Clock::now();
    {
      auto root = spans.op();
      session = session_for_app(app, params_for(base), config_, spans, &built);
      undirected = diagnose(*session, {}, spans);
      history::ExperimentRecord record;
      {
        auto s = spans.span("history.record_build");
        record = session->make_record(undirected, std::string(1, v));
        record.scenario = "cycle";
      }
      {
        auto s = spans.span("history.store_save");
        store_->save(record);
      }
      const pc::DirectiveSet directives = harvest(v, record, session->view(), spans);
      directed = diagnose(*session, directives, spans);
    }
    op.wall_ms = ms_between(t0, Clock::now());
    split_session_span(built, *session, spans);
    op.ok = result_bytes(app, undirected) == ref.undirected &&
            result_bytes(app, directed) == ref.directed;
    return op;
  }

  std::map<std::string, double> layer_values() const override {
    return {{"history.store_runs", static_cast<double>(store_->summaries().size())}};
  }

 private:
  struct Reference {
    history::ExperimentRecord record;  ///< the step's own record (similarity reference)
    std::string undirected;  ///< result_bytes of the reference diagnoses
    std::string directed;
  };

  static apps::AppParams params_for(int node_base) {
    apps::AppParams p;
    p.target_duration = kDuration;
    p.node_base = node_base;
    return p;
  }

  /// Directives for a run of `version` from the stored runs of the
  /// previous version: index query, similar-run selection and weighted
  /// harvest, then node mappings onto this run's resources.
  pc::DirectiveSet harvest(char version, const history::ExperimentRecord& reference,
                           const metrics::TraceView& view, SpanRecorder& spans) const {
    const history::StoreQuery query{"poisson", std::string(1, previous(version)), "", "prefill"};
    std::vector<history::ExperimentRecord> candidates;
    std::optional<history::ExperimentRecord> mapping_source;
    {
      auto s = spans.span("history.index_query");
      const std::vector<history::IndexEntry> entries = store_->summaries(query);
      const std::size_t first = entries.size() > kCandidates ? entries.size() - kCandidates : 0;
      for (std::size_t e = first; e < entries.size(); ++e)
        if (auto rec = store_->try_load(entries[e].run_id)) candidates.push_back(std::move(*rec));
      mapping_source = store_->latest(query);
    }
    pc::DirectiveSet directives;
    {
      auto s = spans.span("history.harvest");
      std::vector<history::ExperimentRecord> runs;
      for (const history::SelectedRun& sel :
           history::select_similar_runs(candidates, reference, kMaxRuns))
        for (const history::ExperimentRecord& c : candidates)
          if (c.run_id == sel.run_id) runs.push_back(c);
      directives = generator_.from_records_weighted(runs);
    }
    {
      auto s = spans.span("history.map");
      directives.maps = history::suggest_mappings(mapping_source->resources, view.resources());
    }
    return directives;
  }

  std::uint64_t seed_;
  pc::PcConfig config_;
  std::optional<history::ExperimentStore> store_;
  history::DirectiveGenerator generator_;
  std::vector<int> node_bases_;
  std::map<std::pair<char, int>, Reference> refs_;
};

}  // namespace

std::unique_ptr<ClosedLoop> make_history_cycle(std::uint64_t seed) {
  return std::make_unique<HistoryCycle>(seed);
}

}  // namespace histpc::e2e
