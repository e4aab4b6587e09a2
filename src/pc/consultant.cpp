#include "pc/consultant.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/log.h"

namespace histpc::pc {

double DiagnosisResult::time_to_find(const std::vector<BottleneckReport>& reference,
                                     double percent) const {
  if (reference.empty() || percent <= 0.0)
    return 0.0;
  std::vector<double> found_times;
  for (const BottleneckReport& ref : reference) {
    for (const BottleneckReport& b : bottlenecks) {
      if (b.hypothesis == ref.hypothesis && b.focus == ref.focus) {
        found_times.push_back(b.t_found);
        break;
      }
    }
  }
  const std::size_t needed = static_cast<std::size_t>(
      std::ceil(percent / 100.0 * static_cast<double>(reference.size()) - 1e-9));
  if (found_times.size() < needed) return std::numeric_limits<double>::infinity();
  std::sort(found_times.begin(), found_times.end());
  return needed == 0 ? 0.0 : found_times[needed - 1];
}

util::Json TelemetrySummary::to_json() const {
  util::Json j = util::Json::object();
  j["pairs_tested"] = pairs_tested;
  j["conclusions_true"] = conclusions_true;
  j["conclusions_false"] = conclusions_false;
  j["refinements"] = refinements;
  j["prune_hits_subtree"] = prune_hits_subtree;
  j["prune_hits_pair"] = prune_hits_pair;
  j["priority_seeds"] = priority_seeds;
  j["cost_gate_engagements"] = cost_gate_engagements;
  j["peak_cost"] = peak_cost;
  j["avg_cost"] = avg_cost;
  util::Json phases = util::Json::object();
  for (const auto& [name, seconds] : phase_seconds) phases[name] = seconds;
  j["phase_seconds"] = std::move(phases);
  return j;
}

namespace {

DirectiveSet with_mappings_applied(DirectiveSet set) {
  set.apply_mappings();
  return set;
}

}  // namespace

PerformanceConsultant::PerformanceConsultant(const metrics::TraceView& view, PcConfig config,
                                             DirectiveSet directives)
    : view_(view),
      foci_(view.foci()),
      config_(std::move(config)),
      directives_(with_mappings_applied(std::move(directives))),
      // Compiled from the mapped set: the index must see the rewritten
      // resource names.
      directive_index_(directives_, foci_, config_.hypotheses),
      tracer_(config_.trace_sink),
      instr_(view, config_.cost_model, config_.insertion_latency,
             config_.perturbation_factor, &tracer_),
      shg_(config_.hypotheses, foci_) {
  if (config_.tick <= 0 || config_.min_observation <= 0)
    throw std::invalid_argument("PcConfig: tick and min_observation must be positive");
  sync_idx_ = view_.resources().hierarchy_index(resources::kSyncObjectHierarchy);
  scope_pids_.assign(config_.hypotheses.size(), resources::kNoPart);
  thresholds_by_hyp_.reserve(config_.hypotheses.size());
  for (std::size_t i = 0; i < config_.hypotheses.size(); ++i) {
    const Hypothesis& h = config_.hypotheses.at(static_cast<int>(i));
    if (!h.sync_scope.empty() && sync_idx_ >= 0)
      scope_pids_[i] = foci_.part_id(static_cast<std::size_t>(sync_idx_), h.sync_scope);
    double t = h.default_threshold;
    if (config_.threshold_override > 0) t = config_.threshold_override;
    if (auto d = directive_index_.threshold_for(static_cast<int>(i))) t = *d;
    thresholds_by_hyp_.push_back(t);
  }
}

void PerformanceConsultant::trace_event(telemetry::EventKind kind, double t, int hyp,
                                        const std::string& focus_name, double value,
                                        double threshold, const char* detail) {
  if (!tracer_.tracing()) return;
  telemetry::Event e;
  e.kind = kind;
  e.t = t;
  if (hyp >= 0) e.hypothesis = config_.hypotheses.at(hyp).name;
  e.focus = focus_name;
  e.value = value;
  e.threshold = threshold;
  e.cost = instr_.total_cost();
  e.detail = detail;
  tracer_.emit(std::move(e));
}

void PerformanceConsultant::note_prune_hit(DirectiveSet::PruneKind kind, int hyp,
                                           resources::FocusId fid, double now) {
  ++pruned_candidates_;
  const bool pair = kind == DirectiveSet::PruneKind::Pair;
  tracer_.registry().add(pair ? "pc.prune_hit.pair" : "pc.prune_hit.subtree");
  if (tracer_.tracing())
    trace_event(telemetry::EventKind::PruneHit, now, hyp, foci_.name(fid), 0.0, 0.0,
                pair ? "pair" : "subtree");
}

std::optional<resources::FocusId> PerformanceConsultant::probe_focus(
    int hyp, resources::FocusId focus) const {
  const resources::PartId scope = scope_pids_[static_cast<std::size_t>(hyp)];
  if (scope == resources::kNoPart || sync_idx_ < 0) return focus;
  const auto uidx = static_cast<std::size_t>(sync_idx_);
  const resources::PartId part = foci_.part(focus, uidx);
  if (foci_.part_within(uidx, part, scope)) return focus;  // already inside the scope
  if (foci_.part_within(uidx, scope, part))                // root or an ancestor: narrow it
    return foci_.with_part(focus, uidx, scope);
  return std::nullopt;  // disjoint: the pair can never be true
}

void PerformanceConsultant::seed_high_priority_nodes() {
  for (const PriorityDirective& d : directives_.priorities) {
    if (d.priority != Priority::High) continue;
    auto hyp = config_.hypotheses.index_of(d.hypothesis);
    if (!hyp) {
      HISTPC_LOG(Debug) << "skipping priority directive for unknown hypothesis " << d.hypothesis;
      continue;
    }
    auto fid = foci_.parse(d.focus);
    if (!fid) {
      // Unmapped or version-specific resource; the paper's mapper handles
      // most of these, the remainder are silently dropped as in Paradyn.
      HISTPC_LOG(Debug) << "skipping priority directive with unresolvable focus " << d.focus;
      continue;
    }
    if (!probe_focus(*hyp, *fid)) continue;  // scope-incompatible pair
    if (directive_index_.is_pruned(*hyp, *fid)) continue;
    const int id = shg_.add_node(*hyp, *fid, shg_.root(), 0.0);
    ShgNode& n = shg_.node(id);
    if (n.status != NodeStatus::Pending || n.probe != instr::kNoProbe) continue;  // deduped
    n.priority = Priority::High;
    n.persistent = config_.persistent_high_priority;
    tracer_.registry().add("pc.priority_seed");
    if (tracer_.tracing())
      trace_event(telemetry::EventKind::PrioritySeed, 0.0, *hyp, shg_.focus_name(id));
    // Queued ahead of everything else: instrumented from search start, but
    // still subject to the instrumentation cost ceiling (a large seed set
    // is enabled in throttled waves, exactly like ordinary expansion).
    enqueue(id);
  }
}

void PerformanceConsultant::seed_top_level() {
  const resources::FocusId whole = foci_.whole_program();
  for (int hyp : config_.hypotheses.roots()) {
    if (auto kind = directive_index_.prune_match(hyp, whole);
        kind != DirectiveSet::PruneKind::None) {
      note_prune_hit(kind, hyp, whole, 0.0);
      continue;
    }
    int id = shg_.add_node(hyp, whole, shg_.root(), 0.0);
    ShgNode& n = shg_.node(id);
    if (n.status == NodeStatus::Pending && n.probe == instr::kNoProbe) {
      n.priority = directive_index_.priority_of(hyp, whole);
      enqueue(id);
    }
  }
}

void PerformanceConsultant::enqueue(int id) {
  switch (shg_.node(id).priority) {
    case Priority::High: queue_high_.push_back(id); break;
    case Priority::Medium: queue_medium_.push_back(id); break;
    case Priority::Low: queue_low_.push_back(id); break;
  }
}

int PerformanceConsultant::pop_pending() {
  for (auto* q : {&queue_high_, &queue_medium_, &queue_low_}) {
    while (!q->empty()) {
      int id = q->front();
      q->pop_front();
      if (shg_.node(id).status == NodeStatus::Pending) return id;
    }
  }
  return -1;
}

void PerformanceConsultant::activate(int id, double now) {
  ShgNode& n = shg_.node(id);
  const Hypothesis& h = config_.hypotheses.at(n.hyp);
  // Node creation rejects scope-incompatible pairs, so the adjusted focus
  // always exists here.
  n.probe = instr_.insert(h.metric, *probe_focus(n.hyp, n.fid), now);
  n.status = NodeStatus::Active;
  n.activate_time = now;
  active_.push_back(id);
  ++unconcluded_active_;
  tracer_.registry().add("pc.instrument");
  if (tracer_.tracing())
    trace_event(telemetry::EventKind::Instrument, now, n.hyp, shg_.focus_name(id),
                instr_.probe_cost(n.probe), threshold_for(n.hyp));
  HISTPC_LOG(Trace) << "t=" << now << " activate " << h.name << " : " << shg_.focus_name(id)
                    << " (cost " << instr_.probe_cost(n.probe) << ", total "
                    << instr_.total_cost() << ")";
}

void PerformanceConsultant::activate_pending(double now) {
  // Expansion is throttled, not strictly capped: activation proceeds while
  // the running total is below the limit, so one node may overshoot. This
  // guarantees progress even for probes individually costlier than the
  // limit. The persistent high-priority baseline is excluded from the
  // meter (it was deliberately enabled at search start).
  while (instr_.total_cost() - persistent_cost_ < config_.cost_limit) {
    int id = pop_pending();
    if (cost_gated_) {
      // Cost fell back under the ceiling: expansion resumes (or the queue
      // drained while gated — the stall is over either way).
      cost_gated_ = false;
      tracer_.registry().add("pc.cost_gate_release");
      trace_event(telemetry::EventKind::CostGate, now, -1, std::string(),
                  instr_.total_cost() - persistent_cost_, config_.cost_limit,
                  "released");
    }
    if (id < 0) return;
    activate(id, now);
  }
  // The ceiling halted expansion with work still queued: record the
  // engagement edge (one event per stall, not one per tick).
  if (!cost_gated_ && has_pending()) {
    cost_gated_ = true;
    tracer_.registry().add("pc.cost_gate");
    trace_event(telemetry::EventKind::CostGate, now, -1, std::string(),
                instr_.total_cost() - persistent_cost_, config_.cost_limit, "engaged");
  }
}

void PerformanceConsultant::consider_candidate(int hyp, resources::FocusId fid, int parent,
                                               double now) {
  if (!probe_focus(hyp, fid)) return;  // scope-incompatible, never true
  if (auto kind = directive_index_.prune_match(hyp, fid);
      kind != DirectiveSet::PruneKind::None) {
    note_prune_hit(kind, hyp, fid, now);
    return;
  }
  if (config_.respect_discovery_times) {
    double available = 0.0;
    for (std::size_t h = 0; h < foci_.num_hierarchies(); ++h) {
      const resources::PartId pid = foci_.part(fid, h);
      const resources::ResourceId rid = resources::FocusTable::part_resource(pid);
      available = std::max(available, rid != resources::kNoResource
                                          ? view_.discovery_time(h, rid)
                                          : view_.discovery_time(foci_.part_name(h, pid)));
    }
    if (available > now) {
      // Not yet observable: retried once the resource has appeared.
      if (std::isfinite(available)) deferred_.push_back({hyp, fid, parent, available});
      return;
    }
  }
  int cid = shg_.add_node(hyp, fid, parent, now);
  ShgNode& cn = shg_.node(cid);
  if (cn.status == NodeStatus::Pending && cn.probe == instr::kNoProbe &&
      cn.enqueue_time == now && cn.parents.size() == 1 && cn.parents.front() == parent) {
    // Freshly created by this refinement: assign priority and queue it.
    cn.priority = directive_index_.priority_of(hyp, fid);
    enqueue(cid);
  }
}

void PerformanceConsultant::release_discovered(double now) {
  if (deferred_.empty()) return;
  std::vector<DeferredCandidate> still_waiting;
  std::vector<DeferredCandidate> ripe;
  for (auto& c : deferred_) {
    (c.available_at <= now ? ripe : still_waiting).push_back(std::move(c));
  }
  deferred_ = std::move(still_waiting);
  for (const auto& c : ripe) consider_candidate(c.hyp, c.fid, c.parent, now);
}

void PerformanceConsultant::refine(int id, double now) {
  // Copy what we need up front: add_node() may grow the SHG's node vector
  // and invalidate references into it.
  const int parent_hyp = shg_.node(id).hyp;
  tracer_.registry().add("pc.refine");
  if (tracer_.tracing())
    trace_event(telemetry::EventKind::Refine, now, parent_hyp, shg_.focus_name(id));

  const resources::FocusId parent_fid = shg_.node(id).fid;
  // Expansion kind 1: a more specific focus, same hypothesis. The
  // refinement list is memoized in the table; the reference is stable
  // across the interns consider_candidate performs.
  for (resources::FocusId child : foci_.refinements(parent_fid))
    consider_candidate(parent_hyp, child, id, now);
  // Expansion kind 2: a more specific hypothesis, same focus.
  for (int child_hyp : config_.hypotheses.at(parent_hyp).children)
    consider_candidate(child_hyp, parent_fid, id, now);
}

void PerformanceConsultant::conclude(int id, const instr::ProbeSample& sample, double now) {
  {
    ShgNode& n = shg_.node(id);
    const Hypothesis& h = config_.hypotheses.at(n.hyp);
    n.fraction = sample.fraction;
    n.conclude_time = now;
    --unconcluded_active_;
    const double threshold = threshold_for(n.hyp);
    const bool is_true = sample.fraction >= threshold;
    if (is_true) {
      n.status = NodeStatus::True;
      n.first_true_time = now;
      found_.push_back({id, now, sample.fraction});
      tracer_.registry().add("pc.conclude_true");
      if (tracer_.tracing())
        trace_event(telemetry::EventKind::ConcludeTrue, now, n.hyp, shg_.focus_name(id),
                    sample.fraction, threshold);
      HISTPC_LOG(Debug) << "t=" << now << " TRUE " << h.name << " : " << shg_.focus_name(id)
                        << " (" << sample.fraction << ")";
    } else {
      n.status = NodeStatus::False;
      tracer_.registry().add("pc.conclude_false");
      if (tracer_.tracing())
        trace_event(telemetry::EventKind::ConcludeFalse, now, n.hyp, shg_.focus_name(id),
                    sample.fraction, threshold);
      HISTPC_LOG(Trace) << "t=" << now << " false " << h.name << " : " << shg_.focus_name(id)
                        << " (" << sample.fraction << ")";
    }
  }
  // refine() can reallocate the SHG node storage; re-read the node after.
  if (shg_.node(id).status == NodeStatus::True) refine(id, now);
  const ShgNode& n = shg_.node(id);
  if (n.persistent) {
    // The probe stays for the rest of the run, but settled monitoring is
    // cheap (low-frequency sampling); it leaves the expansion meter.
    persistent_cost_ += instr_.probe_cost(n.probe);
  } else {
    instr_.remove(n.probe);
    active_.erase(std::find(active_.begin(), active_.end(), id));
  }
}

void PerformanceConsultant::check_persistent_flip(int id, const instr::ProbeSample& sample,
                                                  double now) {
  bool flipped = false;
  {
    ShgNode& n = shg_.node(id);
    n.fraction = sample.fraction;
    const double threshold = threshold_for(n.hyp);
    if (n.status == NodeStatus::False && sample.fraction >= threshold) {
      // A behaviour that emerged after the first conclusion: persistent
      // testing catches it (the reason high-priority pairs stay
      // instrumented for the whole run).
      n.status = NodeStatus::True;
      n.first_true_time = now;
      found_.push_back({id, now, sample.fraction});
      tracer_.registry().add("pc.conclude_true");
      if (tracer_.tracing())
        trace_event(telemetry::EventKind::ConcludeTrue, now, n.hyp, shg_.focus_name(id),
                    sample.fraction, threshold, "persistent_flip");
      flipped = true;
    }
  }
  if (flipped) refine(id, now);  // may reallocate SHG nodes
}

bool PerformanceConsultant::has_pending() const {
  for (const auto* q : {&queue_high_, &queue_medium_, &queue_low_})
    for (int id : *q)
      if (shg_.node(id).status == NodeStatus::Pending) return true;
  return false;
}

bool PerformanceConsultant::search_finished() const {
  if (unconcluded_active_ > 0) return false;
  if (!deferred_.empty()) return false;  // resources still to be discovered
  // Persistent pairs are tested "throughout the entire program run": while
  // any are live, keep ticking so late-emerging behaviours can flip them.
  if (persistent_cost_ > 0.0) return false;
  for (const auto* q : {&queue_high_, &queue_medium_, &queue_low_})
    for (int id : *q)
      if (shg_.node(id).status == NodeStatus::Pending) return false;
  return true;
}

DiagnosisResult PerformanceConsultant::run() {
  if (ran_) throw std::logic_error("PerformanceConsultant::run called twice");
  ran_ = true;

  trace_event(telemetry::EventKind::PhaseBegin, 0.0, -1, std::string(), 0.0, 0.0,
              "search");
  seed_high_priority_nodes();
  seed_top_level();

  const double horizon = view_.trace().duration;
  const auto wall_start = std::chrono::steady_clock::now();
  double t = 0.0;
  activate_pending(t);
  while (t < horizon) {
    if (search_finished()) break;
    // Deadline propagation: a served request's wall budget ends the search
    // at a tick boundary, so the partial result is a well-formed prefix
    // (every reported conclusion used the normal observation window).
    if (config_.wall_budget_seconds > 0.0 &&
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
                .count() >= config_.wall_budget_seconds) {
      deadline_hit_ = true;
      tracer_.registry().add("pc.deadline_hit");
      break;
    }
    const double t_prev = t;
    t = std::min(t + config_.tick, horizon);
    cost_integral_ += instr_.total_cost() * (t - t_prev);
    {
      telemetry::ScopedTimer timer(tracer_.registry(), "pc.advance");
      instr_.advance(t);
    }
    release_discovered(t);
    {
      telemetry::ScopedTimer timer(tracer_.registry(), "pc.evaluate");
      // Snapshot: conclusions may refine, which appends to active_.
      const std::vector<int> active_now = active_;
      for (int id : active_now) {
        ShgNode& n = shg_.node(id);
        if (n.probe == instr::kNoProbe || !instr_.is_active(n.probe)) continue;
        const instr::ProbeSample sample = instr_.read(n.probe);
        if (n.status == NodeStatus::Active) {
          if (sample.observed >= config_.min_observation) conclude(id, sample, t);
        } else if (n.persistent) {
          check_persistent_flip(id, sample, t);
        }
      }
    }
    {
      telemetry::ScopedTimer timer(tracer_.registry(), "pc.expand");
      activate_pending(t);
    }
  }
  trace_event(telemetry::EventKind::PhaseEnd, t, -1, std::string(), 0.0, 0.0, "search");
  return build_result(t);
}

DiagnosisResult PerformanceConsultant::build_result(double end_time) {
  DiagnosisResult result;
  result.bottlenecks.reserve(found_.size());
  for (const Found& f : found_)
    result.bottlenecks.push_back(
        {shg_.hypothesis_name(f.id), shg_.focus_name(f.id), f.t, f.fraction});
  std::stable_sort(result.bottlenecks.begin(), result.bottlenecks.end(),
                   [](const BottleneckReport& a, const BottleneckReport& b) {
                     return a.t_found < b.t_found;
                   });
  for (std::size_t i = 1; i < shg_.size(); ++i) {
    ShgNode& n = shg_.node(static_cast<int>(i));
    if (n.status == NodeStatus::Pending || n.status == NodeStatus::Active) {
      // The program ended before this pair could be (fully) tested — the
      // paper's "stopped before completion due to cost limits".
      if (n.status == NodeStatus::Active) --unconcluded_active_;
      n.status = NodeStatus::NeverRan;
    }
    NodeSnapshot snap;
    snap.hypothesis = shg_.hypothesis_name(static_cast<int>(i));
    snap.focus = shg_.focus_name(static_cast<int>(i));
    snap.status = n.status;
    snap.priority = n.priority;
    snap.conclude_time = n.conclude_time;
    snap.fraction = n.fraction;
    result.nodes.push_back(std::move(snap));
  }
  result.stats.nodes_created = shg_.size() - 1;
  result.stats.pairs_tested = instr_.total_inserted();
  result.stats.pruned_candidates = pruned_candidates_;
  result.stats.bottlenecks = result.bottlenecks.size();
  result.stats.end_time = end_time;
  result.stats.last_true_time =
      result.bottlenecks.empty() ? 0.0 : result.bottlenecks.back().t_found;
  result.stats.peak_cost = instr_.peak_cost();
  result.stats.deadline_hit = deadline_hit_;

  const telemetry::Registry& reg = tracer_.registry();
  TelemetrySummary& tel = result.telemetry;
  tel.pairs_tested = instr_.total_inserted();
  tel.conclusions_true = reg.counter("pc.conclude_true");
  tel.conclusions_false = reg.counter("pc.conclude_false");
  tel.refinements = reg.counter("pc.refine");
  tel.prune_hits_subtree = reg.counter("pc.prune_hit.subtree");
  tel.prune_hits_pair = reg.counter("pc.prune_hit.pair");
  tel.priority_seeds = reg.counter("pc.priority_seed");
  tel.cost_gate_engagements = reg.counter("pc.cost_gate");
  tel.peak_cost = instr_.peak_cost();
  tel.avg_cost = end_time > 0.0 ? cost_integral_ / end_time : 0.0;
  for (const auto& [name, stat] : reg.timers())
    tel.phase_seconds[name] = stat.seconds;
  return result;
}

}  // namespace histpc::pc
