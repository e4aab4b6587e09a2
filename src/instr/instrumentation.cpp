#include "instr/instrumentation.h"

#include <algorithm>
#include <stdexcept>

#include "metrics/metric.h"

namespace histpc::instr {

InstrumentationManager::InstrumentationManager(const metrics::TraceView& view,
                                               CostModel cost_model, double insertion_latency,
                                               double perturbation_factor, bool batched,
                                               telemetry::Tracer* tracer)
    : view_(view),
      cost_model_(cost_model),
      insertion_latency_(insertion_latency),
      perturbation_factor_(perturbation_factor),
      tracer_(tracer) {
  if (insertion_latency < 0) throw std::invalid_argument("negative insertion latency");
  if (perturbation_factor < 0) throw std::invalid_argument("negative perturbation factor");
  if (batched)
    batch_ = std::make_unique<metrics::MetricBatch>(
        view_, tracer_ ? &tracer_->registry() : nullptr);
}

ProbeId InstrumentationManager::insert(metrics::MetricKind metric,
                                       const resources::Focus& focus, double now) {
  // The compiled-filter cache makes repeated insertions over the same
  // focus (and the cost model's compile of it) a hash lookup.
  const metrics::FocusFilter& filter = view_.compiled(focus);
  return insert_probe(metric, filter, cost_model_.probe_cost(view_, focus, metric), now,
                      tracer_ && tracer_->tracing() ? focus.name() : std::string());
}

ProbeId InstrumentationManager::insert(metrics::MetricKind metric,
                                       resources::FocusId focus, double now) {
  const metrics::FocusFilter& filter = view_.compiled(focus);
  return insert_probe(metric, filter, cost_model_.probe_cost(view_, focus, metric), now,
                      tracer_ && tracer_->tracing() ? view_.foci().name(focus)
                                                    : std::string());
}

ProbeId InstrumentationManager::insert_probe(metrics::MetricKind metric,
                                             const metrics::FocusFilter& filter,
                                             double cost, double now,
                                             std::string focus_name_if_tracing) {
  Probe p;
  p.metric = metric;
  p.selected_ranks = filter.num_selected_ranks;
  p.cost = cost;
  if (batch_) {
    p.slot = batch_->add(metric, filter, now + insertion_latency_);
  } else {
    p.instance.emplace(view_, metric, filter, now + insertion_latency_);
  }
  p.active = true;
  p.focus_name = std::move(focus_name_if_tracing);
  probes_.push_back(std::move(p));
  total_cost_ += probes_.back().cost;
  peak_cost_ = std::max(peak_cost_, total_cost_);
  ++total_inserted_;
  ++num_active_;
  last_time_ = std::max(last_time_, now);
  if (tracer_) {
    tracer_->registry().add("instr.inserts");
    tracer_->registry().gauge_max("instr.peak_cost", peak_cost_);
    if (tracer_->tracing()) {
      telemetry::Event e;
      e.kind = telemetry::EventKind::ProbeInsert;
      e.t = now;
      e.focus = probes_.back().focus_name;
      e.value = probes_.back().cost;
      e.cost = total_cost_;
      e.detail = metrics::metric_name(metric);
      tracer_->emit(std::move(e));
    }
  }
  return static_cast<ProbeId>(probes_.size() - 1);
}

void InstrumentationManager::remove(ProbeId id) {
  Probe& p = probes_.at(static_cast<std::size_t>(id));
  if (!p.active) throw std::logic_error("probe removed twice");
  p.active = false;
  if (batch_ && p.slot >= 0) batch_->remove(p.slot);
  total_cost_ -= p.cost;
  --num_active_;
  // Numerical hygiene: total cost is a running sum of removals; clamp tiny
  // negative residue.
  if (total_cost_ < 0 && total_cost_ > -1e-12) total_cost_ = 0;
  if (tracer_) {
    tracer_->registry().add("instr.removes");
    if (tracer_->tracing()) {
      telemetry::Event e;
      e.kind = telemetry::EventKind::ProbeRemove;
      e.t = last_time_;
      e.focus = p.focus_name;
      e.value = p.cost;
      e.cost = total_cost_;
      tracer_->emit(std::move(e));
    }
  }
}

bool InstrumentationManager::is_active(ProbeId id) const {
  return id >= 0 && static_cast<std::size_t>(id) < probes_.size() &&
         probes_[static_cast<std::size_t>(id)].active;
}

void InstrumentationManager::advance(double now) {
  last_time_ = std::max(last_time_, now);
  if (batch_) {
    batch_->advance_all(now);
    return;
  }
  for (Probe& p : probes_)
    if (p.active && p.instance) p.instance->advance(now);
}

ProbeSample InstrumentationManager::read(ProbeId id) const {
  const Probe& p = probes_.at(static_cast<std::size_t>(id));
  ProbeSample s;
  if (batch_) {
    s.value = batch_->value(p.slot);
    s.observed = batch_->observed(p.slot);
    s.fraction = batch_->fraction(p.slot);
  } else {
    const auto& inst = *p.instance;
    s.value = inst.value();
    s.observed = inst.observed();
    s.fraction = inst.fraction();
  }
  s.selected_ranks = p.selected_ranks;
  // Perturbation: probe executions are CPU work the application would not
  // otherwise do, so CPU-time readings are inflated in proportion to the
  // instrumentation currently enabled.
  if (perturbation_factor_ > 0 && p.metric == metrics::MetricKind::CpuTime) {
    const double inflation = 1.0 + perturbation_factor_ * total_cost_;
    s.value *= inflation;
    s.fraction *= inflation;
  }
  return s;
}

double InstrumentationManager::probe_cost(ProbeId id) const {
  return probes_.at(static_cast<std::size_t>(id)).cost;
}

double InstrumentationManager::predict_cost(metrics::MetricKind metric,
                                            const resources::Focus& focus) const {
  return cost_model_.probe_cost(view_, focus, metric);
}

}  // namespace histpc::instr
