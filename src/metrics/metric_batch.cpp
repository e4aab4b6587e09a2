#include "metrics/metric_batch.h"

#include <algorithm>
#include <stdexcept>

namespace histpc::metrics {

using simmpi::Interval;

MetricBatch::MetricBatch(const TraceView& view, telemetry::Registry* registry)
    : view_(view),
      registry_(registry),
      rank_pos_(static_cast<std::size_t>(view.trace().num_ranks()), 0),
      rank_slots_(static_cast<std::size_t>(view.trace().num_ranks())) {}

MetricBatch::SlotId MetricBatch::add(MetricKind metric, const FocusFilter& filter,
                                     double start_time) {
  Slot s;
  s.filter = &filter;
  s.metric = metric;
  s.start = start_time;
  s.active = true;
  slots_.push_back(s);
  ++num_active_;
  rank_slots_dirty_ = true;
  return static_cast<SlotId>(slots_.size() - 1);
}

void MetricBatch::remove(SlotId id) {
  Slot& s = slots_.at(static_cast<std::size_t>(id));
  if (!s.active) throw std::logic_error("MetricBatch: slot removed twice");
  s.active = false;
  --num_active_;
  rank_slots_dirty_ = true;
}

void MetricBatch::rebuild_rank_slots() {
  for (std::size_t r = 0; r < rank_slots_.size(); ++r) {
    rank_slots_[r].clear();
    for (std::size_t i = 0; i < slots_.size(); ++i)
      if (slots_[i].active && slots_[i].filter->rank_selected(static_cast<int>(r)))
        rank_slots_[r].push_back(static_cast<SlotId>(i));
  }
  rank_slots_dirty_ = false;
}

void MetricBatch::process_rank(std::size_t r, double to) {
  const auto& ivs = view_.trace().ranks[r].intervals;
  const std::vector<SlotId>& fanout = rank_slots_[r];
  std::size_t pos = rank_pos_[r];
  while (pos < ivs.size() && ivs[pos].t0 < to) {
    const Interval& iv = ivs[pos];
    for (SlotId sid : fanout) {
      Slot& s = slots_[static_cast<std::size_t>(sid)];
      if (!s.filter->matches(iv, s.metric)) continue;
      const double lo = std::max({iv.t0, cursor_, s.start});
      const double hi = std::min(iv.t1, to);
      if (hi > lo) s.value += hi - lo;
    }
    if (iv.t1 <= to) {
      ++pos;  // fully consumed
    } else {
      break;  // straddles `to`; revisit next advance
    }
  }
  rank_pos_[r] = pos;
}

void MetricBatch::advance_all(double to) {
  if (to <= cursor_) return;
  if (rank_slots_dirty_) rebuild_rank_slots();
  // Consumed-interval telemetry from the rank cursors, so the fan-out loop
  // itself stays untouched.
  std::size_t consumed_before = 0;
  if (registry_)
    for (std::size_t p : rank_pos_) consumed_before += p;
  for (std::size_t r = 0; r < rank_pos_.size(); ++r) process_rank(r, to);
  cursor_ = to;
  if (registry_) {
    std::size_t consumed_after = 0;
    for (std::size_t p : rank_pos_) consumed_after += p;
    registry_->add("metrics.batch.ticks");
    registry_->add("metrics.batch.intervals", consumed_after - consumed_before);
  }
}

double MetricBatch::value(SlotId id) const {
  return slots_.at(static_cast<std::size_t>(id)).value;
}

double MetricBatch::observed(SlotId id) const {
  return std::max(0.0, cursor_ - slots_.at(static_cast<std::size_t>(id)).start);
}

double MetricBatch::fraction(SlotId id) const {
  const Slot& s = slots_.at(static_cast<std::size_t>(id));
  const double obs = std::max(0.0, cursor_ - s.start);
  if (obs <= 0.0 || s.filter->num_selected_ranks == 0) return 0.0;
  return s.value / (obs * s.filter->num_selected_ranks);
}

}  // namespace histpc::metrics
