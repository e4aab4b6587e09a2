#include "metrics/metric_batch.h"

#include <algorithm>
#include <stdexcept>

#include "metrics/block_index.h"

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

void MetricBatch::process_rank(std::size_t r, double to, BlockCounters& counters) {
  const auto& ivs = view_.trace().ranks[r].intervals;
  const std::vector<SlotId>& fanout = rank_slots_[r];
  const BlockIndex& blocks = view_.blocks();
  const std::size_t bsize = blocks.block_size();
  const int rank = static_cast<int>(r);
  std::size_t pos = rank_pos_[r];
  while (pos < ivs.size() && ivs[pos].t0 < to) {
    // Block fast path: when the block holding `pos` ends inside this tick,
    // every remaining interval in it is fully consumable, and the block
    // summary can prove whole slots contribution-free for all of them
    // (block_may_contribute is monotone over subsets). Slots it disproves
    // leave the block's fan-out; if none survive, jump the block without
    // touching its intervals. Only exactly-zero contributions are elided —
    // a zero-duration interval clips to hi <= lo and a summary reject
    // means matches() is false or the clip is empty for every interval —
    // so slot values stay bit-identical to the plain walk.
    const std::size_t b = pos / bsize;
    const double block_max_t1 = blocks.block_max_t1(rank, b);
    if (block_max_t1 <= to) {
      ++counters.considered;
      scratch_.clear();
      for (SlotId sid : fanout) {
        const Slot& s = slots_[static_cast<std::size_t>(sid)];
        if (s.start < block_max_t1 &&
            blocks.block_may_contribute(rank, b, *s.filter, s.metric))
          scratch_.push_back(sid);
      }
      const std::size_t bend = blocks.block_end(rank, b);
      if (scratch_.empty()) {
        ++counters.skipped;
        pos = bend;
        continue;
      }
      for (; pos < bend; ++pos) {
        const Interval& iv = ivs[pos];
        for (SlotId sid : scratch_) {
          Slot& s = slots_[static_cast<std::size_t>(sid)];
          if (!s.filter->matches(iv, s.metric)) continue;
          const double lo = std::max({iv.t0, cursor_, s.start});
          const double hi = std::min(iv.t1, to);
          if (hi > lo) s.value += hi - lo;
        }
      }
      continue;
    }
    // Boundary block (extends past `to`): the original per-interval walk.
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
  BlockCounters bc;
  for (std::size_t r = 0; r < rank_pos_.size(); ++r) process_rank(r, to, bc);
  cursor_ = to;
  if (registry_) {
    std::size_t consumed_after = 0;
    for (std::size_t p : rank_pos_) consumed_after += p;
    registry_->add("metrics.batch.ticks");
    registry_->add("metrics.batch.intervals", consumed_after - consumed_before);
    registry_->add("metrics.batch.blocks_considered", bc.considered);
    registry_->add("metrics.batch.blocks_skipped", bc.skipped);
    // Cumulative classification stats from the view's block-max tier
    // (populated by query_blocks callers; the batch path skips only).
    const BlockIndex::Stats bs = view_.blocks().stats();
    registry_->gauge_set("metrics.blocks.summary_skips",
                         static_cast<double>(bs.blocks_skipped));
    registry_->gauge_set("metrics.blocks.simd_kernel_runs",
                         static_cast<double>(bs.blocks_kernel));
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
