#include "simmpi/trace.h"

#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace histpc::simmpi {

ExecutionTrace::StateTotals ExecutionTrace::totals_for_rank(int rank) const {
  StateTotals t;
  for (const Interval& iv : ranks.at(rank).intervals) {
    switch (iv.state) {
      case IntervalState::Cpu: t.cpu += iv.duration(); break;
      case IntervalState::SyncWait: t.sync_wait += iv.duration(); break;
      case IntervalState::IoWait: t.io_wait += iv.duration(); break;
    }
  }
  return t;
}

ExecutionTrace::StateTotals ExecutionTrace::totals() const {
  StateTotals sum;
  for (int r = 0; r < num_ranks(); ++r) {
    StateTotals t = totals_for_rank(r);
    sum.cpu += t.cpu;
    sum.sync_wait += t.sync_wait;
    sum.io_wait += t.io_wait;
  }
  return sum;
}

std::size_t ExecutionTrace::total_intervals() const {
  std::size_t n = 0;
  for (const RankTrace& rt : ranks) n += rt.intervals.size();
  return n;
}

void ExecutionTrace::validate() const {
  if (static_cast<int>(ranks.size()) != machine.num_ranks())
    throw std::logic_error("trace: rank count does not match machine spec");
  double max_end = 0.0;
  for (int r = 0; r < num_ranks(); ++r) {
    const RankTrace& rt = ranks[r];
    double prev_end = 0.0;
    for (const Interval& iv : rt.intervals) {
      if (iv.t1 < iv.t0)
        throw std::logic_error("trace: interval with negative duration on rank " +
                               std::to_string(r));
      if (iv.t0 + 1e-9 < prev_end)
        throw std::logic_error("trace: overlapping intervals on rank " + std::to_string(r));
      if (iv.t1 + 1e-9 < prev_end)
        throw std::logic_error("trace: interval end times not sorted on rank " +
                               std::to_string(r));
      if (iv.func != kNoFunc &&
          (iv.func < 0 || iv.func >= static_cast<FuncId>(functions.size())))
        throw std::logic_error("trace: invalid function id");
      if (iv.state == IntervalState::SyncWait) {
        if (iv.sync_object != kNoSyncObject &&
            (iv.sync_object < 0 ||
             iv.sync_object >= static_cast<SyncObjectId>(sync_objects.size())))
          throw std::logic_error("trace: invalid sync object id");
      } else if (iv.sync_object != kNoSyncObject) {
        throw std::logic_error("trace: non-wait interval carries a sync object");
      }
      prev_end = iv.t1;
    }
    if (prev_end > rt.end_time + 1e-9)
      throw std::logic_error("trace: intervals extend past rank end time");
    max_end = std::max(max_end, rt.end_time);
  }
  if (std::abs(max_end - duration) > 1e-6)
    throw std::logic_error("trace: duration does not match max rank end time");
}

std::string ExecutionTrace::summary() const {
  std::ostringstream os;
  os << "trace: " << num_ranks() << " ranks, duration " << util::fmt_double(duration, 2)
     << "s\n";
  for (int r = 0; r < num_ranks(); ++r) {
    StateTotals t = totals_for_rank(r);
    double denom = ranks[r].end_time > 0 ? ranks[r].end_time : 1.0;
    os << "  rank " << r << " (" << machine.process_names[r] << " on "
       << machine.node_names[machine.rank_to_node[r]] << "): cpu "
       << util::fmt_percent(t.cpu / denom) << ", sync " << util::fmt_percent(t.sync_wait / denom)
       << ", io " << util::fmt_percent(t.io_wait / denom) << ", end "
       << util::fmt_double(ranks[r].end_time, 2) << "s\n";
  }
  return os.str();
}

}  // namespace histpc::simmpi
