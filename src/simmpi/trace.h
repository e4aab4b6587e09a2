// Execution traces: the observable output of a simulated run.
//
// Each rank's timeline is a sequence of non-overlapping intervals tagged
// with a state (CPU / synchronization wait / I/O wait), the innermost
// active function, and — for waits — the synchronization object involved.
// The instrumentation layer samples these intervals; nothing downstream of
// the trace knows it came from a simulator rather than a real machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simmpi/ops.h"
#include "simmpi/program.h"

namespace histpc::simmpi {

enum class IntervalState : std::uint8_t {
  Cpu,       ///< computing
  SyncWait,  ///< blocked in send/recv/wait/collective
  IoWait,    ///< blocked on I/O
};

/// Index into ExecutionTrace::sync_objects; kNoSyncObject for CPU/IO.
using SyncObjectId = std::int32_t;
inline constexpr SyncObjectId kNoSyncObject = -1;

struct Interval {
  double t0 = 0.0;
  double t1 = 0.0;
  IntervalState state = IntervalState::Cpu;
  FuncId func = kNoFunc;
  SyncObjectId sync_object = kNoSyncObject;

  double duration() const { return t1 - t0; }
};

struct RankTrace {
  /// Sorted by time and non-overlapping: both t0 and t1 are non-decreasing
  /// across the vector. The metric layer binary-searches these intervals
  /// by time; validate() enforces the invariant.
  std::vector<Interval> intervals;
  double end_time = 0.0;
};

struct ExecutionTrace {
  MachineSpec machine;
  std::vector<FuncInfo> functions;
  /// Sync object names relative to the SyncObject hierarchy root, e.g.
  /// "Message/3:0" or "Collective/Barrier".
  std::vector<std::string> sync_objects;
  std::vector<RankTrace> ranks;
  /// Wall-clock duration: max over rank end times.
  double duration = 0.0;

  int num_ranks() const { return static_cast<int>(ranks.size()); }

  /// Sum of interval counts across ranks (a sizing hook for encoders and
  /// benchmarks).
  std::size_t total_intervals() const;

  /// Total time each rank spent in each state; index [rank][state].
  struct StateTotals {
    double cpu = 0.0;
    double sync_wait = 0.0;
    double io_wait = 0.0;
    double total() const { return cpu + sync_wait + io_wait; }
  };
  StateTotals totals_for_rank(int rank) const;
  StateTotals totals() const;

  /// Internal-consistency checks (monotone non-overlapping intervals,
  /// valid function/sync ids). Throws std::logic_error on violation;
  /// exercised heavily by property tests.
  void validate() const;

  /// Human-readable per-rank state summary (debugging aid).
  std::string summary() const;
};

}  // namespace histpc::simmpi
