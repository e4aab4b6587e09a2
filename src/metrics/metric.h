// Metric definitions: continuously measured values the Performance
// Consultant's hypotheses are computed from (Paradyn's metric layer).
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

namespace histpc::metrics {

enum class MetricKind {
  CpuTime,       ///< seconds of computation
  SyncWaitTime,  ///< seconds blocked in synchronization
  IoWaitTime,    ///< seconds blocked in I/O
  ExecTime,      ///< observed execution seconds (CPU + waits)
};

inline constexpr MetricKind kAllMetrics[] = {
    MetricKind::CpuTime, MetricKind::SyncWaitTime, MetricKind::IoWaitTime, MetricKind::ExecTime};

std::string_view metric_name(MetricKind kind);
std::optional<MetricKind> metric_from_name(std::string_view name);

/// True for metrics that remain meaningful when the focus constrains the
/// SyncObject hierarchy below its root. CPU/IO/Exec time has no
/// synchronization-object dimension: constraining it yields zero — the
/// wasted tests the paper's general pruning directives eliminate.
bool metric_supports_sync_constraint(MetricKind kind);

/// Which interval states contribute to `kind`, indexed like
/// simmpi::IntervalState (Cpu, SyncWait, IoWait). Mirrors the state switch
/// in FocusFilter::matches.
std::array<bool, 3> metric_states(MetricKind kind);

}  // namespace histpc::metrics
