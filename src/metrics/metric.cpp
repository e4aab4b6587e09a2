#include "metrics/metric.h"

namespace histpc::metrics {

std::string_view metric_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::CpuTime: return "cpu_time";
    case MetricKind::SyncWaitTime: return "sync_wait_time";
    case MetricKind::IoWaitTime: return "io_wait_time";
    case MetricKind::ExecTime: return "exec_time";
  }
  return "?";
}

std::optional<MetricKind> metric_from_name(std::string_view name) {
  for (MetricKind m : kAllMetrics)
    if (metric_name(m) == name) return m;
  return std::nullopt;
}

bool metric_supports_sync_constraint(MetricKind kind) {
  return kind == MetricKind::SyncWaitTime;
}

std::array<bool, 3> metric_states(MetricKind kind) {
  switch (kind) {
    case MetricKind::CpuTime: return {true, false, false};
    case MetricKind::SyncWaitTime: return {false, true, false};
    case MetricKind::IoWaitTime: return {false, false, true};
    case MetricKind::ExecTime: return {true, true, true};
  }
  return {false, false, false};
}

}  // namespace histpc::metrics
