// Shared pieces of the end-to-end benchmark: clocks, order statistics and
// the report every workload fills in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace histpc::e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 when
/// empty. Takes a copy so callers keep their arrival order.
double quantile(std::vector<double> values, double q);

/// Median of a sample (quantile 0.5).
inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Start a new peak-RSS window: return freed heap to the system and reset
/// the kernel's high-water mark to the current RSS. False where the kernel
/// cannot reset it; the peak then covers the whole process.
bool reset_peak_rss();

/// Peak resident set size of this process since the last reset_peak_rss()
/// (or since it started), in MB.
double peak_rss_mb();

/// One reported number. `samples` is how many observations it summarizes
/// (0 where the notion does not apply, e.g. a ratio of counters).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What a workload run produces. `end_to_end` is printed with tracing off,
/// `per_layer` with tracing on; `ledger` is the human-readable text.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string ledger;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for stores, caches and logs; created fresh by set-up.
  std::string work_dir;
  /// Where the Chrome trace-event file of a traced run goes.
  std::string trace_out;
};

}  // namespace histpc::e2e
