// The four benchmark workloads and the closed-loop driver three of them share.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "ledger.h"

namespace histpc::e2e {

/// A workload driven by one closed-loop client: the next operation starts
/// when the previous one has finished.
class ClosedLoop {
 public:
  virtual ~ClosedLoop() = default;

  /// Build inputs, warm caches, pre-fill stores and compute reference
  /// results under `dir` (fresh and empty).
  virtual void setup(const std::string& dir) = 0;

  struct Op {
    double wall_ms = 0.0;  ///< the HistPC calls only, not the checks
    bool ok = false;       ///< outputs matched their reference
  };
  /// Run operation `i` and check its outputs.
  virtual Op run(std::size_t i, SpanRecorder& spans) = 0;

  /// Operations per full pass over the inputs. Every timed phase covers
  /// whole passes, so each input weighs the same in every run and the
  /// percentiles of the mixture do not jump with the operation count.
  virtual std::size_t cycle() const = 0;

  /// Which input operation `i` runs, for the per-input breakdown.
  virtual std::string label(std::size_t i) const = 0;

  /// Per-layer values only the workload knows (e.g. store size).
  virtual std::map<std::string, double> layer_values() const { return {}; }
};

using ClosedLoopFactory = std::function<std::unique_ptr<ClosedLoop>(std::uint64_t seed)>;

std::unique_ptr<ClosedLoop> make_oneshot_paper(std::uint64_t seed);
std::unique_ptr<ClosedLoop> make_scaled_spmd(std::uint64_t seed);
std::unique_ptr<ClosedLoop> make_history_cycle(std::uint64_t seed);

Report run_closed_loop(const ClosedLoopFactory& make, const RunOptions& options);
Report run_served(const RunOptions& options);

/// Dispatch on options.workload; throws std::invalid_argument if unknown.
Report run_workload(const RunOptions& options);
const std::vector<std::string>& workload_names();

/// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupRepeats = 3;

/// Run `setup_once` kSetupRepeats times, each after an untimed `teardown`
/// of the previous set-up and in a freshly emptied `dir`, and return the
/// durations in seconds. The last set-up is the one the measured
/// operations use; the peak-RSS window starts after it.
std::vector<double> timed_setups(const std::function<void()>& teardown,
                                 const std::function<void()>& setup_once, const std::string& dir);

/// The per-layer metric list, every name on every workload (0 where a
/// layer is not exercised). Span-derived values come from the ledger;
/// `values` supplies or overrides the rest.
std::vector<Metric> layer_metrics(const Ledger& ledger, const std::map<std::string, double>& counters,
                                  const std::map<std::string, double>& values);

}  // namespace histpc::e2e
