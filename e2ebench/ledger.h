// In-memory spans and the per-layer ledger built from them.
//
// A traced run wraps each benchmark operation in a root span ("op") and
// every call into a HistPC layer in a child span named "<layer>.<what>"
// (layers are the src/ modules: apps, simmpi, metrics, pc, history, core,
// telemetry, serve). Spans stay in memory until the run ends; then the
// ledger folds them into self time per span name and per layer, and the
// root's self time — wall time no layer span covers — is the residual.
// By construction, per operation:
//
//   sum of self times of all spans + residual == operation wall time.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"

namespace histpc::e2e {

struct Span {
  std::string name;
  double start_ms = 0.0;  ///< relative to the recorder's epoch
  double end_ms = 0.0;
  int parent = -1;  ///< index of the enclosing span; -1 for an op root
  int op = -1;      ///< operation id shared by every span of one operation
};

class SpanRecorder {
 public:
  /// A disabled recorder records nothing and costs one branch per call.
  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }
  double now_ms() const { return ms_between(epoch_, Clock::now()); }

  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(SpanRecorder* rec, int index) : rec_(rec), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();
    /// Index of the span (-1 when recording is off).
    int index() const { return index_; }

   private:
    SpanRecorder* rec_;
    int index_;
  };

  /// Open the root span of a new operation.
  Scope op();
  /// Open a child of the innermost open span.
  Scope span(std::string_view name);
  /// Add an already-measured operation root; returns its index.
  int add_op(double start_ms, double end_ms);
  /// Add an already-measured span under `parent` (for work timed by the
  /// program's own registry rather than around a call). Returns its index.
  int add(std::string name, double start_ms, double end_ms, int parent);

  /// Accumulate a named count (pairs tested, cache hits, ...) for the ledger.
  void count(const std::string& name, double delta);

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, double>& counters() const { return counters_; }

 private:
  int open(std::string name, int parent, int op);
  void close(int index);

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;  ///< indices of open spans, innermost last
  int next_op_ = 0;
  std::map<std::string, double> counters_;
};

struct LedgerRow {
  std::string name;
  std::size_t calls = 0;
  double inclusive_ms = 0.0;  ///< summed over all operations
  double self_ms = 0.0;
};

struct Ledger {
  std::size_t ops = 0;
  double wall_ms = 0.0;      ///< summed root-span durations
  double residual_ms = 0.0;  ///< summed root self time
  std::vector<LedgerRow> rows;              ///< one per span name, sorted
  std::map<std::string, double> layer_self_ms;  ///< keyed by layer prefix
  std::vector<double> op_wall_ms;          ///< per operation
  std::vector<double> op_accounted_ms;     ///< per operation: sum of span self times
  std::vector<double> op_residual_ms;      ///< per operation: root self time

  const LedgerRow* row(std::string_view name) const;
};

Ledger build_ledger(const SpanRecorder& recorder);

/// Text table: calls, inclusive and self ms per op, share of wall; then
/// per-layer self time and the residual.
std::string render_ledger(const Ledger& ledger, const std::map<std::string, double>& counters);

/// Chrome trace-event JSON ("X" complete events, one track per op id).
std::string chrome_trace_json(const SpanRecorder& recorder);

}  // namespace histpc::e2e
