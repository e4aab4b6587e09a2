// EventSink and Tracer: how instrumented code reports telemetry.
//
// A Tracer is the per-session façade: an always-on Registry (counters are
// cheap enough to keep unconditionally, and DiagnosisResult summaries come
// from them) plus an optional EventSink for the full structured event
// stream. With no sink attached, emit() is one pointer test — the "null
// sink" that keeps disabled-mode overhead negligible. Callers that build
// Events with non-trivial payloads should guard with tracing() so the
// strings are never materialized when nobody is listening:
//
//   if (tracer.tracing())
//     tracer.emit({EventKind::Refine, now, hyp_name, focus_name});
#pragma once

#include <utility>
#include <vector>

#include "telemetry/event.h"
#include "telemetry/registry.h"

namespace histpc::telemetry {

class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void record(Event&& e) = 0;
};

/// In-memory sink; the CLI and tests export after the run.
class VectorSink final : public EventSink {
 public:
  void record(Event&& e) override { events_.push_back(std::move(e)); }
  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

class Tracer {
 public:
  Tracer() = default;  ///< disabled: events discarded, registry still live
  explicit Tracer(EventSink* sink) : sink_(sink) {}

  bool tracing() const { return sink_ != nullptr; }

  void emit(Event&& e) {
    if (sink_) sink_->record(std::move(e));
  }

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }

 private:
  EventSink* sink_ = nullptr;
  Registry registry_;
};

}  // namespace histpc::telemetry
