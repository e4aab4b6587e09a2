#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/json.h"

namespace histpc::e2e {

SpanRecorder::SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

SpanRecorder::Scope::~Scope() {
  if (rec_ && index_ >= 0) rec_->close(index_);
}

int SpanRecorder::open(std::string name, int parent, int op) {
  const double t = now_ms();
  spans_.push_back(Span{std::move(name), t, t, parent, op});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ms = now_ms();
  // Scopes nest lexically, so the span closing is the innermost open one.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

SpanRecorder::Scope SpanRecorder::op() {
  if (!enabled_) return Scope(nullptr, -1);
  return Scope(this, open("op", -1, next_op_++));
}

SpanRecorder::Scope SpanRecorder::span(std::string_view name) {
  if (!enabled_ || stack_.empty()) return Scope(nullptr, -1);
  const int parent = stack_.back();
  return Scope(this, open(std::string(name), parent, spans_[static_cast<std::size_t>(parent)].op));
}

int SpanRecorder::add_op(double start_ms, double end_ms) {
  if (!enabled_) return -1;
  spans_.push_back(Span{"op", start_ms, end_ms, -1, next_op_++});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanRecorder::add(std::string name, double start_ms, double end_ms, int parent) {
  if (!enabled_ || parent < 0) return -1;
  const int op = spans_[static_cast<std::size_t>(parent)].op;
  spans_.push_back(Span{std::move(name), start_ms, end_ms, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::count(const std::string& name, double delta) {
  if (enabled_) counters_[name] += delta;
}

const LedgerRow* Ledger::row(std::string_view name) const {
  for (const LedgerRow& r : rows)
    if (r.name == name) return &r;
  return nullptr;
}

Ledger build_ledger(const SpanRecorder& recorder) {
  const std::vector<Span>& spans = recorder.spans();
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;

  Ledger ledger;
  std::map<std::string, LedgerRow> by_name;
  std::map<int, std::size_t> op_slot;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = s.end_ms - s.start_ms;
    const double self = dur - child_ms[i];
    if (s.parent < 0) {
      op_slot[s.op] = ledger.op_wall_ms.size();
      ledger.op_wall_ms.push_back(dur);
      ledger.op_accounted_ms.push_back(0.0);
      ledger.op_residual_ms.push_back(self);
      ledger.wall_ms += dur;
      ledger.residual_ms += self;
      ++ledger.ops;
      continue;
    }
    LedgerRow& row = by_name[s.name];
    row.name = s.name;
    ++row.calls;
    row.inclusive_ms += dur;
    row.self_ms += self;
    ledger.layer_self_ms[s.name.substr(0, s.name.find('.'))] += self;
    // A root is always recorded before the spans of its operation.
    ledger.op_accounted_ms[op_slot.at(s.op)] += self;
  }
  for (auto& [name, row] : by_name) ledger.rows.push_back(row);
  return ledger;
}

namespace {

std::string fmt(double v, int decimals = 3) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string pad(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

std::string lpad(const std::string& s, std::size_t width) {
  return s.size() < width ? std::string(width - s.size(), ' ') + s : s;
}

}  // namespace

std::string render_ledger(const Ledger& ledger, const std::map<std::string, double>& counters) {
  std::ostringstream os;
  const double ops = ledger.ops ? static_cast<double>(ledger.ops) : 1.0;
  const double wall = ledger.wall_ms > 0 ? ledger.wall_ms : 1.0;
  os << "ledger over " << ledger.ops << " traced operations, wall " << fmt(ledger.wall_ms / ops)
     << " ms/op\n";
  os << pad("span", 28) << lpad("calls/op", 10) << lpad("incl ms/op", 12)
     << lpad("self ms/op", 12) << lpad("self %", 9) << "\n";
  for (const LedgerRow& r : ledger.rows)
    os << pad(r.name, 28) << lpad(fmt(static_cast<double>(r.calls) / ops, 2), 10)
       << lpad(fmt(r.inclusive_ms / ops), 12) << lpad(fmt(r.self_ms / ops), 12)
       << lpad(fmt(100.0 * r.self_ms / wall, 1), 9) << "\n";
  os << pad("(residual)", 28) << lpad("", 10) << lpad("", 12)
     << lpad(fmt(ledger.residual_ms / ops), 12)
     << lpad(fmt(100.0 * ledger.residual_ms / wall, 1), 9) << "\n";
  os << "self time by layer (ms/op):";
  for (const auto& [layer, ms] : ledger.layer_self_ms) os << " " << layer << "=" << fmt(ms / ops);
  os << " residual=" << fmt(ledger.residual_ms / ops) << "\n";
  if (!counters.empty()) {
    os << "counts per op:";
    for (const auto& [name, v] : counters) os << " " << name << "=" << fmt(v / ops, 2);
    os << "\n";
  }
  return os.str();
}

std::string chrome_trace_json(const SpanRecorder& recorder) {
  util::Json events = util::Json::array();
  for (const Span& s : recorder.spans()) {
    util::Json e = util::Json::object();
    e["name"] = s.name;
    e["cat"] = s.name.substr(0, s.name.find('.'));
    e["ph"] = "X";
    e["ts"] = s.start_ms * 1e3;
    e["dur"] = (s.end_ms - s.start_ms) * 1e3;
    e["pid"] = 1;
    e["tid"] = s.op;
    util::Json args = util::Json::object();
    args["parent"] = s.parent;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  util::Json root = util::Json::object();
  root["traceEvents"] = std::move(events);
  root["displayTimeUnit"] = "ms";
  return root.dump();
}

}  // namespace histpc::e2e
