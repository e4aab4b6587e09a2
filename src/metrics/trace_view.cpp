#include "metrics/trace_view.h"

#include <algorithm>
#include <limits>

#include "metrics/metric_instance.h"
#include "util/strings.h"

namespace histpc::metrics {

using resources::Focus;
using resources::ResourceDb;
using simmpi::ExecutionTrace;
using simmpi::Interval;
using simmpi::IntervalState;

namespace {

constexpr std::size_t kSyncWaitState = static_cast<std::size_t>(IntervalState::SyncWait);

}  // namespace

bool FocusFilter::matches(const Interval& iv, MetricKind metric) const {
  // State/metric correspondence first (cheapest reject).
  switch (metric) {
    case MetricKind::CpuTime:
      if (iv.state != IntervalState::Cpu) return false;
      break;
    case MetricKind::SyncWaitTime:
      if (iv.state != IntervalState::SyncWait) return false;
      break;
    case MetricKind::IoWaitTime:
      if (iv.state != IntervalState::IoWait) return false;
      break;
    case MetricKind::ExecTime:
      break;  // every attributed interval counts
  }
  // SyncObject constraint: only wait intervals carry a sync object; other
  // states cannot satisfy a constrained part.
  if (!sync_unconstrained) {
    if (iv.state != IntervalState::SyncWait || iv.sync_object == simmpi::kNoSyncObject)
      return false;
    if (!sync_objects[static_cast<std::size_t>(iv.sync_object)]) return false;
  }
  if (iv.func == simmpi::kNoFunc) return accept_nofunc;
  return funcs[static_cast<std::size_t>(iv.func)];
}

void FocusFilter::finalize() {
  num_selected_ranks =
      static_cast<int>(std::count(ranks.begin(), ranks.end(), true));
  all_funcs =
      accept_nofunc && std::find(funcs.begin(), funcs.end(), false) == funcs.end();
  selected_funcs.clear();
  if (!all_funcs)
    for (std::size_t f = 0; f < funcs.size(); ++f)
      if (funcs[f]) selected_funcs.push_back(static_cast<std::int32_t>(f));
  selected_syncs.clear();
  if (!sync_unconstrained)
    for (std::size_t s = 0; s < sync_objects.size(); ++s)
      if (sync_objects[s]) selected_syncs.push_back(static_cast<std::int32_t>(s));
}

TraceView::TraceView(const ExecutionTrace& trace)
    : trace_(trace), db_(ResourceDb::with_standard_hierarchies()) {
  auto& code = db_.hierarchy(resources::kCodeHierarchy);
  for (const auto& f : trace.functions) {
    resources::ResourceId mod = code.add_child(code.root(), f.module);
    code.add_child(mod, f.function);
  }
  auto& machine = db_.hierarchy(resources::kMachineHierarchy);
  for (const auto& n : trace.machine.node_names) machine.add_child(machine.root(), n);
  auto& process = db_.hierarchy(resources::kProcessHierarchy);
  for (const auto& p : trace.machine.process_names) process.add_child(process.root(), p);
  auto& sync = db_.hierarchy(resources::kSyncObjectHierarchy);
  for (const auto& s : trace.sync_objects) sync.add_path("/SyncObject/" + s);

  walk_intervals();
  // The db is complete from here on: the table's hierarchy snapshot and
  // the per-ResourceId discovery vectors stay valid for the view's life.
  foci_ = std::make_unique<resources::FocusTable>(db_);
  discovery_by_resource_.resize(db_.num_hierarchies());
  for (std::size_t h = 0; h < db_.num_hierarchies(); ++h) {
    const auto& tree = db_.hierarchy(h);
    auto& times = discovery_by_resource_[h];
    times.resize(tree.size());
    for (std::size_t rid = 0; rid < tree.size(); ++rid)
      times[rid] = discovery_time(tree.node(static_cast<resources::ResourceId>(rid)).full_name);
  }
}

void TraceView::walk_intervals() {
  // Machine and process resources are known at startup.
  for (const auto& n : trace_.machine.node_names) discovery_["/Machine/" + n] = 0.0;
  for (const auto& p : trace_.machine.process_names) discovery_["/Process/" + p] = 0.0;

  // Functions, modules, and sync objects appear when first executed.
  // Intervals are time-sorted per rank, so the first sighting per rank is
  // the earliest on that rank.
  //
  // The same walk takes each rank's whole-run totals (RankTotals). The
  // intervals intersecting [0, duration) are the contiguous positions
  // [lo, hi), and query_rank answers clip(lo) + interior + clip(hi-1).
  // Exactness: each interior total is the difference of two running sums
  // that start at the rank's first interval and add durations in interval
  // order, one taken before position lo+1 and one before hi-1. That is bit
  // for bit what prefix-sum arrays over the timeline would give, without
  // keeping the arrays. query_rank adds the totals in a fixed order
  // (states; or selected functions by id, then no-function; or selected
  // sync objects by id), so the goldens' whole-run values hold. A filter
  // constrained on both SyncObject and Code has no total: it walks each
  // selected object's interior SyncWait positions in order instead.
  const std::size_t nfuncs = trace_.functions.size();
  const std::size_t nsync = trace_.sync_objects.size();
  std::vector<double> func_first(nfuncs, std::numeric_limits<double>::infinity());
  std::vector<double> sync_first(nsync, std::numeric_limits<double>::infinity());
  totals_.resize(trace_.ranks.size());
  for (std::size_t r = 0; r < trace_.ranks.size(); ++r) {
    const std::vector<Interval>& ivs = trace_.ranks[r].intervals;
    RankTotals& rt = totals_[r];
    rt.lo = static_cast<std::size_t>(
        std::upper_bound(ivs.begin(), ivs.end(), 0.0,
                         [](double t, const Interval& iv) { return t < iv.t1; }) -
        ivs.begin());
    rt.hi = static_cast<std::size_t>(
        std::lower_bound(ivs.begin(), ivs.end(), trace_.duration,
                         [](const Interval& iv, double t) { return iv.t0 < t; }) -
        ivs.begin());
    const bool interior = rt.hi > rt.lo + 2;
    const std::size_t first = rt.lo + 1, last = rt.hi - 1;  // interior [first, last)
    std::array<double, kNumStates> state_sum{};
    std::vector<double> func_state_sum;
    std::vector<double> sync_sum;
    if (interior) {
      func_state_sum.assign((nfuncs + 1) * kNumStates, 0.0);
      sync_sum.assign(nsync, 0.0);
      rt.sync_positions.resize(nsync);
    }

    std::vector<bool> func_seen(nfuncs, false);
    std::vector<bool> sync_seen(nsync, false);
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      const Interval& iv = ivs[i];
      if (interior && i < last) {
        if (i == first) {
          rt.state = state_sum;
          rt.func_state = func_state_sum;
          rt.sync = sync_sum;
        }
        const std::size_t s = static_cast<std::size_t>(iv.state);
        const std::size_t slot =
            iv.func == simmpi::kNoFunc ? nfuncs : static_cast<std::size_t>(iv.func);
        const double d = iv.t1 - iv.t0;
        state_sum[s] += d;
        func_state_sum[slot * kNumStates + s] += d;
        if (s == kSyncWaitState && iv.sync_object != simmpi::kNoSyncObject) {
          const auto obj = static_cast<std::size_t>(iv.sync_object);
          sync_sum[obj] += d;
          if (i >= first) rt.sync_positions[obj].push_back(static_cast<std::uint32_t>(i));
        }
      } else if (interior && i == last) {
        for (std::size_t s = 0; s < kNumStates; ++s) rt.state[s] = state_sum[s] - rt.state[s];
        for (std::size_t k = 0; k < func_state_sum.size(); ++k)
          rt.func_state[k] = func_state_sum[k] - rt.func_state[k];
        for (std::size_t k = 0; k < nsync; ++k) rt.sync[k] = sync_sum[k] - rt.sync[k];
      }
      if (iv.func != simmpi::kNoFunc && !func_seen[iv.func]) {
        func_seen[iv.func] = true;
        func_first[iv.func] = std::min(func_first[iv.func], iv.t0);
      }
      if (iv.sync_object != simmpi::kNoSyncObject && !sync_seen[iv.sync_object]) {
        sync_seen[iv.sync_object] = true;
        sync_first[iv.sync_object] = std::min(sync_first[iv.sync_object], iv.t0);
      }
    }
  }
  for (std::size_t f = 0; f < trace_.functions.size(); ++f) {
    const auto& fi = trace_.functions[f];
    const std::string func_name = "/Code/" + fi.module + "/" + fi.function;
    const std::string mod_name = "/Code/" + fi.module;
    discovery_[func_name] = func_first[f];
    auto [it, inserted] = discovery_.emplace(mod_name, func_first[f]);
    if (!inserted) it->second = std::min(it->second, func_first[f]);
  }
  for (std::size_t s = 0; s < trace_.sync_objects.size(); ++s) {
    std::string name = "/SyncObject/" + trace_.sync_objects[s];
    discovery_[name] = sync_first[s];
    // Intermediate levels (e.g. /SyncObject/Message) appear with their
    // first child.
    auto slash = name.rfind('/');
    const std::string parent = name.substr(0, slash);
    auto [it, inserted] = discovery_.emplace(parent, sync_first[s]);
    if (!inserted) it->second = std::min(it->second, sync_first[s]);
  }
}

double TraceView::discovery_time(const std::string& resource_name) const {
  // Hierarchy roots are always known.
  if (resource_name.find('/', 1) == std::string::npos) return 0.0;
  auto it = discovery_.find(resource_name);
  return it == discovery_.end() ? std::numeric_limits<double>::infinity() : it->second;
}

FocusFilter TraceView::compile(const Focus& focus) const {
  FocusFilter filter;
  const std::size_t nfuncs = trace_.functions.size();
  const std::size_t nranks = static_cast<std::size_t>(trace_.num_ranks());
  const std::size_t nsync = trace_.sync_objects.size();
  filter.funcs.assign(nfuncs, true);
  filter.ranks.assign(nranks, true);
  filter.sync_objects.assign(nsync, true);

  for (std::size_t h = 0; h < focus.size() && h < db_.num_hierarchies(); ++h) {
    const std::string& part = focus.part(h);
    auto comps = util::split(part, '/');
    // comps = {"", HierarchyName, labels...}
    if (comps.size() <= 2) continue;  // hierarchy root: unconstrained
    const std::string& hname = comps[1];
    if (hname == resources::kCodeHierarchy) {
      filter.accept_nofunc = false;
      const std::string& module = comps[2];
      const std::string* function = comps.size() > 3 ? &comps[3] : nullptr;
      bool any = false;
      for (std::size_t f = 0; f < nfuncs; ++f) {
        const auto& fi = trace_.functions[f];
        filter.funcs[f] =
            fi.module == module && (function == nullptr || fi.function == *function);
        any = any || filter.funcs[f];
      }
      if (!any)
        filter.diagnostics.push_back("part '" + part +
                                     "' matched no recorded function in hierarchy 'Code'");
    } else if (hname == resources::kMachineHierarchy) {
      const std::string& node = comps[2];
      bool any = false;
      for (std::size_t r = 0; r < nranks; ++r) {
        int node_idx = trace_.machine.rank_to_node[r];
        if (trace_.machine.node_names[static_cast<std::size_t>(node_idx)] != node)
          filter.ranks[r] = false;
        else
          any = true;
      }
      if (!any)
        filter.diagnostics.push_back("part '" + part +
                                     "' matched no node in hierarchy 'Machine'");
    } else if (hname == resources::kProcessHierarchy) {
      const std::string& proc = comps[2];
      bool any = false;
      for (std::size_t r = 0; r < nranks; ++r) {
        if (trace_.machine.process_names[r] != proc)
          filter.ranks[r] = false;
        else
          any = true;
      }
      if (!any)
        filter.diagnostics.push_back("part '" + part +
                                     "' matched no process in hierarchy 'Process'");
    } else if (hname == resources::kSyncObjectHierarchy) {
      filter.sync_unconstrained = false;
      bool any = false;
      for (std::size_t s = 0; s < nsync; ++s) {
        std::string full = "/SyncObject/" + trace_.sync_objects[s];
        filter.sync_objects[s] = util::is_path_prefix(part, full);
        any = any || filter.sync_objects[s];
      }
      if (!any)
        filter.diagnostics.push_back(
            "part '" + part + "' matched no synchronization object in hierarchy 'SyncObject'");
    }
    // Unknown hierarchies (not represented in the trace) select everything;
    // the PC never refines into them because the db lacks them.
  }

  filter.finalize();
  return filter;
}

const FocusFilter& TraceView::compiled(resources::FocusId focus) const {
  std::lock_guard<std::mutex> lock(filter_mu_);
  const auto idx = static_cast<std::size_t>(focus);
  if (filters_by_id_.size() <= idx) filters_by_id_.resize(idx + 1);
  if (!filters_by_id_[idx])
    filters_by_id_[idx] = std::make_unique<FocusFilter>(compile(foci_->to_focus(focus)));
  return *filters_by_id_[idx];
}

const FocusFilter& TraceView::compiled(const Focus& focus) const {
  return compiled(foci_->intern(focus));
}

double TraceView::query(MetricKind metric, const Focus& focus) const {
  return query(metric, compiled(focus));
}

double TraceView::query(MetricKind metric, const FocusFilter& filter) const {
  if (trace_.duration <= 0.0) return 0.0;
  double v = 0.0;
  for (std::size_t r = 0; r < totals_.size(); ++r)
    if (filter.rank_selected(static_cast<int>(r))) v += query_rank(r, filter, metric);
  return v;
}

double TraceView::query_rank(std::size_t rank, const FocusFilter& filter,
                             MetricKind metric) const {
  const RankTotals& rt = totals_[rank];
  if (rt.lo >= rt.hi) return 0.0;
  const std::vector<Interval>& ivs = trace_.ranks[rank].intervals;
  double v = 0.0;
  // Only the range's first and last interval can straddle the run's edges;
  // evaluate them directly so clipping matches a MetricInstance scan.
  auto clip_add = [&](std::size_t i) {
    const Interval& iv = ivs[i];
    if (!filter.matches(iv, metric)) return;
    const double a = std::max(iv.t0, 0.0);
    const double b = std::min(iv.t1, trace_.duration);
    if (b > a) v += b - a;
  };
  if (rt.hi - rt.lo <= 2) {
    for (std::size_t i = rt.lo; i < rt.hi; ++i) clip_add(i);
    return v;
  }
  clip_add(rt.lo);

  const std::array<bool, kNumStates> states = metric_states(metric);
  double interior = 0.0;
  if (!filter.sync_unconstrained) {
    // Only SyncWait intervals carrying a selected object can match.
    if (states[kSyncWaitState]) {
      for (std::int32_t obj : filter.selected_syncs) {
        const auto o = static_cast<std::size_t>(obj);
        if (filter.all_funcs) {
          interior += rt.sync[o];
          continue;
        }
        for (std::uint32_t pos : rt.sync_positions[o]) {
          const Interval& iv = ivs[pos];
          const bool accepted = iv.func == simmpi::kNoFunc
                                    ? filter.accept_nofunc
                                    : filter.funcs[static_cast<std::size_t>(iv.func)];
          if (accepted) interior += iv.t1 - iv.t0;
        }
      }
    }
  } else if (filter.all_funcs) {
    for (std::size_t s = 0; s < kNumStates; ++s)
      if (states[s]) interior += rt.state[s];
  } else {
    auto add_slot = [&](std::size_t slot) {
      for (std::size_t s = 0; s < kNumStates; ++s)
        if (states[s]) interior += rt.func_state[slot * kNumStates + s];
    };
    for (std::int32_t f : filter.selected_funcs) add_slot(static_cast<std::size_t>(f));
    if (filter.accept_nofunc) add_slot(trace_.functions.size());
  }
  v += interior;

  clip_add(rt.hi - 1);
  return v;
}

std::vector<double> TraceView::fraction_series(MetricKind metric, const Focus& focus,
                                               double t0, double t1,
                                               std::size_t bins) const {
  std::vector<double> out;
  if (bins == 0 || t1 <= t0) return out;
  const FocusFilter& filter = compiled(focus);
  MetricInstance inst(*this, metric, filter, t0);
  const double bin_width = (t1 - t0) / static_cast<double>(bins);
  const double denom = bin_width * std::max(1, filter.num_selected_ranks);
  double prev = 0.0;
  out.reserve(bins);
  for (std::size_t b = 1; b <= bins; ++b) {
    inst.advance(t0 + bin_width * static_cast<double>(b));
    out.push_back((inst.value() - prev) / denom);
    prev = inst.value();
  }
  return out;
}

double TraceView::fraction(MetricKind metric, const Focus& focus) const {
  return fraction(metric, compiled(focus));
}

double TraceView::fraction(MetricKind metric, const FocusFilter& filter) const {
  const double window = trace_.duration;
  if (window <= 0.0 || filter.num_selected_ranks == 0) return 0.0;
  return query(metric, filter) / (window * filter.num_selected_ranks);
}

}  // namespace histpc::metrics
