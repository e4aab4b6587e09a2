// Binary trace snapshots (histpc-trace-bin-v1) and the content-addressed
// trace cache: JSON <-> binary round-trip property tests (the JSON schema
// is the oracle), corrupt-snapshot handling (truncation, flipped bytes,
// wrong version -> quarantine, never abort), the committed golden fixture
// that locks the on-disk layout, LRU eviction, and the end-to-end oracle:
// diagnosis results are bit-identical between simulated and cache-loaded
// traces.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <typeindex>
#include <typeinfo>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "core/session.h"
#include "scratch_dir.h"
#include "simmpi/trace_cache.h"
#include "simmpi/trace_io.h"
#include "simmpi/trace_snapshot.h"
#include "util/json.h"
#include "util/log.h"
#include "util/rng.h"

namespace histpc {
namespace {

namespace fs = std::filesystem;
using simmpi::ExecutionTrace;
using simmpi::IntervalState;
using simmpi::TraceCache;
using simmpi::TraceCacheConfig;

/// Exact (==, not near) equality on every field; the binary format must
/// round-trip doubles bit-for-bit, like the JSON writer's %.17g does.
void expect_traces_equal(const ExecutionTrace& a, const ExecutionTrace& b) {
  EXPECT_EQ(a.machine.node_names, b.machine.node_names);
  EXPECT_EQ(a.machine.node_speeds, b.machine.node_speeds);
  EXPECT_EQ(a.machine.rank_to_node, b.machine.rank_to_node);
  EXPECT_EQ(a.machine.process_names, b.machine.process_names);
  ASSERT_EQ(a.functions.size(), b.functions.size());
  for (std::size_t f = 0; f < a.functions.size(); ++f) {
    EXPECT_EQ(a.functions[f].function, b.functions[f].function);
    EXPECT_EQ(a.functions[f].module, b.functions[f].module);
  }
  EXPECT_EQ(a.sync_objects, b.sync_objects);
  EXPECT_EQ(a.duration, b.duration);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].end_time, b.ranks[r].end_time);
    ASSERT_EQ(a.ranks[r].intervals.size(), b.ranks[r].intervals.size());
    for (std::size_t i = 0; i < a.ranks[r].intervals.size(); ++i) {
      const auto& x = a.ranks[r].intervals[i];
      const auto& y = b.ranks[r].intervals[i];
      EXPECT_EQ(x.t0, y.t0);
      EXPECT_EQ(x.t1, y.t1);
      EXPECT_EQ(x.state, y.state);
      EXPECT_EQ(x.func, y.func);
      EXPECT_EQ(x.sync_object, y.sync_object);
    }
  }
}

/// A randomized but always-valid trace: monotone non-overlapping intervals,
/// ids in range, duration = max rank end time.
ExecutionTrace random_trace(util::Rng& rng) {
  ExecutionTrace t;
  const std::size_t nnodes = 1 + rng.next_below(3);
  const std::size_t nranks = 1 + rng.next_below(4);
  const std::size_t nfuncs = rng.next_below(4);
  const std::size_t nsyncs = rng.next_below(4);
  for (std::size_t n = 0; n < nnodes; ++n) {
    t.machine.node_names.push_back("node" + std::to_string(n));
    t.machine.node_speeds.push_back(rng.uniform(0.5, 2.0));
  }
  for (std::size_t r = 0; r < nranks; ++r) {
    t.machine.rank_to_node.push_back(static_cast<int>(rng.next_below(nnodes)));
    t.machine.process_names.push_back("rand:" + std::to_string(r));
  }
  for (std::size_t f = 0; f < nfuncs; ++f)
    t.functions.push_back({"f" + std::to_string(f), "m" + std::to_string(f % 2)});
  for (std::size_t s = 0; s < nsyncs; ++s)
    t.sync_objects.push_back("Message/" + std::to_string(s));

  t.ranks.resize(nranks);
  for (std::size_t r = 0; r < nranks; ++r) {
    double time = 0.0;
    const std::size_t n = rng.next_below(30);
    for (std::size_t i = 0; i < n; ++i) {
      simmpi::Interval iv;
      if (rng.next_below(4) == 0) time += rng.uniform(0.0, 0.5);  // gap
      iv.t0 = time;
      time += rng.uniform(1e-6, 2.0);
      iv.t1 = time;
      iv.state = static_cast<IntervalState>(rng.next_below(3));
      iv.func = nfuncs > 0 && rng.next_below(3) != 0
                    ? static_cast<simmpi::FuncId>(rng.next_below(nfuncs))
                    : simmpi::kNoFunc;
      iv.sync_object = iv.state == IntervalState::SyncWait && nsyncs > 0 &&
                               rng.next_below(3) != 0
                           ? static_cast<simmpi::SyncObjectId>(rng.next_below(nsyncs))
                           : simmpi::kNoSyncObject;
      t.ranks[r].intervals.push_back(iv);
    }
    t.ranks[r].end_time = time + rng.uniform(0.0, 0.1);
    t.duration = std::max(t.duration, t.ranks[r].end_time);
  }
  t.validate();
  return t;
}

/// The hand-built trace behind the committed golden fixture. Never change
/// this (or the fixture) without bumping the format version.
ExecutionTrace golden_trace() {
  ExecutionTrace t;
  t.machine.node_names = {"nodeA", "nodeB"};
  t.machine.node_speeds = {1.0, 0.5};
  t.machine.rank_to_node = {0, 1};
  t.machine.process_names = {"golden:0", "golden:1"};
  t.functions = {{"solve", "solver.c"}, {"exchange", "comm.c"}};
  t.sync_objects = {"Message/3:0", "Collective/Barrier"};
  t.ranks.resize(2);
  t.ranks[0].intervals = {
      {0.0, 1.0, IntervalState::Cpu, 0, simmpi::kNoSyncObject},
      {1.0, 1.5, IntervalState::SyncWait, 1, 0},
      {1.5, 2.25, IntervalState::Cpu, simmpi::kNoFunc, simmpi::kNoSyncObject},
  };
  t.ranks[0].end_time = 2.25;
  t.ranks[1].intervals = {
      {0.0, 0.5, IntervalState::IoWait, 0, simmpi::kNoSyncObject},
      {0.5, 2.0, IntervalState::SyncWait, 1, 1},
  };
  t.ranks[1].end_time = 2.0;
  t.duration = 2.25;
  t.validate();
  return t;
}

// ------------------------------------------------- round-trip properties

TEST(TraceSnapshot, RoundTripIsExactOnRandomizedTraces) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    util::Rng rng(seed);
    const ExecutionTrace t = random_trace(rng);
    const ExecutionTrace back =
        simmpi::decode_trace_snapshot(simmpi::encode_trace_snapshot(t));
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_traces_equal(t, back);
    back.validate();
  }
}

TEST(TraceSnapshot, AgreesWithJsonOracleFieldForField) {
  // The JSON schema round-trips doubles exactly (%.17g); decoding both
  // serializations of the same trace must produce identical traces.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    util::Rng rng(seed);
    const ExecutionTrace t = random_trace(rng);
    const ExecutionTrace via_json = simmpi::trace_from_json(simmpi::trace_to_json(t));
    const ExecutionTrace via_binary = simmpi::decode_trace_snapshot(
        simmpi::encode_trace_snapshot(t));
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_traces_equal(via_json, via_binary);
  }
}

TEST(TraceSnapshot, RoundTripsRealAppTraces) {
  for (const char* app : {"poisson_c", "taskfarm"}) {
    apps::AppParams p;
    p.target_duration = 150.0;
    const ExecutionTrace t = apps::run_app(app, p);
    const ExecutionTrace back =
        simmpi::decode_trace_snapshot(simmpi::encode_trace_snapshot(t));
    SCOPED_TRACE(app);
    expect_traces_equal(t, back);
  }
}

TEST(TraceSnapshot, TruncationAlwaysThrowsCleanly) {
  const std::string bytes = simmpi::encode_trace_snapshot(golden_trace());
  const std::size_t cuts[] = {0, 1, 7, 8, 11, 12, 15, 16, 40,
                              bytes.size() / 2, bytes.size() - 1};
  for (std::size_t cut : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    EXPECT_THROW(simmpi::decode_trace_snapshot(std::string_view(bytes).substr(0, cut)),
                 simmpi::SnapshotError);
  }
}

TEST(TraceSnapshot, FlippedByteFailsTheCrc) {
  const std::string pristine = simmpi::encode_trace_snapshot(golden_trace());
  for (std::size_t pos : {std::size_t{20}, pristine.size() / 2, pristine.size() - 1}) {
    std::string bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x40);
    SCOPED_TRACE("flip at " + std::to_string(pos));
    try {
      simmpi::decode_trace_snapshot(bytes);
      FAIL() << "corrupt snapshot decoded successfully";
    } catch (const simmpi::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
    }
  }
}

TEST(TraceSnapshot, WrongVersionRejected) {
  std::string bytes = simmpi::encode_trace_snapshot(golden_trace());
  bytes[8] = 2;  // the version field follows the 8-byte magic
  try {
    simmpi::decode_trace_snapshot(bytes);
    FAIL() << "future-version snapshot decoded successfully";
  } catch (const simmpi::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(TraceSnapshot, BadMagicRejected) {
  std::string bytes = simmpi::encode_trace_snapshot(golden_trace());
  bytes[0] = 'X';
  EXPECT_THROW(simmpi::decode_trace_snapshot(bytes), simmpi::SnapshotError);
}

// ------------------------------------------------------- golden fixture

TEST(TraceSnapshot, GoldenFixtureLocksOnDiskLayout) {
  const std::string path =
      std::string(HISTPC_TEST_DATA_DIR) + "/golden.histpc-trace-bin-v1";
  const std::string fixture = util::read_file(path);
  // Byte-identical encode: any (even accidental) format change trips this.
  EXPECT_EQ(simmpi::encode_trace_snapshot(golden_trace()), fixture);
  expect_traces_equal(golden_trace(), simmpi::decode_trace_snapshot(fixture));
}

// ----------------------------------------------------------- TraceCache

TEST(TraceCacheTest, MissThenStoreThenHit) {
  telemetry::Registry reg;
  const testing_support::ScratchDir scratch("trace_snapshot_miss_store_hit");
  const TraceCache cache({scratch.str(), 64 << 20}, &reg);
  const ExecutionTrace t = golden_trace();
  const simmpi::TraceKey key{42, 43};

  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(reg.counter("trace_cache.miss"), 1u);

  cache.store(key, t);
  EXPECT_EQ(reg.counter("trace_cache.store"), 1u);

  const auto hit = cache.load(key);
  ASSERT_TRUE(hit.has_value());
  expect_traces_equal(t, *hit);
  EXPECT_EQ(reg.counter("trace_cache.hit"), 1u);
}

/// Two ranks on two nodes, two functions, and one op of every OpKind with
/// a non-default value in every field. The key does not simulate, so the
/// ops need not form a runnable program.
simmpi::SimProgram key_test_program() {
  simmpi::SimProgram program;
  program.machine.node_names = {"alpha01", "beta-node-02"};
  program.machine.node_speeds = {1.25, 0.5};
  program.machine.rank_to_node = {1, 0};
  program.machine.process_names = {"keytest:0", "keytest:1"};
  program.functions = {{"exchange_halo", "halo.f"}, {"main", "driver.c"}};
  program.procs.resize(2);
  for (int k = 0; k <= static_cast<int>(simmpi::OpKind::FuncExit); ++k) {
    simmpi::Op op;
    op.kind = static_cast<simmpi::OpKind>(k);
    op.seconds = 0.125 * (k + 1);
    op.peer = k % 2;
    op.tag = 100 + k;
    op.comm = 1 + k % 3;
    op.bytes = 4096u * static_cast<std::size_t>(k + 1);
    op.request = k;
    op.func = k % 2;
    program.procs[static_cast<std::size_t>(k % 2)].ops.push_back(op);
  }
  return program;
}

simmpi::NetworkModel key_test_network() {
  simmpi::NetworkModel net;
  net.latency = 25e-6;
  net.bytes_per_second = 1.5e9;
  net.eager_limit = 8192;
  net.post_overhead = 2e-7;
  return net;
}

TEST(TraceCacheTest, ContentKeyIsStableAndSensitive) {
  apps::AppParams p;
  p.target_duration = 150.0;
  const simmpi::SimProgram program = apps::build_app("poisson_c", p);
  const simmpi::NetworkModel net = apps::network_for("poisson_c");
  const simmpi::TraceKey key = simmpi::trace_content_key(program, net);
  EXPECT_EQ(key, simmpi::trace_content_key(program, net));  // deterministic

  apps::AppParams longer = p;
  longer.target_duration = 300.0;
  EXPECT_NE(key, simmpi::trace_content_key(apps::build_app("poisson_c", longer), net));
  simmpi::NetworkModel slow = net;
  slow.bytes_per_second /= 2;
  EXPECT_NE(key, simmpi::trace_content_key(program, slow));

  // Known answer: the digests name cache files, so changing them must be
  // a deliberate edit of these literals.
  const simmpi::SimProgram kat_program = key_test_program();
  const simmpi::NetworkModel kat_net = key_test_network();
  const simmpi::TraceKey kat_key = simmpi::trace_content_key(kat_program, kat_net);
  EXPECT_EQ(kat_key.primary, 0xe7ecd0d54cda17ddull);
  EXPECT_EQ(kat_key.check, 0x2dacd36051d41481ull);

  // Changing any one covered input changes both digests.
  using Mutation = std::function<void(simmpi::SimProgram&, simmpi::NetworkModel&)>;
  const auto op = [](simmpi::SimProgram& prog) -> simmpi::Op& { return prog.procs[1].ops[2]; };
  const std::vector<std::pair<std::string, Mutation>> mutations = {
      {"op.kind", [&](auto& prog, auto&) { op(prog).kind = simmpi::OpKind::Barrier; }},
      {"op.seconds", [&](auto& prog, auto&) { op(prog).seconds += 1e-9; }},
      {"op.peer", [&](auto& prog, auto&) { op(prog).peer = simmpi::kAnySource; }},
      {"op.tag", [&](auto& prog, auto&) { op(prog).tag += 1; }},
      {"op.comm", [&](auto& prog, auto&) { op(prog).comm += 1; }},
      {"op.bytes", [&](auto& prog, auto&) { op(prog).bytes += 1; }},
      {"op.request", [&](auto& prog, auto&) { op(prog).request += 1; }},
      {"op.func", [&](auto& prog, auto&) { op(prog).func = simmpi::kNoFunc; }},
      {"net.latency", [](auto&, auto& n) { n.latency *= 2; }},
      {"net.bytes_per_second", [](auto&, auto& n) { n.bytes_per_second *= 2; }},
      {"net.eager_limit", [](auto&, auto& n) { n.eager_limit += 1; }},
      {"net.post_overhead", [](auto&, auto& n) { n.post_overhead = 0.0; }},
      {"node name", [](auto& prog, auto&) { prog.machine.node_names[1] = "beta-node-03"; }},
      {"node speed", [](auto& prog, auto&) { prog.machine.node_speeds[0] = 1.0; }},
      {"rank placement", [](auto& prog, auto&) { prog.machine.rank_to_node[1] = 1; }},
      {"process name", [](auto& prog, auto&) { prog.machine.process_names[0] = "keytest:9"; }},
      {"function name", [](auto& prog, auto&) { prog.functions[0].function = "exchange_hal0"; }},
      {"module name", [](auto& prog, auto&) { prog.functions[1].module = "driver.f"; }},
      {"adjacent ops swapped",
       [](auto& prog, auto&) { std::swap(prog.procs[0].ops[3], prog.procs[0].ops[4]); }},
      {"last op of rank 0 moved to the front of rank 1",
       [](auto& prog, auto&) {
         auto& from = prog.procs[0].ops;
         auto& to = prog.procs[1].ops;
         to.insert(to.begin(), from.back());
         from.pop_back();
       }},
      // The stream keeps its length here: the rank terminators and op
      // counts, not a count ahead of each rank's ops, mark where ranks end.
      {"all of rank 1's ops moved to the end of rank 0",
       [](auto& prog, auto&) {
         auto& from = prog.procs[1].ops;
         auto& to = prog.procs[0].ops;
         to.insert(to.end(), from.begin(), from.end());
         from.clear();
       }},
      {"unused function appended to the table",
       [](auto& prog, auto&) { prog.functions.push_back({"unused", "unused.f"}); }},
  };
  for (const auto& [name, mutate] : mutations) {
    simmpi::SimProgram changed_program = kat_program;
    simmpi::NetworkModel changed_net = kat_net;
    mutate(changed_program, changed_net);
    const simmpi::TraceKey changed = simmpi::trace_content_key(changed_program, changed_net);
    EXPECT_NE(changed.primary, kat_key.primary) << name;
    EXPECT_NE(changed.check, kat_key.check) << name;
  }
}

// e2ebench and micro_core fill caches with trace_content_key over a built
// program, while a session records straight into the key; if the two ever
// differed, every warm lookup would silently miss.
class RecordedKey : public ::testing::TestWithParam<std::string> {};

TEST_P(RecordedKey, EqualsTheKeyOfTheBuiltProgram) {
  const std::string& app = GetParam();
  apps::AppParams renamed;
  renamed.node_base = 9;
  apps::AppParams jittered;
  jittered.compute_jitter = 0.02;
  jittered.seed = 4242;
  const simmpi::NetworkModel net = apps::network_for(app);
  for (const apps::AppParams& p : {apps::AppParams{}, renamed, jittered}) {
    const simmpi::TraceKey built = simmpi::trace_content_key(apps::build_app(app, p), net);
    EXPECT_EQ(simmpi::record_trace_key(apps::app_spec(app, p), net), built)
        << "node_base " << p.node_base << ", jitter " << p.compute_jitter;
  }
}

INSTANTIATE_TEST_SUITE_P(All, RecordedKey, ::testing::ValuesIn(apps::app_names()),
                         [](const auto& param_info) { return param_info.param; });

/// Dynamic type of what `fn` throws (typeid(void) when it returns).
std::type_index thrown_type(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return typeid(e);
  }
  return typeid(void);
}

TEST(TraceCacheTest, RecordingIntoTheKeyRunsTheRecorderChecks) {
  const simmpi::NetworkModel net;
  const auto spec = [](std::function<void(simmpi::Recorder&)> body) {
    return simmpi::ProgramSpec{simmpi::MachineSpec::one_to_one(2, "node", "bad"), {},
                               std::move(body)};
  };
  const std::vector<std::pair<std::string, simmpi::ProgramSpec>> broken = {
      {"peer out of range", spec([](simmpi::Recorder& r) { r.send(5, 0, 8); })},
      {"wait on an unknown request", spec([](simmpi::Recorder& r) { r.wait(3); })},
      {"function scope left open",
       spec([](simmpi::Recorder& r) { r.func_enter("main", "main.c"); })},
  };
  for (const auto& [name, s] : broken) {
    const std::type_index vectors = thrown_type([&] { simmpi::record_program(s); });
    EXPECT_NE(vectors, std::type_index(typeid(void))) << name;
    EXPECT_EQ(thrown_type([&] { simmpi::record_trace_key(s, net); }), vectors) << name;
  }
}

TEST(TraceCacheTest, QuarantinesCorruptSnapshotAndRecovers) {
  telemetry::Registry reg;
  const testing_support::ScratchDir scratch("trace_snapshot_quarantine");
  const std::string dir = scratch.str();
  const TraceCache cache({dir, 64 << 20}, &reg);
  const simmpi::TraceKey key{7, 8};
  cache.store(key, golden_trace());

  // Corrupt the stored snapshot in place.
  util::write_file(cache.path_for(key), "garbage, not a snapshot");

  std::vector<std::string> warnings;
  util::set_log_sink([&](util::LogLevel level, const std::string& line) {
    if (level == util::LogLevel::Warn) warnings.push_back(line);
  });
  const auto result = cache.load(key);
  util::set_log_sink({});

  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(reg.counter("trace_cache.quarantined"), 1u);
  EXPECT_EQ(reg.counter("trace_cache.miss"), 1u);
  EXPECT_FALSE(fs::exists(cache.path_for(key)));
  EXPECT_TRUE(fs::exists(cache.path_for(key) + ".quarantined"));
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("quarantining corrupt trace snapshot"), std::string::npos);

  // The slot is reusable: a fresh store serves hits again.
  cache.store(key, golden_trace());
  EXPECT_TRUE(cache.load(key).has_value());
}

TEST(TraceCacheTest, KeyMismatchIsAMissNotAHit) {
  telemetry::Registry reg;
  const testing_support::ScratchDir scratch("trace_snapshot_key_mismatch");
  const std::string dir = scratch.str();
  const TraceCache cache({dir, 64 << 20}, &reg);
  const ExecutionTrace t = golden_trace();
  cache.store({5, 500}, t);

  // Same filename (primary digest), different check digest — a filename
  // collision or a renamed file. Must not serve the stored trace.
  std::vector<std::string> warnings;
  util::set_log_sink([&](util::LogLevel level, const std::string& line) {
    if (level == util::LogLevel::Warn) warnings.push_back(line);
  });
  EXPECT_FALSE(cache.load({5, 501}).has_value());
  util::set_log_sink({});
  EXPECT_EQ(reg.counter("trace_cache.key_mismatch"), 1u);
  EXPECT_EQ(reg.counter("trace_cache.miss"), 1u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("key mismatch"), std::string::npos);
  // The file survives the mismatch: the slot's true owner still hits.
  EXPECT_TRUE(cache.load({5, 500}).has_value());
  EXPECT_EQ(reg.counter("trace_cache.hit"), 1u);

  // A raw snapshot without the key header (pre-TraceKey cache file) cannot
  // be verified; it is quarantined like any other unvalidatable file.
  cache.store({6, 600}, t);
  util::write_file(cache.path_for({6, 600}), simmpi::encode_trace_snapshot(t));
  util::set_log_sink([&](util::LogLevel level, const std::string& line) {
    if (level == util::LogLevel::Warn) warnings.push_back(line);
  });
  EXPECT_FALSE(cache.load({6, 600}).has_value());
  util::set_log_sink({});
  EXPECT_TRUE(fs::exists(cache.path_for({6, 600}) + ".quarantined"));
}

TEST(TraceCacheTest, EvictsLeastRecentlyUsedPastByteCap) {
  telemetry::Registry reg;
  const testing_support::ScratchDir scratch("trace_snapshot_evict");
  const std::string dir = scratch.str();
  const ExecutionTrace t = golden_trace();
  const std::uint64_t snapshot_bytes = simmpi::encode_trace_snapshot(t).size();
  // Room for two snapshots, not three.
  const TraceCache cache({dir, snapshot_bytes * 5 / 2}, &reg);

  cache.store({1, 1}, t);
  cache.store({2, 2}, t);
  // Age the first two so mtime order is unambiguous even on coarse clocks.
  const auto old = fs::file_time_type::clock::now() - std::chrono::hours(2);
  fs::last_write_time(cache.path_for({1, 1}), old);
  fs::last_write_time(cache.path_for({2, 2}), old + std::chrono::minutes(1));
  EXPECT_EQ(reg.counter("trace_cache.evicted"), 0u);

  cache.store({3, 3}, t);
  EXPECT_EQ(reg.counter("trace_cache.evicted"), 1u);
  EXPECT_FALSE(fs::exists(cache.path_for({1, 1})));  // oldest gone
  EXPECT_TRUE(fs::exists(cache.path_for({2, 2})));
  EXPECT_TRUE(fs::exists(cache.path_for({3, 3})));
}

TEST(TraceCacheTest, HitTouchKeepsHotEntryThroughEviction) {
  // True LRU, not FIFO: a load() must refresh the entry's recency, so a
  // hot old entry outlives a cold newer one when the cap forces eviction.
  telemetry::Registry reg;
  const testing_support::ScratchDir scratch("trace_snapshot_touch");
  const std::string dir = scratch.str();
  const ExecutionTrace t = golden_trace();
  const std::uint64_t snapshot_bytes = simmpi::encode_trace_snapshot(t).size();
  const TraceCache cache({dir, snapshot_bytes * 5 / 2}, &reg);

  cache.store({1, 1}, t);
  cache.store({2, 2}, t);
  // Make 1 the older entry, then heat it with a hit.
  const auto old = fs::file_time_type::clock::now() - std::chrono::hours(2);
  fs::last_write_time(cache.path_for({1, 1}), old);
  fs::last_write_time(cache.path_for({2, 2}), old + std::chrono::hours(1));
  ASSERT_TRUE(cache.load({1, 1}).has_value());

  cache.store({3, 3}, t);  // over cap: evicts the least recently USED
  EXPECT_EQ(reg.counter("trace_cache.evicted"), 1u);
  EXPECT_TRUE(fs::exists(cache.path_for({1, 1})));   // hot survives
  EXPECT_FALSE(fs::exists(cache.path_for({2, 2})));  // cold goes
  EXPECT_TRUE(fs::exists(cache.path_for({3, 3})));
}

// ------------------------------------------------- session-level oracle

void expect_results_identical(const pc::DiagnosisResult& a, const pc::DiagnosisResult& b) {
  ASSERT_EQ(a.bottlenecks.size(), b.bottlenecks.size());
  for (std::size_t i = 0; i < a.bottlenecks.size(); ++i) {
    EXPECT_EQ(a.bottlenecks[i].hypothesis, b.bottlenecks[i].hypothesis);
    EXPECT_EQ(a.bottlenecks[i].focus, b.bottlenecks[i].focus);
    EXPECT_EQ(a.bottlenecks[i].t_found, b.bottlenecks[i].t_found);
    EXPECT_EQ(a.bottlenecks[i].fraction, b.bottlenecks[i].fraction);
  }
  EXPECT_EQ(a.stats.nodes_created, b.stats.nodes_created);
  EXPECT_EQ(a.stats.pairs_tested, b.stats.pairs_tested);
  EXPECT_EQ(a.stats.bottlenecks, b.stats.bottlenecks);
  EXPECT_EQ(a.stats.end_time, b.stats.end_time);
  EXPECT_EQ(a.stats.last_true_time, b.stats.last_true_time);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].hypothesis, b.nodes[i].hypothesis);
    EXPECT_EQ(a.nodes[i].focus, b.nodes[i].focus);
    EXPECT_EQ(a.nodes[i].status, b.nodes[i].status);
    EXPECT_EQ(a.nodes[i].fraction, b.nodes[i].fraction);
  }
}

TEST(TraceCacheSession, DiagnosisBitIdenticalAcrossSimulateAndCacheLoad) {
  apps::AppParams p;
  p.target_duration = 300.0;
  pc::PcConfig cached_cfg;
  const testing_support::ScratchDir scratch("trace_snapshot_oracle");
  cached_cfg.trace_cache_dir = scratch.str();

  core::DiagnosisSession plain("poisson_c", p);              // no cache
  core::DiagnosisSession cold("poisson_c", p, cached_cfg);   // miss + store
  core::DiagnosisSession warm("poisson_c", p, cached_cfg);   // hit

  EXPECT_EQ(cold.registry().counter("trace_cache.miss"), 1u);
  EXPECT_EQ(warm.registry().counter("trace_cache.hit"), 1u);
  EXPECT_GT(warm.registry().timer("session.trace_load").seconds, 0.0);
  // A hit records once, into the key, and builds no program; a miss
  // records again into op vectors and simulates.
  EXPECT_EQ(warm.registry().timer("session.record").count, 0u);
  EXPECT_EQ(warm.registry().timer("session.simulate").count, 0u);
  EXPECT_EQ(cold.registry().timer("session.record").count, 1u);
  EXPECT_EQ(cold.registry().timer("session.simulate").count, 1u);
  // The session stored its snapshot under the key e2ebench computes.
  const TraceCache cache({cached_cfg.trace_cache_dir});
  EXPECT_TRUE(fs::exists(cache.path_for(simmpi::trace_content_key(
      apps::build_app("poisson_c", p), apps::network_for("poisson_c")))));
  // Every call on the cache path is timed: the key on every cached
  // session, the store only on a miss, neither without a cache.
  EXPECT_EQ(cold.registry().timer("session.trace_key").count, 1u);
  EXPECT_EQ(cold.registry().timer("session.trace_store").count, 1u);
  EXPECT_EQ(warm.registry().timer("session.trace_key").count, 1u);
  EXPECT_EQ(warm.registry().timer("session.trace_store").count, 0u);
  EXPECT_EQ(plain.registry().timer("session.trace_key").count, 0u);
  EXPECT_EQ(plain.registry().timer("session.trace_store").count, 0u);

  expect_traces_equal(plain.trace(), cold.trace());
  expect_traces_equal(plain.trace(), warm.trace());

  const pc::DiagnosisResult r_plain = plain.diagnose();
  const pc::DiagnosisResult r_cold = cold.diagnose();
  const pc::DiagnosisResult r_warm = warm.diagnose();
  expect_results_identical(r_plain, r_cold);
  expect_results_identical(r_plain, r_warm);
}

TEST(TraceCacheSession, CorruptSnapshotFallsBackToSimulation) {
  apps::AppParams p;
  p.target_duration = 150.0;
  pc::PcConfig cfg;
  const testing_support::ScratchDir scratch("trace_snapshot_session_fallback");
  cfg.trace_cache_dir = scratch.str();

  core::DiagnosisSession cold("poisson_c", p, cfg);
  // Trash every snapshot in the cache directory.
  for (const auto& de : fs::directory_iterator(cfg.trace_cache_dir))
    if (de.path().extension() == ".htb") util::write_file(de.path().string(), "zap");

  util::set_log_sink([](util::LogLevel, const std::string&) {});  // keep output clean
  core::DiagnosisSession recovered("poisson_c", p, cfg);
  util::set_log_sink({});

  EXPECT_EQ(recovered.registry().counter("trace_cache.quarantined"), 1u);
  EXPECT_EQ(recovered.registry().counter("trace_cache.hit"), 0u);
  EXPECT_GT(recovered.registry().timer("session.simulate").count, 0u);
  expect_traces_equal(cold.trace(), recovered.trace());
  expect_results_identical(cold.diagnose(), recovered.diagnose());
}

}  // namespace
}  // namespace histpc
