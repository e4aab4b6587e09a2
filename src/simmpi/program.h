// Program recording: turn per-rank C++ functions into op sequences.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "simmpi/ops.h"
#include "util/rng.h"

namespace histpc::simmpi {

struct NetworkModel;   // simulator.h
struct TraceKey;       // trace_cache.h
class TraceKeyWriter;  // trace_cache.h: the content key's word layout

/// Machine description: nodes (with relative CPU speeds) and the rank->node
/// placement. Node and process *names* feed the Machine and Process resource
/// hierarchies; renaming nodes between runs reproduces the paper's mapping
/// problem without changing behaviour.
struct MachineSpec {
  std::vector<std::string> node_names;   ///< e.g. {"poona01", ..., "poona04"}
  std::vector<double> node_speeds;       ///< relative CPU speed, 1.0 = nominal
  std::vector<int> rank_to_node;         ///< placement, size = nranks
  std::vector<std::string> process_names;///< e.g. {"poisson:1", ...}, size = nranks

  /// nranks ranks placed 1:1 on nodes "<prefix><base+i>" (zero-padded to 2).
  static MachineSpec one_to_one(int nranks, std::string_view node_prefix,
                                std::string_view process_prefix, int node_base = 1);

  int num_nodes() const { return static_cast<int>(node_names.size()); }
  int num_ranks() const { return static_cast<int>(rank_to_node.size()); }
  double speed_of_rank(int rank) const { return node_speeds.at(rank_to_node.at(rank)); }

  /// Throws std::invalid_argument if sizes/placement are inconsistent.
  void validate() const;
};

struct ProcessProgram {
  std::vector<Op> ops;
};

/// Recording-time variability model. Real executions of the same program
/// differ run to run (the paper reports medians over repeated runs with
/// standard deviations of 3-17 s); seeded multiplicative noise on compute
/// durations reproduces that while keeping every "run" bit-reproducible
/// for a given seed.
struct RecordingOptions {
  /// Relative standard deviation of compute durations (0 = exact).
  double compute_jitter = 0.0;
  std::uint64_t seed = 0;
};

/// A complete recorded SPMD program, ready for simulation.
struct SimProgram {
  MachineSpec machine;
  std::vector<ProcessProgram> procs;
  std::vector<FuncInfo> functions;  ///< shared, interned function table

  int num_ranks() const { return static_cast<int>(procs.size()); }
};

class ProgramBuilder;

/// Handed to application code, one per rank; records intent without
/// simulating. Blocking/nonblocking distinction therefore only matters at
/// simulation time. Each op goes to one of two places: the rank's op
/// vector, or the content key of a recording that builds no program (see
/// record_trace_key). The checks below run on both.
class Recorder {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }

  void compute(double seconds);
  void io(double seconds);

  void send(int dest, int tag, std::size_t bytes, int comm = 0);
  /// `src` may be kAnySource.
  void recv(int src, int tag, int comm = 0);
  RequestId isend(int dest, int tag, std::size_t bytes, int comm = 0);
  /// `src` may be kAnySource.
  RequestId irecv(int src, int tag, int comm = 0);
  void wait(RequestId request);
  void waitall();
  void barrier();
  void allreduce(std::size_t bytes);
  void bcast(std::size_t bytes);
  void gather(std::size_t bytes);
  void alltoall(std::size_t bytes);

  void func_enter(std::string_view function, std::string_view module);
  void func_exit();

 private:
  friend class ProgramBuilder;
  Recorder(ProgramBuilder& builder, int rank, int size, std::vector<Op>* ops, TraceKeyWriter* key)
      : builder_(builder), rank_(rank), size_(size), ops_(ops), key_(key) {}

  void check_peer(int peer, bool allow_any = false) const;
  void emit(const Op& op);

  ProgramBuilder& builder_;
  int rank_;
  int size_;
  std::vector<Op>* ops_;  ///< the op-vector destination, or null
  TraceKeyWriter* key_;   ///< the key destination, or null
  std::uint64_t recorded_ = 0;  ///< ops folded into the key so far
  RequestId next_request_ = 0;
  int open_funcs_ = 0;
};

/// RAII function scoping; gives ops Code-hierarchy attribution.
class FunctionScope {
 public:
  FunctionScope(Recorder& r, std::string_view function, std::string_view module) : r_(r) {
    r_.func_enter(function, module);
  }
  ~FunctionScope() { r_.func_exit(); }
  FunctionScope(const FunctionScope&) = delete;
  FunctionScope& operator=(const FunctionScope&) = delete;

 private:
  Recorder& r_;
};

/// Everything one recording needs: the machine, the recording options and
/// the body run once per rank. Every recording starts a fresh builder
/// seeded from `options`, so recording a spec twice gives the same ops; the
/// body therefore owns what it reads (it captures by value).
struct ProgramSpec {
  MachineSpec machine;
  RecordingOptions options;
  std::function<void(Recorder&)> body;
};

/// Record `spec` into op vectors, ready for simulation.
SimProgram record_program(const ProgramSpec& spec);

/// Records an SPMD program: runs `body` once per rank with a Recorder.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(MachineSpec machine, RecordingOptions options = {});

  /// Run `body(recorder)` for every rank, in rank order.
  void record(const std::function<void(Recorder&)>& body);

  /// Finalize; the builder must not be reused afterwards.
  SimProgram build();

  FuncId intern_function(std::string_view function, std::string_view module);

 private:
  friend class Recorder;
  friend TraceKey record_trace_key(const ProgramSpec& spec, const NetworkModel& net);
  /// Records into `key` instead of op vectors, for record_trace_key.
  ProgramBuilder(MachineSpec machine, RecordingOptions options, TraceKeyWriter* key);
  /// Apply the jitter model to a nominal compute duration.
  double jittered(double seconds);

  MachineSpec machine_;
  RecordingOptions options_;
  util::Rng rng_;
  std::vector<ProcessProgram> procs_;
  std::vector<FuncInfo> functions_;
  std::map<std::pair<std::string, std::string>, FuncId> func_index_;
  /// The id last interned for a function name at a given address, checked
  /// against the name's contents before use. App code passes the same
  /// string literals on every call, so most lookups end here, not in
  /// func_index_.
  struct RecentFunc {
    const char* function = nullptr;
    FuncId id = kNoFunc;
  };
  std::array<RecentFunc, 16> recent_funcs_{};
  TraceKeyWriter* key_ = nullptr;
  bool built_ = false;
};

}  // namespace histpc::simmpi
