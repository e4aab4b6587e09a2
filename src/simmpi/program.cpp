#include "simmpi/program.h"

#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "simmpi/trace_cache.h"  // TraceKeyWriter

namespace histpc::simmpi {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::Compute: return "Compute";
    case OpKind::Io: return "Io";
    case OpKind::Send: return "Send";
    case OpKind::Recv: return "Recv";
    case OpKind::Isend: return "Isend";
    case OpKind::Irecv: return "Irecv";
    case OpKind::Wait: return "Wait";
    case OpKind::Waitall: return "Waitall";
    case OpKind::Barrier: return "Barrier";
    case OpKind::Allreduce: return "Allreduce";
    case OpKind::Bcast: return "Bcast";
    case OpKind::Gather: return "Gather";
    case OpKind::Alltoall: return "Alltoall";
    case OpKind::FuncEnter: return "FuncEnter";
    case OpKind::FuncExit: return "FuncExit";
  }
  return "?";
}

MachineSpec MachineSpec::one_to_one(int nranks, std::string_view node_prefix,
                                    std::string_view process_prefix, int node_base) {
  if (nranks <= 0) throw std::invalid_argument("one_to_one: nranks must be positive");
  MachineSpec m;
  for (int i = 0; i < nranks; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%02d", std::string(node_prefix).c_str(), node_base + i);
    m.node_names.emplace_back(buf);
    m.node_speeds.push_back(1.0);
    m.rank_to_node.push_back(i);
    m.process_names.push_back(std::string(process_prefix) + ":" + std::to_string(i + 1));
  }
  return m;
}

void MachineSpec::validate() const {
  if (node_names.empty()) throw std::invalid_argument("MachineSpec: no nodes");
  if (node_names.size() != node_speeds.size())
    throw std::invalid_argument("MachineSpec: node_names/node_speeds size mismatch");
  if (rank_to_node.size() != process_names.size())
    throw std::invalid_argument("MachineSpec: rank_to_node/process_names size mismatch");
  if (rank_to_node.empty()) throw std::invalid_argument("MachineSpec: no ranks");
  for (int node : rank_to_node)
    if (node < 0 || node >= num_nodes())
      throw std::invalid_argument("MachineSpec: rank placed on nonexistent node");
  for (double s : node_speeds)
    if (!(s > 0.0)) throw std::invalid_argument("MachineSpec: node speed must be positive");
}

void Recorder::emit(const Op& op) {
  if (ops_) {
    ops_->push_back(op);
  } else {
    key_->op(op);
    ++recorded_;
  }
}

void Recorder::compute(double seconds) {
  if (seconds < 0) throw std::invalid_argument("compute: negative duration");
  Op op;
  op.kind = OpKind::Compute;
  op.seconds = builder_.jittered(seconds);
  emit(op);
}

void Recorder::io(double seconds) {
  if (seconds < 0) throw std::invalid_argument("io: negative duration");
  Op op;
  op.kind = OpKind::Io;
  op.seconds = seconds;
  emit(op);
}

void Recorder::check_peer(int peer, bool allow_any) const {
  if (allow_any && peer == kAnySource) return;
  if (peer < 0 || peer >= size_)
    throw std::invalid_argument("peer rank " + std::to_string(peer) + " out of range [0," +
                                std::to_string(size_) + ")");
  if (peer == rank_) throw std::invalid_argument("self-messaging is not supported");
}

void Recorder::send(int dest, int tag, std::size_t bytes, int comm) {
  check_peer(dest);
  Op op;
  op.kind = OpKind::Send;
  op.peer = dest;
  op.tag = tag;
  op.comm = comm;
  op.bytes = bytes;
  emit(op);
}

void Recorder::recv(int src, int tag, int comm) {
  check_peer(src, /*allow_any=*/true);
  Op op;
  op.kind = OpKind::Recv;
  op.peer = src;
  op.tag = tag;
  op.comm = comm;
  emit(op);
}

RequestId Recorder::isend(int dest, int tag, std::size_t bytes, int comm) {
  check_peer(dest);
  Op op;
  op.kind = OpKind::Isend;
  op.peer = dest;
  op.tag = tag;
  op.comm = comm;
  op.bytes = bytes;
  op.request = next_request_++;
  emit(op);
  return op.request;
}

RequestId Recorder::irecv(int src, int tag, int comm) {
  check_peer(src, /*allow_any=*/true);
  Op op;
  op.kind = OpKind::Irecv;
  op.peer = src;
  op.tag = tag;
  op.comm = comm;
  op.request = next_request_++;
  emit(op);
  return op.request;
}

void Recorder::wait(RequestId request) {
  if (request < 0 || request >= next_request_)
    throw std::invalid_argument("wait: unknown request " + std::to_string(request));
  Op op;
  op.kind = OpKind::Wait;
  op.request = request;
  emit(op);
}

void Recorder::waitall() {
  Op op;
  op.kind = OpKind::Waitall;
  emit(op);
}

void Recorder::barrier() {
  Op op;
  op.kind = OpKind::Barrier;
  emit(op);
}

void Recorder::allreduce(std::size_t bytes) {
  Op op;
  op.kind = OpKind::Allreduce;
  op.bytes = bytes;
  emit(op);
}

void Recorder::bcast(std::size_t bytes) {
  Op op;
  op.kind = OpKind::Bcast;
  op.bytes = bytes;
  emit(op);
}

void Recorder::gather(std::size_t bytes) {
  Op op;
  op.kind = OpKind::Gather;
  op.bytes = bytes;
  emit(op);
}

void Recorder::alltoall(std::size_t bytes) {
  Op op;
  op.kind = OpKind::Alltoall;
  op.bytes = bytes;
  emit(op);
}

void Recorder::func_enter(std::string_view function, std::string_view module) {
  Op op;
  op.kind = OpKind::FuncEnter;
  op.func = builder_.intern_function(function, module);
  emit(op);
  ++open_funcs_;
}

void Recorder::func_exit() {
  if (open_funcs_ <= 0) throw std::logic_error("func_exit without matching func_enter");
  Op op;
  op.kind = OpKind::FuncExit;
  emit(op);
  --open_funcs_;
}

ProgramBuilder::ProgramBuilder(MachineSpec machine, RecordingOptions options)
    : ProgramBuilder(std::move(machine), options, nullptr) {}

ProgramBuilder::ProgramBuilder(MachineSpec machine, RecordingOptions options,
                               TraceKeyWriter* key)
    : machine_(std::move(machine)), options_(options), rng_(options.seed), key_(key) {
  machine_.validate();
  if (options_.compute_jitter < 0 || options_.compute_jitter > 0.5)
    throw std::invalid_argument("compute_jitter must be in [0, 0.5]");
  if (!key_) procs_.resize(machine_.rank_to_node.size());
}

double ProgramBuilder::jittered(double seconds) {
  if (options_.compute_jitter <= 0.0 || seconds <= 0.0) return seconds;
  // Multiplicative noise, floored so a duration can never invert.
  const double factor = 1.0 + options_.compute_jitter * rng_.normal();
  return seconds * std::max(0.1, factor);
}

void ProgramBuilder::record(const std::function<void(Recorder&)>& body) {
  if (built_) throw std::logic_error("ProgramBuilder reused after build()");
  const int nranks = machine_.num_ranks();
  for (int r = 0; r < nranks; ++r) {
    std::vector<Op>* ops = key_ ? nullptr : &procs_[static_cast<std::size_t>(r)].ops;
    if (ops) ops->clear();
    Recorder rec(*this, r, nranks, ops, key_);
    body(rec);
    if (rec.open_funcs_ != 0)
      throw std::logic_error("rank " + std::to_string(r) + " left " +
                             std::to_string(rec.open_funcs_) + " function scope(s) open");
    if (key_) key_->end_rank(rec.recorded_);
  }
}

FuncId ProgramBuilder::intern_function(std::string_view function, std::string_view module) {
  RecentFunc& recent = recent_funcs_[(reinterpret_cast<std::uintptr_t>(function.data()) >> 3) %
                                     recent_funcs_.size()];
  // An empty slot holds kNoFunc, which the bound check also rejects.
  if (recent.function == function.data() &&
      static_cast<std::size_t>(recent.id) < functions_.size()) {
    const FuncInfo& f = functions_[static_cast<std::size_t>(recent.id)];
    if (f.function == function && f.module == module) return recent.id;
  }
  auto key = std::make_pair(std::string(function), std::string(module));
  FuncId id;
  if (auto it = func_index_.find(key); it != func_index_.end()) {
    id = it->second;
  } else {
    id = static_cast<FuncId>(functions_.size());
    functions_.push_back(FuncInfo{key.first, key.second});
    func_index_.emplace(std::move(key), id);
  }
  recent = {function.data(), id};
  return id;
}

SimProgram ProgramBuilder::build() {
  if (built_) throw std::logic_error("ProgramBuilder::build called twice");
  built_ = true;
  SimProgram p;
  p.machine = std::move(machine_);
  p.procs = std::move(procs_);
  p.functions = std::move(functions_);
  return p;
}

SimProgram record_program(const ProgramSpec& spec) {
  ProgramBuilder builder(spec.machine, spec.options);
  builder.record(spec.body);
  return builder.build();
}

}  // namespace histpc::simmpi
