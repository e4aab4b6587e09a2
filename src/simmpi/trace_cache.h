// TraceCache: content-addressed store of binary trace snapshots.
//
// The simulator is deterministic: a given (recorded program, network
// model) pair — the machine spec travels inside the program — always
// produces the same ExecutionTrace. The cache exploits that by keying
// snapshots on a stable 128-bit hash of those inputs (TraceKey), so a
// session that would re-simulate an already-seen configuration instead
// reloads the trace at memory-bandwidth speed (the `session.trace_load`
// timer vs the `session.simulate` one). Each cache file carries the full
// key material in a small header ("HPCCKF1\n" + primary + check digests)
// that is re-verified on every hit, so a hit is served only for the exact
// inputs that produced the snapshot.
//
// Robustness mirrors the experiment store's hardening rules:
//  * writes are atomic (unique temp file in the cache directory, then
//    rename), so readers never observe a partial snapshot;
//  * loads validate strictly (magic, version, CRC, field ranges); any
//    failure quarantines the file (renamed to "<name>.quarantined") with a
//    warning and reports a miss — the caller falls back to simulating, so
//    a corrupt cache can cost time but never correctness;
//  * the directory is capped by total snapshot bytes with LRU eviction
//    (least-recently-used by file mtime; hits touch the file).
//
// When a telemetry::Registry is attached, the cache maintains the
// `trace_cache.hit` / `trace_cache.miss` / `trace_cache.store` /
// `trace_cache.evicted` / `trace_cache.quarantined` /
// `trace_cache.key_mismatch` counters.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "simmpi/program.h"
#include "simmpi/simulator.h"
#include "simmpi/trace.h"
#include "telemetry/registry.h"

namespace histpc::simmpi {

/// Content key of everything that determines a simulated trace: the
/// network model, the machine spec, every recorded op of every rank, and
/// the function table. TraceKeyWriter lays those inputs out as one stream
/// of canonical little-endian 64-bit words and folds it into two 64-bit
/// lanes that start from different seeds, each with the XXH64 round and
/// avalanche. There are two ways to make a key, and both go through that
/// writer, so they give the same key for the same program:
/// trace_content_key hashes a built SimProgram, and record_trace_key
/// records a ProgramSpec straight into the stream without building one
/// (what a trace-cache session does, so a hit never builds a program).
/// The primary digest addresses the cache file, and the check digest is
/// stored inside it and re-verified on every hit, so a filename collision
/// (or a hand-renamed file) is detected instead of silently serving the
/// wrong trace. Same inputs hash identically across runs, platforms,
/// processes.
struct TraceKey {
  std::uint64_t primary = 0;  ///< addresses the snapshot file
  std::uint64_t check = 0;    ///< verified against the file header on load

  bool operator==(const TraceKey&) const = default;
};

/// The key's word layout, written in the order a recording produces it:
///  1. the network model (4 words), the machine spec (node count, node
///     names, node speeds, rank count, placement, process names) and the
///     number of ranks;
///  2. for each rank, each op as five words, its packed func/kind word
///     first, then the rank's terminator word and its op count;
///  3. the function table: its size, then each function and module name.
/// A string is its length, then its bytes in words, the tail zero-padded.
///
/// Read from the front, the stream splits into fields in only one way, so
/// two different programs never give the same stream. Every variable-length
/// part is announced by a count read before it (node and rank counts,
/// string lengths, the function count) or, for a rank's ops, closed by the
/// terminator: a word in op position is either an op's func/kind word,
/// whose high half is its 8-bit kind, or the terminator, whose high half
/// (0xFFFFFFFF) no kind can take. The sizes of the machine's parallel
/// arrays are tied to those counts by MachineSpec::validate, which every
/// recording runs. And since each XXH64 round is a bijection of the lane
/// state for a fixed word and of the word for a fixed state, as is the
/// avalanche, two streams of equal length that differ in one word always
/// differ in both digests.
class TraceKeyWriter {
 public:
  /// Writes part 1.
  TraceKeyWriter(const NetworkModel& net, const MachineSpec& machine, std::size_t nranks);

  /// One op of the current rank. The three packed pairs are lossless
  /// because each of those fields is 32 bits or narrower.
  void op(const Op& op) {
    static_assert(sizeof(Op::peer) == 4 && sizeof(Op::tag) == 4 && sizeof(Op::comm) == 4 &&
                  sizeof(Op::request) == 4 && sizeof(Op::func) == 4 && sizeof(Op::kind) == 1);
    pair(static_cast<std::uint32_t>(op.func), static_cast<std::uint8_t>(op.kind));
    f64(op.seconds);
    word(op.bytes);
    pair(static_cast<std::uint32_t>(op.peer), static_cast<std::uint32_t>(op.tag));
    pair(static_cast<std::uint32_t>(op.comm), static_cast<std::uint32_t>(op.request));
  }

  /// Closes the current rank, which recorded `ops` ops.
  void end_rank(std::uint64_t ops) {
    word(kRankEnd);
    word(ops);
  }

  /// Writes part 3 and returns the digests.
  TraceKey finish(const std::vector<FuncInfo>& functions);

 private:
  static constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
  static constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
  static constexpr std::uint64_t kRankEnd = 0xFFFFFFFFull << 32;

  void word(std::uint64_t w) {
    primary_ = round(primary_, w);
    check_ = round(check_, w);
  }
  void f64(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  /// Two 32-bit fields in one word, `lo` in the low half.
  void pair(std::uint32_t lo, std::uint32_t hi) {
    word(static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32));
  }
  void str(const std::string& s);

  static std::uint64_t round(std::uint64_t acc, std::uint64_t w) {
    return std::rotl(acc + w * kPrime2, 31) * kPrime1;
  }

  // XXH64's first and fourth lane seeds.
  std::uint64_t primary_ = kPrime1 + kPrime2;
  std::uint64_t check_ = 0 - kPrime1;
};

/// Key of a built program.
TraceKey trace_content_key(const SimProgram& program, const NetworkModel& net);

/// Key of the program `spec` records, made while recording it: each op
/// goes into the key stream instead of an op vector, so no program is
/// built. Equal to trace_content_key(record_program(spec), net), and throws
/// what record_program throws on a malformed body.
TraceKey record_trace_key(const ProgramSpec& spec, const NetworkModel& net);

struct TraceCacheConfig {
  std::string directory;
  /// Byte-size cap on the sum of snapshot files; LRU-evicted past it.
  std::uint64_t max_bytes = 256ull << 20;
};

class TraceCache {
 public:
  explicit TraceCache(TraceCacheConfig config, telemetry::Registry* registry = nullptr);

  const TraceCacheConfig& config() const { return config_; }

  /// Snapshot path for `key`: "<dir>/<016x key.primary>.htb".
  std::string path_for(const TraceKey& key) const;

  /// Load the snapshot for `key`. Returns the trace on a hit; nullopt on
  /// a miss or after quarantining a file that failed validation. A file
  /// whose stored key material does not match `key` (filename collision,
  /// renamed or pre-key-header legacy file) counts as a miss with a
  /// warning and bumps `trace_cache.key_mismatch`; the file is left for
  /// store() to overwrite. Never throws on corrupt input.
  std::optional<ExecutionTrace> load(const TraceKey& key) const;

  /// Store a snapshot for `key` (atomic write-then-rename) with the full
  /// key material in the file header, then enforce the byte cap. Failures
  /// are logged and swallowed: the cache is an optimization, never a
  /// reason to fail a diagnosis.
  void store(const TraceKey& key, const ExecutionTrace& trace) const;

 private:
  void count(const char* name) const;
  void evict_over_cap(const std::string& just_written) const;

  TraceCacheConfig config_;
  telemetry::Registry* registry_;
};

}  // namespace histpc::simmpi
