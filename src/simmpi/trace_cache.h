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

#include <cstdint>
#include <optional>
#include <string>

#include "simmpi/program.h"
#include "simmpi/simulator.h"
#include "simmpi/trace.h"
#include "telemetry/registry.h"

namespace histpc::simmpi {

/// Content key of everything that determines a simulated trace: the
/// network model, the machine spec, the function table, and every recorded
/// op of every rank. One pass folds those inputs as canonical
/// little-endian 64-bit words (five per op) into two 64-bit lanes that
/// start from different seeds, each with the XXH64 round and avalanche.
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

TraceKey trace_content_key(const SimProgram& program, const NetworkModel& net);

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
