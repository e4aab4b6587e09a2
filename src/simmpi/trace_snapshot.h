// Binary columnar trace snapshots: the `histpc-trace-bin-v1` format.
//
// The JSON schema in trace_io.h stays the human-readable debug format and
// the round-trip oracle; this format exists so a trace produced once can
// be reloaded at memory-bandwidth speed. Layout (all integers and doubles
// little-endian):
//
//   magic "HPCTRB1\n" (8 bytes)
//   u32   format version (= 1)
//   payload:
//     f64 duration
//     u32 num_nodes;     per node: str name;  f64 speed[num_nodes]
//     u32 num_ranks;     i32 rank_to_node[num_ranks]; per rank: str process
//     u32 num_functions; per function: str function, str module
//     u32 num_syncs;     per object: str name
//     per rank: f64 end_time; u64 n;
//               f64 t0[n]; f64 t1[n]; u8 state[n]; i32 func[n]; i32 sync[n]
//   u32   CRC-32C (Castagnoli) of the payload
//
// Strings are length-prefixed (u32 byte count, then bytes, no terminator).
// Interval data is stored column-by-column (SoA), so each column is read
// and written as one bulk copy.
//
// Decoding is strict: bad magic, unknown version, a CRC mismatch, truncated
// or trailing bytes, and out-of-range enum values all throw SnapshotError.
// Callers that must never abort on corrupt input (the trace cache) catch it
// and fall back to simulating.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "simmpi/trace.h"

namespace histpc::simmpi {

inline constexpr std::string_view kTraceSnapshotMagic = "HPCTRB1\n";
inline constexpr std::uint32_t kTraceSnapshotVersion = 1;

/// Malformed snapshot bytes (truncation, bad magic/version, CRC mismatch,
/// invalid field values). The message names the offending field.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serialize `trace` to histpc-trace-bin-v1 bytes.
std::string encode_trace_snapshot(const ExecutionTrace& trace);

/// Parse and validate snapshot bytes. Throws SnapshotError on malformed
/// input and std::logic_error when the decoded trace fails its invariants
/// (ExecutionTrace::validate).
ExecutionTrace decode_trace_snapshot(std::string_view bytes);

/// Load and decode a snapshot file. `offset` skips a caller-owned prefix
/// (e.g. the trace cache's key header) before decoding; a file shorter
/// than the offset is a SnapshotError.
ExecutionTrace load_trace_snapshot(const std::string& path, std::size_t offset = 0);

}  // namespace histpc::simmpi
