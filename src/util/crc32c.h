// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78).
//
// The checksum every versioned binary format in HistPC trails its payload
// with (trace snapshots, experiment records): it has a hardware instruction
// on x86-64 (SSE4.2), and the checksum pass over a multi-megabyte snapshot
// would otherwise dominate the warm-load path the caches exist to make
// cheap. crc32c() probes the CPU for SSE4.2 once per process and uses the
// instruction when it is there; otherwise it falls back to
// crc32c_portable, a slice-by-8 table walk. Both give the same value for
// every input.
#pragma once

#include <cstdint>
#include <string_view>

namespace histpc::util {

/// CRC-32C of `bytes` (initial value 0xFFFFFFFF, final xor-out).
std::uint32_t crc32c(std::string_view bytes);

/// The software fallback crc32c() runs on CPUs without SSE4.2 (and on
/// other architectures). Exposed for tests, so both paths stay checked on
/// any machine.
std::uint32_t crc32c_portable(std::string_view bytes);

}  // namespace histpc::util
