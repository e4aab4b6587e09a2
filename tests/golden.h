// Golden diagnoses: CRC-32C digests of every registered app's undirected
// search and of the five directed Table-1 variants harvested from its own
// record. The committed lines in tests/data/golden_diagnoses.jsonl pin the
// serial search byte for byte, so a change that moves an engine and its
// in-tree reference twin together still shows up. golden_test compares the
// lines; the golden_dump tool prints them (scripts/refresh_goldens.sh).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace histpc::golden {

/// Variants per app: the undirected search plus the five directed ones.
inline constexpr std::size_t kVariantsPerApp = 6;

/// One JSON line per variant of `app`, in core::table1_variants order:
/// {"app","variant","bottlenecks","pairs_tested","result_crc","shg_crc",
/// "record_crc"}. The digests cover serve::diagnose_result_json, the SHG
/// render, and the experiment record's JSON with `machine` cleared.
std::vector<std::string> golden_lines(const std::string& app);

}  // namespace histpc::golden
