// Golden diagnoses: CRC-32C digests of every registered app's undirected
// search, of the five directed Table-1 variants harvested from its own
// record, and of its postmortem evaluation. The committed lines in tests/data/golden_diagnoses.jsonl pin the
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
/// Lines per app: one per variant, then one for the postmortem evaluation.
inline constexpr std::size_t kLinesPerApp = kVariantsPerApp + 1;

/// The lines of `app`. First one JSON line per variant, in
/// core::table1_variants order: {"app","variant","bottlenecks",
/// "pairs_tested","result_crc","shg_crc","record_crc"}. The digests cover
/// serve::diagnose_result_json, the SHG render, and the experiment record's
/// JSON with `machine` cleared. Then one "Postmortem" line without
/// "shg_crc": the digests of history::postmortem_diagnose's result and of
/// history::postmortem_record. Postmortem filters constrain every
/// hierarchy under all three hypotheses, so this line pins whole-run
/// values beyond the record's code usage.
std::vector<std::string> golden_lines(const std::string& app);

}  // namespace histpc::golden
