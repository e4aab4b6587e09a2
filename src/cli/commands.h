// The histpc command-line tool's subcommands, as testable functions.
//
//   histpc apps
//   histpc run <app|--workload FILE> [--duration S] [--node-base N]
//                    [--threshold F] [--cost-limit F] [--directives FILE]
//                    [--extended] [--discovery] [--store DIR] [--version V]
//                    [--scenario LABEL] [--save-trace FILE] [--shg] [--dot FILE]
//                    [--postmortem] [--trace FILE] [--trace-format jsonl|chrome]
//                    [--trace-cache DIR] [--no-trace-cache] [--perf-log FILE]
//   histpc report <app|--workload FILE> [--duration S] [--node-base N] [--bins N]
//   histpc variants <app|--workload FILE> [--duration S] [--node-base N]
//                    [--threads N] [--threshold F] [--version V]
//                    [--trace-cache DIR] [--no-trace-cache]
//   histpc list [--store DIR] [--app NAME] [--version V] [--machine NAME]
//                    [--scenario LABEL]
//   histpc migrate [--store DIR] [--jobs N]
//   histpc serve [--host H] [--port N] [--threads N] [--queue-depth N]
//                    [--store DIR] [--trace-cache DIR] [--no-trace-cache]
//                    [--max-body-kb N] [--perf-log FILE] [--no-perf-log]
//                    [--no-result-cache]
//   histpc bench-client [--host H] [--port N] [--rps R] [--duration S]
//                    [--connections N] [--seed N] [--app NAME]
//                    [--app-duration S] [--deadline-ms MS] [--no-result-cache]
//                    [--out FILE] [--connect-wait S]
//   histpc show <run_id> [--store DIR] [--report]
//   histpc harvest <run_id...> [--store DIR] [--out FILE] [--no-priorities]
//                    [--no-general-prunes] [--no-historic-prunes]
//                    [--false-pair-prunes] [--thresholds]
//                    [--combine intersect|union|weighted] [--half-life K]
//                    [--similar-to RUN_ID] [--max-runs N] [--min-similarity S]
//   histpc map <run_id_from> <run_id_to> [--store DIR]
//   histpc compare <run_id_1> <run_id_2> [--store DIR] [--no-map]
//   histpc diff <run_id_1> <run_id_2> [--store DIR]
//   histpc diagnose-trace <trace.json> [--directives FILE] [--shg]
//                    [--trace FILE] [--trace-format jsonl|chrome]
//   histpc trace-report <telemetry-trace>
//   histpc perf-report [--log FILE | --app NAME [--store DIR]] [--json]
//   histpc perf-diff [--log FILE | --app NAME [--store DIR]]
//                    [--baseline FILE] [--window K] [--sigma S]
//                    [--min-rel F] [--min-abs S] [--json]
//
// Every command writes human-readable output to `out` and returns a
// process exit code. main() dispatches and turns exceptions into error
// messages on stderr.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace histpc::cli {

inline constexpr const char* kDefaultStoreDir = ".histpc";
/// Where `run`/`variants` keep binary trace snapshots (simmpi::TraceCache).
/// The cache is on by default for app runs; --no-trace-cache disables it
/// and --trace-cache DIR relocates it.
inline constexpr const char* kDefaultTraceCacheDir = ".histpc/trace-cache";

/// Run one subcommand; `tokens` excludes the program and command names.
int run_command(const std::string& command, const std::vector<std::string>& tokens,
                std::ostream& out);

/// The top-level usage text.
std::string usage();

}  // namespace histpc::cli
