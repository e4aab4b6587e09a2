// histpc_e2e: HistPC's end-to-end benchmark.
//
//   histpc_e2e --workload NAME --seed N --seconds S --trace 0|1
//              [--work-dir DIR] [--trace-out FILE]
//
// Runs one workload (oneshot_paper, history_cycle, scaled_spmd,
// serve_open_loop) through HistPC's public API, prints every metric by
// name with its unit and sample count, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
// ledger. The work directory is created fresh and removed at exit.
#include <unistd.h>

#include <charconv>
#include <cstdlib>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace fs = std::filesystem;
using namespace histpc::e2e;

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string result_line(const Report& report, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += report.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(report.attempted);
  s += ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k) s += ", ";
    s += "\"" + metrics[k].name + "\": {\"value\": " + number(metrics[k].value) +
         ", \"unit\": \"" + metrics[k].unit + "\"}";
  }
  return s + "}}";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "histpc_e2e: " << why
            << "\nusage: histpc_e2e --workload NAME --seed N --seconds S --trace 0|1"
               " [--work-dir DIR] [--trace-out FILE]\nworkloads:";
  for (const std::string& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = std::stoi(value) != 0;
      else if (flag == "--work-dir") options.work_dir = value;
      else if (flag == "--trace-out") options.trace_out = value;
      else usage("unknown option " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  if (options.work_dir.empty())
    options.work_dir = ".bench_work/" + options.workload + "-" + std::to_string(::getpid());
  if (options.trace && options.trace_out.empty())
    options.trace_out = ".bench_out/" + options.workload + "-seed" +
                        std::to_string(options.seed) + ".trace.json";
  std::error_code ec;
  if (!options.trace_out.empty())
    fs::create_directories(fs::path(options.trace_out).parent_path(), ec);

  int status = 0;
  try {
    const Report report = run_workload(options);
    const std::vector<Metric>& metrics = options.trace ? report.per_layer : report.end_to_end;
    std::cout << "workload " << options.workload << ", seed " << options.seed << ", "
              << options.seconds << " s, trace " << options.trace << "\n"
              << report.ledger;
    for (const Metric& m : metrics)
      std::cout << m.name << " = " << m.value << " " << m.unit << " (" << m.samples
                << " samples)\n";
    std::cout << "attempted " << report.attempted << ", failed " << report.failed
              << ", fail_frac = "
              << static_cast<double>(report.failed) / static_cast<double>(report.attempted)
              << " (" << report.attempted << " samples)\n"
              << result_line(report, metrics) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "histpc_e2e: " << options.workload << ": " << e.what() << "\n";
    status = 1;
  }
  fs::remove_all(options.work_dir, ec);
  return status;
}
