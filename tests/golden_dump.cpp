// Print the golden-diagnosis lines for every registered app to stdout, in
// the order tests/data/golden_diagnoses.jsonl stores them. Run through
// scripts/refresh_goldens.sh rather than directly.
#include <cstdio>

#include "apps/apps.h"
#include "golden.h"

int main() {
  for (const std::string& app : histpc::apps::app_names())
    for (const std::string& line : histpc::golden::golden_lines(app))
      std::printf("%s\n", line.c_str());
  return 0;
}
