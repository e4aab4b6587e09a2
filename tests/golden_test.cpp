// Golden diagnoses: every registered app's undirected search, its five
// directed Table-1 variants and its postmortem evaluation must reproduce
// the committed digests in tests/data/golden_diagnoses.jsonl byte for
// byte. After an intended change to diagnosis output, regenerate the file
// with scripts/refresh_goldens.sh and commit it with the change.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/apps.h"
#include "golden.h"
#include "util/json.h"
#include "util/strings.h"

namespace histpc::golden {
namespace {

std::vector<std::string> committed_lines() {
  std::vector<std::string> lines;
  for (std::string& line : util::split(
           util::read_file(std::string(HISTPC_TEST_DATA_DIR) + "/golden_diagnoses.jsonl"),
           '\n'))
    if (!line.empty()) lines.push_back(std::move(line));
  return lines;
}

TEST(GoldenDiagnoses, CoverEveryAppAndVariant) {
  const std::vector<std::string> lines = committed_lines();
  const std::vector<std::string> apps = apps::app_names();
  ASSERT_EQ(lines.size(), apps.size() * kLinesPerApp);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const util::Json line = util::Json::parse(lines[i]);
    EXPECT_EQ(line.at("app").as_string(), apps[i / kLinesPerApp]) << "line " << i + 1;
    const bool postmortem = i % kLinesPerApp == kVariantsPerApp;
    EXPECT_EQ(line.at("variant").as_string() == "Postmortem", postmortem) << "line " << i + 1;
  }
}

class GoldenApp : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenApp, MatchesCommittedDigests) {
  const std::string& app = GetParam();
  std::vector<std::string> expected;
  for (const std::string& line : committed_lines())
    if (util::Json::parse(line).at("app").as_string() == app) expected.push_back(line);
  const std::vector<std::string> actual = golden_lines(app);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) EXPECT_EQ(actual[i], expected[i]);
}

INSTANTIATE_TEST_SUITE_P(Apps, GoldenApp, ::testing::ValuesIn(apps::app_names()),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           return param_info.param;
                         });

}  // namespace
}  // namespace histpc::golden
