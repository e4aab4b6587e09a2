#include "golden.h"

#include <cstdio>

#include "core/session.h"
#include "core/variant_runner.h"
#include "history/postmortem.h"
#include "serve/session_pool.h"
#include "util/crc32c.h"
#include "util/json.h"

namespace histpc::golden {

namespace {

std::string crc_hex(const std::string& bytes) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x", static_cast<unsigned>(util::crc32c(bytes)));
  return buf;
}

}  // namespace

std::vector<std::string> golden_lines(const std::string& app) {
  core::DiagnosisSession session(app);
  // The directed variants use directives harvested from the app's own
  // undirected record; variant 0 ("No Directives") re-runs that search.
  const history::ExperimentRecord base_record = session.make_record(session.diagnose(), "golden");

  std::vector<std::string> lines;
  for (const core::DiagnosisVariant& variant : core::table1_variants(base_record)) {
    const pc::DiagnosisResult result = session.diagnose(variant.directives);
    history::ExperimentRecord record = session.make_record(result, "golden");
    record.machine.clear();

    util::Json line = util::Json::object();
    line["app"] = app;
    line["variant"] = variant.name;
    line["bottlenecks"] = result.stats.bottlenecks;
    line["pairs_tested"] = result.stats.pairs_tested;
    line["result_crc"] = crc_hex(serve::diagnose_result_json(app, result, "").dump());
    line["shg_crc"] = crc_hex(session.last_shg());
    line["record_crc"] = crc_hex(record.to_json().dump());
    lines.push_back(line.dump());
  }

  const pc::DiagnosisResult postmortem = history::postmortem_diagnose(session.view());
  history::ExperimentRecord record =
      history::postmortem_record(app, "golden", session.view());
  record.machine.clear();
  util::Json line = util::Json::object();
  line["app"] = app;
  line["variant"] = "Postmortem";
  line["bottlenecks"] = postmortem.stats.bottlenecks;
  line["pairs_tested"] = postmortem.stats.pairs_tested;
  line["result_crc"] = crc_hex(serve::diagnose_result_json(app, postmortem, "").dump());
  line["record_crc"] = crc_hex(record.to_json().dump());
  lines.push_back(line.dump());
  return lines;
}

}  // namespace histpc::golden
