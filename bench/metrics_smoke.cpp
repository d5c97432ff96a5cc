// Bench-output smoke check: emit a BENCH_*.json metrics file the way the
// real benches do (instrumented session -> global registry ->
// jsi_metrics_dump) and re-parse it with the bundled JSON parser. Exits
// nonzero if the file cannot be written, parsed, or is missing the
// counters every instrumented run must produce. Registered as a CTest
// test so a malformed metrics emitter fails the build's bench_smoke run.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/session.hpp"
#include "util/json.hpp"
#include "obs/metrics_sink.hpp"
#include "obs/registry.hpp"

namespace {

int fail(const std::string& why) {
  std::cout << "FAIL: " << why << "\n";
  return 1;
}

}  // namespace

int main() {
  jsi::core::SocConfig cfg;
  cfg.n_wires = 8;
  jsi::core::SiSocDevice soc(cfg);
  jsi::core::SiTestSession session(soc);
  jsi::obs::MetricsSink sink(jsi::obs::global_registry());
  session.set_sink(&sink);
  const auto report = session.run(jsi::core::ObservationMethod::PerPattern);

  const std::string path = jsi::obs::jsi_metrics_dump("metrics_smoke");
  if (path.empty()) return fail("jsi_metrics_dump wrote nothing");

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  const auto doc = jsi::util::json::parse(buf.str(), &err);
  std::remove(path.c_str());
  if (!doc.has_value()) return fail("emitted JSON does not parse: " + err);
  if (!doc->is_object()) return fail("top level is not an object");

  const jsi::util::json::Value* bench = doc->find("benchmark");
  if (bench == nullptr || bench->str != "metrics_smoke") {
    return fail("missing/wrong benchmark name");
  }
  const jsi::util::json::Value* metrics = doc->find("metrics");
  if (metrics == nullptr) return fail("missing metrics object");
  const jsi::util::json::Value* counters = metrics->find("counters");
  if (counters == nullptr) return fail("missing counters object");

  for (const char* key : {"tck.total", "tck.phase.generation",
                          "tck.phase.observation", "session.enhanced"}) {
    if (counters->find(key) == nullptr) {
      return fail(std::string("missing counter ") + key);
    }
  }
  const double total = counters->find("tck.total")->number;
  if (total != static_cast<double>(report.total_tcks)) {
    return fail("tck.total disagrees with the session report");
  }
  std::cout << "OK: " << path << " round-tripped (" << total << " TCKs)\n";
  return 0;
}
