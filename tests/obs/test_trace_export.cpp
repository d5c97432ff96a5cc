// Trace-export coverage: a golden JSONL transcript for the canonical
// 4-wire G-SITEST session, schema validation of the Chrome trace_event
// export, and the null-sink determinism guarantee (attaching the hub
// must not perturb test results by a single byte).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/session.hpp"
#include "obs/hub.hpp"
#include "util/json.hpp"
#include "obs/tracer.hpp"

namespace jsi {
namespace {

core::SiSocDevice make_soc(std::size_t n_wires) {
  core::SocConfig cfg;
  cfg.n_wires = n_wires;
  return core::SiSocDevice(cfg);
}

// Run the 4-wire enhanced session once with op-level tracing (per-TCK
// edges and cache probes suppressed) and return the JSONL transcript.
std::string four_wire_jsonl(bool tap_edges = false) {
  core::SiSocDevice soc = make_soc(4);
  core::SiTestSession session(soc);
  obs::TracerConfig cfg;
  cfg.tap_edges = tap_edges;
  obs::Hub hub(cfg);
  session.set_sink(&hub);
  session.run(core::ObservationMethod::OnceAtEnd);
  std::ostringstream os;
  hub.tracer().write_jsonl(os);
  return os.str();
}

// Golden transcript for the session above. TapOp spans and bus
// transitions are the stable op-level contract of the tracer; any
// change to the plan shape, TCK budget, or serialization format must
// update this golden deliberately.
const char* const kGoldenJsonl = R"GOLDEN({"kind":"SessionBegin","tck":0,"t_ps":0,"name":"enhanced","a":-1,"b":-1,"value":0}
{"kind":"PlanBegin","tck":0,"t_ps":0,"name":"plan","a":42,"b":1,"value":0}
{"kind":"TapOpBegin","tck":0,"t_ps":0,"name":"Reset","a":0,"b":0,"value":0}
{"kind":"TapOpEnd","tck":6,"t_ps":60000,"name":"Reset","a":0,"b":0,"value":6}
{"kind":"TapOpBegin","tck":6,"t_ps":60000,"name":"LoadIr","a":1,"b":0,"value":0}
{"kind":"TapOpEnd","tck":16,"t_ps":160000,"name":"LoadIr","a":1,"b":0,"value":10}
{"kind":"TapOpBegin","tck":16,"t_ps":160000,"name":"ScanDr","a":2,"b":0,"value":0}
{"kind":"TapOpEnd","tck":30,"t_ps":300000,"name":"ScanDr","a":2,"b":0,"value":14}
{"kind":"TapOpBegin","tck":30,"t_ps":300000,"name":"LoadIr","a":3,"b":0,"value":0}
{"kind":"TapOpEnd","tck":40,"t_ps":400000,"name":"LoadIr","a":3,"b":0,"value":10}
{"kind":"TapOpBegin","tck":40,"t_ps":400000,"name":"ScanDr","a":4,"b":0,"value":0}
{"kind":"BusTransition","tck":49,"t_ps":490000,"name":"bus","a":0,"b":-1,"value":1}
{"kind":"TapOpEnd","tck":49,"t_ps":490000,"name":"ScanDr","a":4,"b":0,"value":9}
{"kind":"TapOpBegin","tck":49,"t_ps":490000,"name":"UpdateDr","a":5,"b":0,"value":0}
{"kind":"BusTransition","tck":54,"t_ps":540000,"name":"bus","a":0,"b":-1,"value":2}
{"kind":"TapOpEnd","tck":54,"t_ps":540000,"name":"UpdateDr","a":5,"b":0,"value":5}
{"kind":"TapOpBegin","tck":54,"t_ps":540000,"name":"UpdateDr","a":6,"b":0,"value":0}
{"kind":"BusTransition","tck":59,"t_ps":590000,"name":"bus","a":0,"b":-1,"value":3}
{"kind":"TapOpEnd","tck":59,"t_ps":590000,"name":"UpdateDr","a":6,"b":0,"value":5}
{"kind":"TapOpBegin","tck":59,"t_ps":590000,"name":"UpdateDr","a":7,"b":0,"value":0}
{"kind":"BusTransition","tck":64,"t_ps":640000,"name":"bus","a":0,"b":-1,"value":4}
{"kind":"TapOpEnd","tck":64,"t_ps":640000,"name":"UpdateDr","a":7,"b":0,"value":5}
{"kind":"TapOpBegin","tck":64,"t_ps":640000,"name":"ScanDr","a":8,"b":0,"value":0}
{"kind":"BusTransition","tck":70,"t_ps":700000,"name":"bus","a":0,"b":-1,"value":5}
{"kind":"TapOpEnd","tck":70,"t_ps":700000,"name":"ScanDr","a":8,"b":0,"value":6}
{"kind":"TapOpBegin","tck":70,"t_ps":700000,"name":"UpdateDr","a":9,"b":0,"value":0}
{"kind":"BusTransition","tck":75,"t_ps":750000,"name":"bus","a":0,"b":-1,"value":6}
{"kind":"TapOpEnd","tck":75,"t_ps":750000,"name":"UpdateDr","a":9,"b":0,"value":5}
{"kind":"TapOpBegin","tck":75,"t_ps":750000,"name":"UpdateDr","a":10,"b":0,"value":0}
{"kind":"BusTransition","tck":80,"t_ps":800000,"name":"bus","a":0,"b":-1,"value":7}
{"kind":"TapOpEnd","tck":80,"t_ps":800000,"name":"UpdateDr","a":10,"b":0,"value":5}
{"kind":"TapOpBegin","tck":80,"t_ps":800000,"name":"UpdateDr","a":11,"b":0,"value":0}
{"kind":"BusTransition","tck":85,"t_ps":850000,"name":"bus","a":0,"b":-1,"value":8}
{"kind":"TapOpEnd","tck":85,"t_ps":850000,"name":"UpdateDr","a":11,"b":0,"value":5}
{"kind":"TapOpBegin","tck":85,"t_ps":850000,"name":"ScanDr","a":12,"b":0,"value":0}
{"kind":"BusTransition","tck":91,"t_ps":910000,"name":"bus","a":0,"b":-1,"value":9}
{"kind":"TapOpEnd","tck":91,"t_ps":910000,"name":"ScanDr","a":12,"b":0,"value":6}
{"kind":"TapOpBegin","tck":91,"t_ps":910000,"name":"UpdateDr","a":13,"b":0,"value":0}
{"kind":"BusTransition","tck":96,"t_ps":960000,"name":"bus","a":0,"b":-1,"value":10}
{"kind":"TapOpEnd","tck":96,"t_ps":960000,"name":"UpdateDr","a":13,"b":0,"value":5}
{"kind":"TapOpBegin","tck":96,"t_ps":960000,"name":"UpdateDr","a":14,"b":0,"value":0}
{"kind":"BusTransition","tck":101,"t_ps":1010000,"name":"bus","a":0,"b":-1,"value":11}
{"kind":"TapOpEnd","tck":101,"t_ps":1010000,"name":"UpdateDr","a":14,"b":0,"value":5}
{"kind":"TapOpBegin","tck":101,"t_ps":1010000,"name":"UpdateDr","a":15,"b":0,"value":0}
{"kind":"BusTransition","tck":106,"t_ps":1060000,"name":"bus","a":0,"b":-1,"value":12}
{"kind":"TapOpEnd","tck":106,"t_ps":1060000,"name":"UpdateDr","a":15,"b":0,"value":5}
{"kind":"TapOpBegin","tck":106,"t_ps":1060000,"name":"ScanDr","a":16,"b":0,"value":0}
{"kind":"BusTransition","tck":112,"t_ps":1120000,"name":"bus","a":0,"b":-1,"value":13}
{"kind":"TapOpEnd","tck":112,"t_ps":1120000,"name":"ScanDr","a":16,"b":0,"value":6}
{"kind":"TapOpBegin","tck":112,"t_ps":1120000,"name":"UpdateDr","a":17,"b":0,"value":0}
{"kind":"BusTransition","tck":117,"t_ps":1170000,"name":"bus","a":0,"b":-1,"value":14}
{"kind":"TapOpEnd","tck":117,"t_ps":1170000,"name":"UpdateDr","a":17,"b":0,"value":5}
{"kind":"TapOpBegin","tck":117,"t_ps":1170000,"name":"UpdateDr","a":18,"b":0,"value":0}
{"kind":"BusTransition","tck":122,"t_ps":1220000,"name":"bus","a":0,"b":-1,"value":15}
{"kind":"TapOpEnd","tck":122,"t_ps":1220000,"name":"UpdateDr","a":18,"b":0,"value":5}
{"kind":"TapOpBegin","tck":122,"t_ps":1220000,"name":"UpdateDr","a":19,"b":0,"value":0}
{"kind":"BusTransition","tck":127,"t_ps":1270000,"name":"bus","a":0,"b":-1,"value":16}
{"kind":"TapOpEnd","tck":127,"t_ps":1270000,"name":"UpdateDr","a":19,"b":0,"value":5}
{"kind":"TapOpBegin","tck":127,"t_ps":1270000,"name":"ScanDr","a":20,"b":0,"value":0}
{"kind":"BusTransition","tck":133,"t_ps":1330000,"name":"bus","a":0,"b":-1,"value":17}
{"kind":"TapOpEnd","tck":133,"t_ps":1330000,"name":"ScanDr","a":20,"b":0,"value":6}
{"kind":"TapOpBegin","tck":133,"t_ps":1330000,"name":"LoadIr","a":21,"b":0,"value":0}
{"kind":"BusTransition","tck":143,"t_ps":1430000,"name":"bus","a":0,"b":-1,"value":18}
{"kind":"TapOpEnd","tck":143,"t_ps":1430000,"name":"LoadIr","a":21,"b":0,"value":10}
{"kind":"TapOpBegin","tck":143,"t_ps":1430000,"name":"ScanDr","a":22,"b":0,"value":0}
{"kind":"TapOpEnd","tck":157,"t_ps":1570000,"name":"ScanDr","a":22,"b":0,"value":14}
{"kind":"TapOpBegin","tck":157,"t_ps":1570000,"name":"LoadIr","a":23,"b":0,"value":0}
{"kind":"BusTransition","tck":167,"t_ps":1670000,"name":"bus","a":0,"b":-1,"value":19}
{"kind":"TapOpEnd","tck":167,"t_ps":1670000,"name":"LoadIr","a":23,"b":0,"value":10}
{"kind":"TapOpBegin","tck":167,"t_ps":1670000,"name":"ScanDr","a":24,"b":0,"value":0}
{"kind":"BusTransition","tck":176,"t_ps":1760000,"name":"bus","a":0,"b":-1,"value":20}
{"kind":"TapOpEnd","tck":176,"t_ps":1760000,"name":"ScanDr","a":24,"b":0,"value":9}
{"kind":"TapOpBegin","tck":176,"t_ps":1760000,"name":"UpdateDr","a":25,"b":0,"value":0}
{"kind":"BusTransition","tck":181,"t_ps":1810000,"name":"bus","a":0,"b":-1,"value":21}
{"kind":"TapOpEnd","tck":181,"t_ps":1810000,"name":"UpdateDr","a":25,"b":0,"value":5}
{"kind":"TapOpBegin","tck":181,"t_ps":1810000,"name":"UpdateDr","a":26,"b":0,"value":0}
{"kind":"BusTransition","tck":186,"t_ps":1860000,"name":"bus","a":0,"b":-1,"value":22}
{"kind":"TapOpEnd","tck":186,"t_ps":1860000,"name":"UpdateDr","a":26,"b":0,"value":5}
{"kind":"TapOpBegin","tck":186,"t_ps":1860000,"name":"UpdateDr","a":27,"b":0,"value":0}
{"kind":"BusTransition","tck":191,"t_ps":1910000,"name":"bus","a":0,"b":-1,"value":23}
{"kind":"TapOpEnd","tck":191,"t_ps":1910000,"name":"UpdateDr","a":27,"b":0,"value":5}
{"kind":"TapOpBegin","tck":191,"t_ps":1910000,"name":"ScanDr","a":28,"b":0,"value":0}
{"kind":"BusTransition","tck":197,"t_ps":1970000,"name":"bus","a":0,"b":-1,"value":24}
{"kind":"TapOpEnd","tck":197,"t_ps":1970000,"name":"ScanDr","a":28,"b":0,"value":6}
{"kind":"TapOpBegin","tck":197,"t_ps":1970000,"name":"UpdateDr","a":29,"b":0,"value":0}
{"kind":"BusTransition","tck":202,"t_ps":2020000,"name":"bus","a":0,"b":-1,"value":25}
{"kind":"TapOpEnd","tck":202,"t_ps":2020000,"name":"UpdateDr","a":29,"b":0,"value":5}
{"kind":"TapOpBegin","tck":202,"t_ps":2020000,"name":"UpdateDr","a":30,"b":0,"value":0}
{"kind":"BusTransition","tck":207,"t_ps":2070000,"name":"bus","a":0,"b":-1,"value":26}
{"kind":"TapOpEnd","tck":207,"t_ps":2070000,"name":"UpdateDr","a":30,"b":0,"value":5}
{"kind":"TapOpBegin","tck":207,"t_ps":2070000,"name":"UpdateDr","a":31,"b":0,"value":0}
{"kind":"BusTransition","tck":212,"t_ps":2120000,"name":"bus","a":0,"b":-1,"value":27}
{"kind":"TapOpEnd","tck":212,"t_ps":2120000,"name":"UpdateDr","a":31,"b":0,"value":5}
{"kind":"TapOpBegin","tck":212,"t_ps":2120000,"name":"ScanDr","a":32,"b":0,"value":0}
{"kind":"BusTransition","tck":218,"t_ps":2180000,"name":"bus","a":0,"b":-1,"value":28}
{"kind":"TapOpEnd","tck":218,"t_ps":2180000,"name":"ScanDr","a":32,"b":0,"value":6}
{"kind":"TapOpBegin","tck":218,"t_ps":2180000,"name":"UpdateDr","a":33,"b":0,"value":0}
{"kind":"BusTransition","tck":223,"t_ps":2230000,"name":"bus","a":0,"b":-1,"value":29}
{"kind":"TapOpEnd","tck":223,"t_ps":2230000,"name":"UpdateDr","a":33,"b":0,"value":5}
{"kind":"TapOpBegin","tck":223,"t_ps":2230000,"name":"UpdateDr","a":34,"b":0,"value":0}
{"kind":"BusTransition","tck":228,"t_ps":2280000,"name":"bus","a":0,"b":-1,"value":30}
{"kind":"TapOpEnd","tck":228,"t_ps":2280000,"name":"UpdateDr","a":34,"b":0,"value":5}
{"kind":"TapOpBegin","tck":228,"t_ps":2280000,"name":"UpdateDr","a":35,"b":0,"value":0}
{"kind":"BusTransition","tck":233,"t_ps":2330000,"name":"bus","a":0,"b":-1,"value":31}
{"kind":"TapOpEnd","tck":233,"t_ps":2330000,"name":"UpdateDr","a":35,"b":0,"value":5}
{"kind":"TapOpBegin","tck":233,"t_ps":2330000,"name":"ScanDr","a":36,"b":0,"value":0}
{"kind":"BusTransition","tck":239,"t_ps":2390000,"name":"bus","a":0,"b":-1,"value":32}
{"kind":"TapOpEnd","tck":239,"t_ps":2390000,"name":"ScanDr","a":36,"b":0,"value":6}
{"kind":"TapOpBegin","tck":239,"t_ps":2390000,"name":"UpdateDr","a":37,"b":0,"value":0}
{"kind":"BusTransition","tck":244,"t_ps":2440000,"name":"bus","a":0,"b":-1,"value":33}
{"kind":"TapOpEnd","tck":244,"t_ps":2440000,"name":"UpdateDr","a":37,"b":0,"value":5}
{"kind":"TapOpBegin","tck":244,"t_ps":2440000,"name":"UpdateDr","a":38,"b":0,"value":0}
{"kind":"BusTransition","tck":249,"t_ps":2490000,"name":"bus","a":0,"b":-1,"value":34}
{"kind":"TapOpEnd","tck":249,"t_ps":2490000,"name":"UpdateDr","a":38,"b":0,"value":5}
{"kind":"TapOpBegin","tck":249,"t_ps":2490000,"name":"UpdateDr","a":39,"b":0,"value":0}
{"kind":"BusTransition","tck":254,"t_ps":2540000,"name":"bus","a":0,"b":-1,"value":35}
{"kind":"TapOpEnd","tck":254,"t_ps":2540000,"name":"UpdateDr","a":39,"b":0,"value":5}
{"kind":"TapOpBegin","tck":254,"t_ps":2540000,"name":"ScanDr","a":40,"b":0,"value":0}
{"kind":"BusTransition","tck":260,"t_ps":2600000,"name":"bus","a":0,"b":-1,"value":36}
{"kind":"TapOpEnd","tck":260,"t_ps":2600000,"name":"ScanDr","a":40,"b":0,"value":6}
{"kind":"TapOpBegin","tck":260,"t_ps":2600000,"name":"Readout","a":41,"b":1,"value":0}
{"kind":"TapOpEnd","tck":298,"t_ps":2980000,"name":"Readout","a":41,"b":1,"value":38}
{"kind":"PlanEnd","tck":298,"t_ps":2980000,"name":"plan","a":260,"b":38,"value":298}
{"kind":"SessionEnd","tck":298,"t_ps":2980000,"name":"enhanced","a":-1,"b":-1,"value":298}
)GOLDEN";

TEST(TraceExport, GoldenJsonlForFourWireGSitest) {
  const std::string got = four_wire_jsonl();
  const std::string want = kGoldenJsonl;
  // Compare line-by-line for a readable diff on failure.
  std::istringstream gs(got), ws(want);
  std::string gl, wl;
  std::size_t line = 0;
  while (std::getline(ws, wl)) {
    ++line;
    ASSERT_TRUE(std::getline(gs, gl)) << "trace ended early at line " << line;
    EXPECT_EQ(gl, wl) << "line " << line;
  }
  EXPECT_FALSE(std::getline(gs, gl)) << "trace has extra lines";
  EXPECT_EQ(got, want);
}

TEST(TraceExport, JsonlIsDeterministicAcrossRuns) {
  EXPECT_EQ(four_wire_jsonl(), four_wire_jsonl());
}

TEST(TraceExport, EveryJsonlLineParses) {
  const std::string got = four_wire_jsonl(/*tap_edges=*/true);
  std::istringstream is(got);
  std::string line;
  std::size_t n = 0;
  while (std::getline(is, line)) {
    ++n;
    std::string err;
    const auto doc = util::json::parse(line, &err);
    ASSERT_TRUE(doc.has_value()) << "line " << n << ": " << err;
    ASSERT_TRUE(doc->is_object());
    const util::json::Value* kind = doc->find("kind");
    ASSERT_NE(kind, nullptr);
    EXPECT_FALSE(kind->str.empty());
    ASSERT_NE(doc->find("tck"), nullptr);
    ASSERT_NE(doc->find("t_ps"), nullptr);
  }
  EXPECT_GT(n, 100u);  // per-TCK edges present in this variant
}

TEST(TraceExport, ChromeTraceValidatesAgainstSchema) {
  core::SiSocDevice soc = make_soc(4);
  core::SiTestSession session(soc);
  obs::Hub hub;
  session.set_sink(&hub);
  session.run(core::ObservationMethod::PerPattern);

  std::ostringstream os;
  hub.tracer().write_chrome_trace(os);
  std::string err;
  const auto doc = util::json::parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_TRUE(doc->is_object());

  const util::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_FALSE(events->array.empty());

  // Per-tid begin/end nesting must balance for Perfetto to render spans.
  std::map<double, int> open_per_tid;
  for (const util::json::Value& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const util::json::Value* name = e.find("name");
    const util::json::Value* ph = e.find("ph");
    const util::json::Value* pid = e.find("pid");
    const util::json::Value* tid = e.find("tid");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    EXPECT_EQ(name->type, util::json::Value::Type::String);
    ASSERT_EQ(ph->type, util::json::Value::Type::String);
    EXPECT_EQ(pid->type, util::json::Value::Type::Number);
    EXPECT_EQ(tid->type, util::json::Value::Type::Number);
    if (ph->str != "M") {
      ASSERT_NE(e.find("ts"), nullptr) << "non-metadata event missing ts";
    }
    if (ph->str == "B") ++open_per_tid[tid->number];
    if (ph->str == "E") {
      --open_per_tid[tid->number];
      EXPECT_GE(open_per_tid[tid->number], 0) << "E without matching B";
    }
  }
  for (const auto& [tid, open] : open_per_tid) {
    EXPECT_EQ(open, 0) << "unbalanced spans on tid " << tid;
  }
}

// A label with a newline, quotes and a backslash must be escaped on the
// way out in BOTH export formats, so one hostile annotation can't
// corrupt a transcript that downstream tooling parses line-by-line.
TEST(TraceExport, EscapesHostileLabelsInJsonl) {
  static constexpr char kHostile[] = "bad\n\"label\"\\end";
  obs::Tracer tracer;
  obs::Event e;
  e.kind = obs::EventKind::Mark;
  e.tck = 3;
  e.time_ps = 30000;
  e.name = kHostile;
  tracer.on_event(e);

  std::ostringstream os;
  tracer.write_jsonl(os);
  const std::string golden =
      "{\"kind\":\"Mark\",\"tck\":3,\"t_ps\":30000,"
      "\"name\":\"bad\\n\\\"label\\\"\\\\end\",\"a\":-1,\"b\":-1,"
      "\"value\":0}\n";
  EXPECT_EQ(os.str(), golden);

  // The transcript must still be one record per line, and that record
  // must round-trip through the strict parser.
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  std::string err;
  const auto doc = util::json::parse(line, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("name")->str, kHostile);
  EXPECT_FALSE(std::getline(is, line)) << "label newline split the record";
}

TEST(TraceExport, EscapesHostileLabelsInChromeTrace) {
  static constexpr char kHostile[] = "mark\n\"x\"";
  obs::Tracer tracer;
  obs::Event e;
  e.kind = obs::EventKind::Mark;
  e.tck = 1;
  e.time_ps = 10000;
  e.name = kHostile;
  tracer.on_event(e);

  std::ostringstream os;
  tracer.write_chrome_trace(os);
  std::string err;
  const auto doc = util::json::parse(os.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const util::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const util::json::Value& ev : events->array) {
    const util::json::Value* name = ev.find("name");
    if (name != nullptr && name->str == kHostile) found = true;
  }
  EXPECT_TRUE(found) << "hostile label lost or mangled in chrome trace";
}

TEST(TraceExport, NullSinkDeterminism) {
  // Reports must be byte-identical whether or not the hub is attached:
  // instrumentation observes the run, it never steers it.
  const auto run_one = [](bool attach) {
    core::SiSocDevice soc = make_soc(6);
    soc.bus().inject_crosstalk_defect(2, 3.0);
    soc.bus().add_series_resistance(4, 800.0);
    core::SiTestSession session(soc);
    obs::Hub hub;
    if (attach) session.set_sink(&hub);
    const core::IntegrityReport r =
        session.run(core::ObservationMethod::PerPattern);
    return core::format_report(r);
  };
  EXPECT_EQ(run_one(false), run_one(true));
}

}  // namespace
}  // namespace jsi
