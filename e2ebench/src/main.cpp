// jsi_e2e — the repository benchmark program.
//
//   jsi_e2e --workload <mc_sweep|wide_bus_n64|low_swing_mc|serve_closed>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--tiny] [--source-id <id>] [--print-pins]
//
// Prints a run record, every metric by name and unit, the correctness
// gate's verdict, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when the gate fails, 2 on a usage or runtime error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

using jsi::e2e::Metric;
using jsi::e2e::Options;
using jsi::e2e::RunResult;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "jsi_e2e: " << why << "\n"
            << "usage: jsi_e2e --workload <mc_sweep|wide_bus_n64|low_swing_mc|"
               "serve_closed> --seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--source-id <id>] [--print-pins]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
      v.size() > 18) {
    usage(flag + " needs a non-negative integer, got \"" + v + "\"");
  }
  return std::stoull(v);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = parse_u64(a, value());
    else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(a, value()));
      if (o.seconds < 1) usage("--seconds must be at least 1");
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--tiny") o.tiny = true;
    else if (a == "--print-pins") o.print_pins = true;
    else if (a == "--source-id") o.source_id = value();
    else usage("unknown argument " + a);
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// Every digit a double carries; non-finite values print as 0 (JSON has
/// no NaN) and are reported by the caller as a gate failure.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const bool serve = opt.workload == "serve_closed";
  if (!serve && opt.workload != "mc_sweep" && opt.workload != "wide_bus_n64" &&
      opt.workload != "low_swing_mc") {
    usage("unknown workload " + opt.workload);
  }

  std::cout << "# run {\"workload\": " << quoted(opt.workload)
            << ", \"seed\": " << opt.seed << ", \"seconds\": " << num(opt.seconds)
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"size\": " << quoted(opt.tiny ? "tiny" : "full")
            << ", \"hw_threads\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << quoted(JSI_E2E_BUILD_TYPE)
            << ", \"compiler\": " << quoted(JSI_E2E_COMPILER)
            << ", \"commit\": " << quoted(opt.source_id) << "}\n"
            << "# note: TCK counts are checked against core::dry_run_cost; the "
               "electrical model (waveforms, ND/SD verdicts) has no reference "
               "in the repo and is unvalidated — its outputs are only pinned.\n"
            << std::flush;

  RunResult r;
  try {
    r = serve ? jsi::e2e::run_serve_workload(opt)
              : jsi::e2e::run_campaign_workload(opt);
  } catch (const std::exception& e) {
    std::cerr << "jsi_e2e: " << opt.workload << " failed: " << e.what() << "\n";
    return 2;
  }

  for (const Metric& m : r.metrics) {
    r.check(std::isfinite(m.value), m.name + " is not a finite number");
    std::cout << "metric " << m.name << " = " << num(m.value) << " " << m.unit
              << "\n";
  }
  for (const Metric& m : r.info) {
    std::cout << "info " << m.name << " = " << num(m.value) << " " << m.unit
              << "\n";
  }
  for (const std::string& f : r.gate_failures) {
    std::cout << "gate FAIL: " << f << "\n";
  }
  if (r.gate_failures.empty()) std::cout << "gate ok\n";

  std::cout << "{\"correct\": " << (r.gate_failures.empty() ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cout << (i ? ", " : "") << quoted(m.name) << ": {\"value\": "
              << num(m.value) << ", \"unit\": " << quoted(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return r.gate_failures.empty() ? 0 : 1;
}
