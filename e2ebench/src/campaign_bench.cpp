// The three campaign workloads: mc_sweep, wide_bus_n64, low_swing_mc.
//
// A run (1) times set-up — parse_scenario + build_campaign, prototype
// table precompile included — several times; (2) makes one traced run,
// which warms the process and produces the reference artifacts; (3) loops
// the untraced `jsi run` path (parse + run_scenario + write_artifacts)
// for the requested seconds, each iteration one campaign "job". Every
// set-up and iteration is scaled to reference seconds by the host-speed
// probe around it (probe.hpp). With --trace 1 every untraced iteration is
// paired with a traced one and the per-layer metrics are the medians over
// the traced iterations.

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "gate.hpp"
#include "probe.hpp"
#include "scenario/build.hpp"
#include "scenario/parse.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace jsi::e2e {

namespace {

struct Digests {
  std::string report;
  std::string yield;
};

Digests digests_of(const scenario::ScenarioOutcome& o) {
  return {digest(o.report_text), o.yield_json.empty() ? "" : digest(o.yield_json)};
}

std::string workload_text(const Options& opt, std::string* checkpoint) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (opt.workload == "mc_sweep") {
    *checkpoint = kWorkDir + "/mc_sweep/checkpoint.jsonl";
    return mc_sweep_text(opt.seed, opt.tiny, std::min(4u, hw));
  }
  if (opt.workload == "wide_bus_n64") return wide_bus_text(opt.seed, opt.tiny);
  if (opt.workload == "low_swing_mc") return low_swing_text(opt.seed, opt.tiny);
  throw std::invalid_argument("unknown campaign workload " + opt.workload);
}

}  // namespace

RunResult run_campaign_workload(const Options& opt) {
  RunResult out;
  std::string checkpoint;
  const std::string text = workload_text(opt, &checkpoint);
  const std::string dir = kWorkDir + "/" + opt.workload;
  std::filesystem::create_directories(dir);
  const std::string plain_dir = dir + "/plain";
  const std::string traced_dir = dir + "/traced";
  const scenario::ScenarioSpec spec = scenario::parse_scenario(text);
  HostClock clock(spec.campaign.shards);

  // (1) set-up time, median of several.
  const std::vector<double> setups = repeat_setup(
      [&] {
        const Clock::time_point t0 = Clock::now();
        const scenario::ScenarioSpec s = scenario::parse_scenario(text);
        scenario::BuildOptions bo;
        bo.checkpoint_path = checkpoint;
        const scenario::ScenarioCampaign c = scenario::build_campaign(s, bo);
        const double host_s = seconds_since(t0);
        return host_s * clock.next_scale();
      },
      opt.tiny);

  // (2) the reference: one traced run.
  LayerSink sink;
  const TracedRun ref = traced_run(text, checkpoint, traced_dir, sink);
  check_tcks(spec, ref.outcome.result, "traced run", out);
  const Digests want = digests_of(ref.outcome);
  const core::CampaignResult& rr = ref.outcome.result;
  check_pin(opt, want.report, want.yield, rr.units_run, rr.violations,
            rr.total_tcks, out);
  out.check(ref.books.layers.edges == rr.total_tcks,
            "traced StateEdge count != the result's TCK total");

  // (3) the timed section.
  std::vector<double> walls;       // host seconds
  std::vector<double> ref_walls;   // reference seconds
  std::vector<double> traced_walls;
  std::vector<std::vector<Metric>> layer_runs;
  clock.probe();  // the traced run came between
  const Clock::time_point start = Clock::now();
  while (walls.size() < 2 || seconds_since(start) < opt.seconds) {
    const CampaignRun r = plain_run(text, checkpoint, plain_dir);
    const core::CampaignResult& res = r.outcome.result;
    walls.push_back(r.wall_s);
    ref_walls.push_back(r.wall_s * clock.next_scale());
    out.attempted += res.units_run;
    out.failed += res.failures;
    if (walls.size() == 1) check_tcks(spec, res, "untraced run", out);
    const Digests got = digests_of(r.outcome);
    out.check(got.report == want.report && got.yield == want.yield,
              "untraced iteration " + std::to_string(walls.size()) +
                  " artifacts differ from the traced run's");
    if (opt.trace) {
      const TracedRun t = traced_run(text, checkpoint, traced_dir, sink);
      const Digests tg = digests_of(t.outcome);
      out.check(tg.report == want.report && tg.yield == want.yield,
                "traced iterations disagree");
      out.check(t.books.layers.nest_errors == 0,
                std::to_string(t.books.layers.nest_errors) +
                    " span nesting violations");
      traced_walls.push_back(t.books.wall_ns / 1e9);
      layer_runs.push_back(t.books.metrics());
    }
  }

  // Artifacts on disk are what the program wrote, not just what it built.
  out.check(digest(read_file(plain_dir + "/report.txt")) == want.report,
            "report.txt on disk differs from the rendered report");
  if (!want.yield.empty()) {
    out.check(digest(read_file(plain_dir + "/yield.json")) == want.yield,
              "yield.json on disk differs from the rendered yield curve");
  }

  const double coverage = LayerSink::coverage(ref.books.layers);
  out.check(ref.books.layers.nest_errors == 0, "span nesting violations");
  out.check(coverage >= 0.9, "layer split covers only " +
                                 std::to_string(coverage) +
                                 " of traced session time");

  out.info = {{"iterations", static_cast<double>(walls.size()), "count"},
              {"host_job_latency_p50_ms", median(walls) * 1e3, "ms"},
              {"probe_ms_p50", median(clock.samples()) * 1e3, "ms"},
              {"error_rate",
               out.attempted == 0 ? 0.0
                                  : static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted),
               "fraction"},
              {"layer_coverage", coverage, "fraction"}};

  if (!opt.trace) {
    // Every iteration does identical work (the gate pins it), so rates are
    // per-iteration work over the median iteration: robust to a stall.
    const double wall = median(ref_walls);
    out.add("setup_s", median(setups), "s");
    out.add("units_per_s", static_cast<double>(rr.units_run) / wall,
            "units/s");
    out.add("sim_tcks_per_s", static_cast<double>(rr.total_tcks) / wall,
            "TCK/s");
    out.add("peak_rss_mib", peak_rss_mib(), "MiB");
    out.add("jobs_per_s", 1.0 / wall, "jobs/s");
    out.add("job_latency_p50_ms", wall * 1e3, "ms");
    out.add("job_latency_p95_ms", quantile(ref_walls, 0.95) * 1e3, "ms");
    return out;
  }
  out.metrics = median_metrics(layer_runs);
  for (Metric& m : ServeLayer{}.metrics()) out.metrics.push_back(std::move(m));
  out.add("obs.trace_overhead_frac", median(traced_walls) / median(walls) - 1.0,
          "fraction");
  return out;
}

}  // namespace jsi::e2e
