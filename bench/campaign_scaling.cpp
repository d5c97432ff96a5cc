// Campaign and sweep sharding scaling bench + correctness guard.
//
// Two workloads, each re-run at several shard counts via
// scenario::run_scenario, with wall-clock speedups dumped into
// BENCH_campaign.json (gauge families `campaign.*` and `sweep.*`):
//
//  * campaign — the declarative scenarios/campaign_multibus.scenario.json
//    description (multibus units, crosstalk on a different wire of bus 1
//    each, 64-entry trace ring) at 1/2/4/8 shards, with as many units as
//    fill a 0.5 s 1-shard run (at least the shipped 12).
//  * sweep — a programmatic Monte-Carlo sweep: a 2x2 detector-threshold
//    grid of sampled dies, each placing one seeded random crosstalk
//    defect from Prng(seed).split(i), at 1/2/4 shards, with as many dies
//    as fill a 2 s 1-shard run. The population is far above
//    kSweepTranscriptThreshold, so this exercises lazy unit generation,
//    chunked scheduling, warmed prototype clones and streaming
//    aggregation end to end.
//
// Each workload is sized by time (bench/harness.hpp): a calibration run
// at a small unit count prices one unit, and the measured runs get the
// count that fills the budget. A fixed count would let the speedup's
// fixed serial part (thread start-up, the merge) grow in share whenever
// a unit gets cheaper.
//
// Two classes of check, per workload:
//
//  * Correctness (always enforced, exit 1): the rendered report, merged
//    metrics registry and yield curve of every N-shard run must be
//    byte-identical to the 1-shard run's; no unit may fail; the sweep
//    must aggregate and render a yield curve.
//  * Performance (enforced only where it is physically possible): >= 2.5x
//    speedup at 4 shards, checked only when the box actually has >= 4
//    hardware threads, with retries to ride out CI load spikes. The
//    measured speedups are always printed and dumped either way.
//
// Usage: campaign_scaling [campaign|sweep]... runs the named workloads
// (default: both) and dumps their gauges as BENCH_<first named>.json, so
// a bare run writes both families into BENCH_campaign.json. CTest runs
// each workload as its own test (campaign_scaling, sweep_scaling).
//
// Knob: JSI_CAMPAIGN_ATTEMPTS (default 3, for each workload).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "obs/registry.hpp"
#include "scenario/parse.hpp"
#include "scenario/run.hpp"
#include "util/prng.hpp"

namespace {

using jsi::bench::clock_type;

// The scenario ships 12 units; the session list is regenerated
// programmatically at the count the time budget asks for. Unit i keeps
// the shipped template (multibus, method 2,
// one crosstalk defect) but draws its own placement from
// Prng(campaign.seed).split(i) — every unit is a distinct die, unlike the
// old truncate/repeat path whose extra units were byte-copies of the
// first twelve and therefore measured cache reuse rather than work.
jsi::scenario::ScenarioSpec campaign_workload(std::size_t units) {
  jsi::scenario::ScenarioSpec spec = jsi::scenario::load_scenario(
      std::string(JSI_SCENARIO_DIR) + "/campaign_multibus.scenario.json");
  const jsi::scenario::SessionSpec tmpl = spec.sessions.at(0);
  const jsi::util::Prng root(spec.campaign.seed);
  spec.sessions.clear();
  spec.sessions.reserve(units);
  for (std::size_t i = 0; i < units; ++i) {
    jsi::scenario::SessionSpec s = tmpl;
    s.name = "mb" + std::to_string(i);
    jsi::util::Prng rng = root.split(i);
    s.defects.clear();
    jsi::scenario::DefectSpec d;
    d.kind = jsi::scenario::DefectKind::Crosstalk;
    d.bus = rng.next_below(spec.topology.n_buses);
    d.wire = rng.next_below(spec.topology.wires_per_bus);
    d.severity = 4.0 + 4.0 * rng.next_double();
    s.defects.push_back(d);
    spec.sessions.push_back(std::move(s));
  }
  return spec;
}

// 2x2 grid => samples = units/4 dies per point. A 4-wire 512-sample bus
// keeps one die well under a millisecond, so a population of 10^4 and
// more real sessions finishes in seconds.
jsi::scenario::ScenarioSpec sweep_workload(std::size_t units) {
  const std::size_t samples = std::max<std::size_t>(1, units / 4);
  const std::string doc =
      R"({"name":"sweep_scaling",)"
      R"("description":"programmatic Monte-Carlo scaling workload",)"
      R"("topology":{"kind":"soc","n_wires":4,"bus":{"samples":512}},)"
      R"("sessions":[{"kind":"enhanced","name":"die","method":1}],)"
      R"("sweep":{"samples":)" +
      std::to_string(samples) +
      R"(,"nd_vhthr_frac":[0.3,0.6],"sd_budget_ps":[150,250],)"
      R"("defects":[{"kind":"random_crosstalk","count":1,"severity":1.5}]},)"
      R"("campaign":{"seed":2003}})";
  return jsi::scenario::parse_scenario(doc);
}

struct Workload {
  std::string family;  ///< gauge prefix in BENCH_campaign.json
  jsi::scenario::ScenarioSpec spec;
  std::size_t units = 0;
  std::vector<std::size_t> shard_counts;  ///< beside the 1-shard reference
};

/// A family's workload builder, its calibration unit count, and the wall
/// time its 1-shard run should fill.
struct Family {
  std::string name;
  std::function<jsi::scenario::ScenarioSpec(std::size_t)> build;
  std::size_t probe_units;
  double budget_s;
  std::vector<std::size_t> shard_counts;
};

struct Timed {
  double ms = 0.0;
  std::string text;
  std::string metrics_json;
  std::string yield_json;
  // Waveform-store traffic from the run's merged registry, recorded as
  // the family's hit-rate gauge.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

Timed run_once(const jsi::scenario::ScenarioSpec& spec, std::size_t shards) {
  jsi::scenario::RunOptions opt;
  opt.shards = shards;
  const auto t0 = clock_type::now();
  const jsi::scenario::ScenarioOutcome r =
      jsi::scenario::run_scenario(spec, opt);
  const auto t1 = clock_type::now();
  Timed out;
  out.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.text = r.report_text;
  out.metrics_json = r.metrics_json;
  out.yield_json = r.yield_json;
  out.cache_hits = r.result.metrics.counter_value("bus.cache_hits");
  out.cache_misses = r.result.metrics.counter_value("bus.cache_misses");
  if (r.result.failures != 0) {
    std::cerr << "FAIL: " << spec.name << " units failed:\n" << out.text;
    std::exit(1);
  }
  if (spec.sweep && (!r.result.aggregated || r.yield_json.empty())) {
    std::cerr << "FAIL: population sweep must aggregate and render a "
                 "yield curve\n";
    std::exit(1);
  }
  return out;
}

/// The family's workload at the unit count that fills its budget: one
/// 1-shard run at the calibration count prices a unit (and warms the
/// box up).
Workload sized(const Family& fam) {
  const Timed probe = run_once(fam.build(fam.probe_units), 1);
  const double per_unit_s =
      probe.ms / 1000.0 / static_cast<double>(fam.probe_units);
  jsi::scenario::ScenarioSpec spec = fam.build(jsi::bench::units_for_budget(
      fam.budget_s, per_unit_s, fam.probe_units));
  // A sweep rounds its population down to whole grid rows.
  const std::size_t units =
      spec.sweep ? spec.sweep->samples * spec.sweep->nd_vhthr_frac.size() *
                       spec.sweep->sd_budget_ps.size()
                 : spec.sessions.size();
  std::cout << fam.name << " sizing: " << fam.probe_units << " units in "
            << probe.ms << " ms, so " << units << " units fill "
            << fam.budget_s << " s\n";
  return {fam.name, std::move(spec), units, fam.shard_counts};
}

/// Time one workload at every shard count; false when a run differs
/// from the 1-shard reference or the 4-shard bar is missed.
bool measure(const Workload& w, int attempts, unsigned hw) {
  std::cout << w.family << " scaling: " << w.units << " units, hw=" << hw
            << " threads\n";
  jsi::obs::Registry& reg = jsi::obs::global_registry();
  const std::string& f = w.family;
  double best_speedup4 = 0.0;
  double best_ms = 0.0;  // fastest run at any shard count
  bool identical = true;
  Timed ref;  // last 1-shard run (deterministic, so any attempt's will do)

  jsi::bench::retry(attempts, [&](int attempt) {
    const Timed base = run_once(w.spec, 1);
    ref = base;
    double t4 = base.ms;
    for (const std::size_t shards : w.shard_counts) {
      const Timed t = run_once(w.spec, shards);
      // Correctness gate: byte-identical to the 1-shard reference.
      if (t.text != base.text || t.metrics_json != base.metrics_json ||
          t.yield_json != base.yield_json) {
        std::cerr << "FAIL: " << f << " " << shards
                  << "-shard result differs from 1-shard reference\n";
        identical = false;
      }
      const double speedup = base.ms / t.ms;
      if (shards == 4) t4 = t.ms;
      if (best_ms == 0.0 || t.ms < best_ms) best_ms = t.ms;
      std::cout << "attempt " << attempt << ": shards " << shards << ": "
                << t.ms << " ms (1-shard " << base.ms << " ms, speedup "
                << speedup << "x)\n";
      const std::string tag = std::to_string(shards);
      reg.gauge(f + ".ms.shards_" + tag).set(t.ms);
      reg.gauge(f + ".speedup.shards_" + tag).set(speedup);
    }
    reg.gauge(f + ".ms.shards_1").set(base.ms);
    if (best_ms == 0.0 || base.ms < best_ms) best_ms = base.ms;
    best_speedup4 = std::max(best_speedup4, base.ms / t4);
    // Stop on a correctness failure, or as soon as one attempt clears the
    // bar: a quiet machine exits on attempt 1.
    return !identical || hw < 4 || best_speedup4 >= 2.5;
  });

  reg.gauge(f + ".speedup.best_4shard").set(best_speedup4);
  reg.gauge(f + ".hw_threads").set(static_cast<double>(hw));
  reg.counter(f + ".units").inc(w.units);
  // Headline throughput: units over the fastest run at any shard count.
  if (best_ms > 0.0) {
    const double ups = static_cast<double>(w.units) * 1000.0 / best_ms;
    reg.gauge(f + ".units_per_sec").set(ups);
    std::cout << "throughput: " << ups << " units/s (best run " << best_ms
              << " ms)\n";
  }
  const std::uint64_t lookups = ref.cache_hits + ref.cache_misses;
  reg.gauge(f + ".bus.cache_hit_rate")
      .set(lookups == 0 ? 0.0
                        : static_cast<double>(ref.cache_hits) /
                              static_cast<double>(lookups));
  std::cout << "bus waveform store: " << ref.cache_hits << "/" << lookups
            << " wire hits\n";

  if (!identical) return false;
  if (hw >= 4) {
    if (best_speedup4 < 2.5) {
      std::cerr << "FAIL: " << f << " best 4-shard speedup " << best_speedup4
                << "x < 2.5x on a " << hw << "-thread box\n";
      return false;
    }
    std::cout << "OK: " << f << " 4-shard speedup " << best_speedup4
              << "x >= 2.5x\n";
  } else {
    std::cout << "OK: " << f
              << " byte-identical across shard counts (speedup bar "
                 "skipped: only "
              << hw << " hardware thread(s))\n";
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const int attempts =
      static_cast<int>(jsi::bench::env_or("JSI_CAMPAIGN_ATTEMPTS", 3));
  const unsigned hw = std::thread::hardware_concurrency();
  const Family families[] = {
      {"campaign", campaign_workload, 12, 0.5, {2, 4, 8}},
      {"sweep", sweep_workload, 400, 2.0, {2, 4}},
  };

  std::vector<std::string> names(argv + 1, argv + argc);
  if (names.empty()) names = {"campaign", "sweep"};
  bool ok = true;
  for (const std::string& name : names) {
    const auto fam = std::find_if(
        std::begin(families), std::end(families),
        [&](const Family& candidate) { return candidate.name == name; });
    if (fam == std::end(families)) {
      std::cerr << "usage: campaign_scaling [campaign|sweep]...\n";
      return 2;
    }
    ok = measure(sized(*fam), attempts, hw) && ok;
  }
  const std::string path = jsi::obs::jsi_metrics_dump(names.front());
  if (!path.empty()) std::cout << "metrics: " << path << "\n";
  return ok ? 0 : 1;
}
