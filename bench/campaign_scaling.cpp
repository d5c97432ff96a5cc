// Campaign sharding scaling bench + correctness guard.
//
// The workload is the declarative scenarios/campaign_multibus.scenario.json
// description (12 multibus units, crosstalk on a different wire of bus 1
// each, 64-entry trace ring); the bench re-runs it at 1/2/4/8 shards via
// scenario::run_scenario and reports wall-clock speedup into
// BENCH_campaign.json. Two classes of check:
//
//  * Correctness (always enforced, exit 1): the rendered report and merged
//    metrics registry of every N-shard run must be byte-identical to the
//    1-shard run's — the campaign runner's core guarantee, here exercised
//    end-to-end through the scenario layer.
//  * Performance (enforced only where it is physically possible): >= 2.5x
//    speedup at 4 shards, checked only when the box actually has >= 4
//    hardware threads, with retries to ride out CI load spikes. The
//    measured speedups are always printed and dumped either way.
//
// Knobs: JSI_CAMPAIGN_UNITS (default 12), JSI_CAMPAIGN_ATTEMPTS (default 3).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "scenario/parse.hpp"
#include "scenario/run.hpp"
#include "util/prng.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

// The scenario ships 12 units; JSI_CAMPAIGN_UNITS regenerates the session
// list programmatically so bigger boxes can be driven harder without
// editing the file. Unit i keeps the shipped template (multibus, method 2,
// one crosstalk defect) but draws its own placement from
// Prng(campaign.seed).split(i) — every unit is a distinct die, unlike the
// old truncate/repeat path whose extra units were byte-copies of the
// first twelve and therefore measured cache reuse rather than work.
jsi::scenario::ScenarioSpec make_workload(std::size_t units) {
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

struct Timed {
  double ms = 0.0;
  std::string text;
  std::string metrics_json;
  // Waveform-store traffic from the run's merged registry, recorded as
  // the campaign hit-rate gauge in BENCH_campaign.json.
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
  out.cache_hits = r.result.metrics.counter_value("bus.cache_hits");
  out.cache_misses = r.result.metrics.counter_value("bus.cache_misses");
  if (r.result.failures != 0) {
    std::cerr << "FAIL: campaign units failed:\n" << out.text;
    std::exit(1);
  }
  return out;
}

}  // namespace

int main() {
  const std::size_t units = env_or("JSI_CAMPAIGN_UNITS", 12);
  const std::size_t attempts = env_or("JSI_CAMPAIGN_ATTEMPTS", 3);
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t shard_counts[] = {1, 2, 4, 8};

  const jsi::scenario::ScenarioSpec spec = make_workload(units);

  std::cout << "campaign scaling: " << units << " multibus units, hw="
            << hw << " threads\n";

  jsi::obs::Registry& reg = jsi::obs::global_registry();
  double best_speedup4 = 0.0;
  double best_ms = 0.0;  // fastest run at any shard count
  bool identical = true;
  Timed ref;  // last 1-shard run (deterministic, so any attempt's will do)

  for (std::size_t attempt = 1; attempt <= attempts; ++attempt) {
    const Timed base = run_once(spec, 1);
    ref = base;
    double t4 = base.ms;
    for (const std::size_t shards : shard_counts) {
      if (shards == 1) continue;
      const Timed t = run_once(spec, shards);
      // Correctness gate: byte-identical to the 1-shard reference.
      if (t.text != base.text || t.metrics_json != base.metrics_json) {
        std::cerr << "FAIL: " << shards
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
      reg.gauge("campaign.ms.shards_" + tag).set(t.ms);
      reg.gauge("campaign.speedup.shards_" + tag).set(speedup);
    }
    reg.gauge("campaign.ms.shards_1").set(base.ms);
    if (best_ms == 0.0 || base.ms < best_ms) best_ms = base.ms;
    best_speedup4 = std::max(best_speedup4, base.ms / t4);
    if (!identical) break;
    // Performance is satisfied as soon as one attempt clears the bar; a
    // quiet machine exits on attempt 1.
    if (hw < 4 || best_speedup4 >= 2.5) break;
  }

  reg.gauge("campaign.speedup.best_4shard").set(best_speedup4);
  reg.gauge("campaign.hw_threads").set(static_cast<double>(hw));
  reg.counter("campaign.units").inc(units);
  // Headline throughput: units over the fastest run at any shard count.
  if (best_ms > 0.0) {
    reg.gauge("campaign.units_per_sec")
        .set(static_cast<double>(units) * 1000.0 / best_ms);
    std::cout << "throughput: "
              << static_cast<double>(units) * 1000.0 / best_ms
              << " units/s (best run " << best_ms << " ms)\n";
  }
  const std::uint64_t lookups = ref.cache_hits + ref.cache_misses;
  reg.gauge("campaign.bus.cache_hit_rate")
      .set(lookups == 0 ? 0.0
                        : static_cast<double>(ref.cache_hits) /
                              static_cast<double>(lookups));
  std::cout << "bus waveform store: " << ref.cache_hits << "/" << lookups
            << " wire hits\n";
  const std::string path = jsi::obs::jsi_metrics_dump("campaign");
  if (!path.empty()) std::cout << "metrics: " << path << "\n";

  if (!identical) return 1;
  if (hw >= 4) {
    if (best_speedup4 < 2.5) {
      std::cerr << "FAIL: best 4-shard speedup " << best_speedup4
                << "x < 2.5x on a " << hw << "-thread box\n";
      return 1;
    }
    std::cout << "OK: 4-shard speedup " << best_speedup4 << "x >= 2.5x\n";
  } else {
    std::cout << "OK: byte-identical across shard counts (speedup bar "
                 "skipped: only "
              << hw << " hardware thread(s))\n";
  }
  return 0;
}
