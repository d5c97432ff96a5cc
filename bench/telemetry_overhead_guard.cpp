// Telemetry overhead guard.
//
// Live telemetry's contract is "cheap enough to leave on": workers only
// bump relaxed atomics in per-worker cache-line-aligned slots and the
// sampler wakes every interval_ms. This guard runs the multibus campaign
// scenario with telemetry off and with telemetry on at the default 250 ms
// interval (heartbeats to a throwaway file) and fails (exit 1) if the
// telemetry run is more than 2% slower. It also re-checks the byte-identity
// contract on the way: the report and merged metrics with telemetry on
// must equal the telemetry-off reference exactly.
//
// Methodology (bench/harness.hpp): min-of-K, interleaved, the budget
// doubling per retry — the same one-sided-noise argument as
// obs_overhead_guard. The campaign is sized by time: as many units as
// fill an 80 ms telemetry-off run (at least the shipped 12), so the fixed
// cost telemetry adds to every run (creating and replacing the heartbeat
// file, starting the sampler) keeps its share of the run as units get
// cheaper. A unit is priced on a probe campaign at the same 4 shards,
// grown until it runs long enough to be steady and timed against the
// one-unit campaign, alternately. The fixed cost is measured on its own,
// over a one-unit campaign, and printed in microseconds, so the sizing
// hides nothing.
//
// Knobs for hostile CI environments:
//   JSI_TELEMETRY_BUDGET_PCT  overhead budget in percent (default 2)
//   JSI_TELEMETRY_ATTEMPTS    retry attempts (default 5)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "scenario/parse.hpp"
#include "scenario/run.hpp"

namespace {

/// Wall time a telemetry-off run of the sized campaign takes [s].
constexpr double kRunBudgetS = 0.08;
/// Least wall time of one run of the probe campaign a unit is priced on
/// [s].
constexpr double kProbeMinS = 0.02;
/// Wall time each alternation of two runs takes at least [s]: the fixed
/// cost's, the unit price's and the first attempt's.
constexpr double kBudgetS = 0.8;

jsi::scenario::ScenarioSpec make_workload(std::size_t units) {
  jsi::scenario::ScenarioSpec spec = jsi::scenario::load_scenario(
      std::string(JSI_SCENARIO_DIR) + "/campaign_multibus.scenario.json");
  const std::vector<jsi::scenario::SessionSpec> base = spec.sessions;
  spec.sessions.clear();
  for (std::size_t i = 0; i < units; ++i) {
    jsi::scenario::SessionSpec s = base[i % base.size()];
    s.name = "mb" + std::to_string(i);
    spec.sessions.push_back(std::move(s));
  }
  return spec;
}

struct Timed {
  double s = 0.0;
  std::string text;
  std::string metrics_json;
};

Timed run_once(const jsi::scenario::ScenarioSpec& spec,
               const jsi::scenario::RunOptions& opt) {
  const auto t0 = jsi::bench::clock_type::now();
  const jsi::scenario::ScenarioOutcome r =
      jsi::scenario::run_scenario(spec, opt);
  const auto t1 = jsi::bench::clock_type::now();
  if (r.result.failures != 0) {
    std::cerr << "FAIL: campaign units failed:\n" << r.report_text;
    std::exit(1);
  }
  Timed out;
  out.s = std::chrono::duration<double>(t1 - t0).count();
  out.text = r.report_text;
  out.metrics_json = r.metrics_json;
  return out;
}

}  // namespace

int main() {
  const double kMaxOverhead =
      jsi::bench::env_or("JSI_TELEMETRY_BUDGET_PCT", 2.0) / 100.0;
  const int attempts =
      static_cast<int>(jsi::bench::env_or("JSI_TELEMETRY_ATTEMPTS", 5.0));
  const std::string hb_path =
      (std::filesystem::temp_directory_path() / "jsi_telemetry_guard.jsonl")
          .string();

  jsi::scenario::RunOptions off;
  off.shards = 4;
  jsi::scenario::RunOptions on = off;
  {
    jsi::scenario::TelemetrySpec t;
    t.enabled = true;
    t.interval_ms = 250;  // the shipped default cadence
    t.path = hb_path;
    on.telemetry = t;
  }

  // The fixed per-run cost: telemetry on against off over one unit,
  // where the per-unit publishing is next to nothing. This also warms
  // both paths up.
  const jsi::bench::MinPair fixed = jsi::bench::interleaved_min(
      kBudgetS, 20, [&] { return run_once(make_workload(1), off).s; },
      [&] { return run_once(make_workload(1), on).s; });

  // Size the campaign. The probe campaign grows from the shipped 12
  // units, doubling, until one run takes kProbeMinS: a shorter probe at
  // 4 shards is mostly thread start-up, which would price each unit too
  // high. The probe then alternates with the one-unit campaign, so both
  // least times come from the same spell of the box; their difference
  // prices a unit, and the guard runs as many as fill the run budget.
  constexpr std::size_t kMinUnits = 12;
  std::size_t probe_units = kMinUnits;
  while (run_once(make_workload(probe_units), off).s < kProbeMinS) {
    probe_units *= 2;
  }
  const jsi::scenario::ScenarioSpec probe = make_workload(probe_units);
  const jsi::bench::MinPair priced = jsi::bench::interleaved_min(
      kBudgetS, 3, [&] { return run_once(make_workload(1), off).s; },
      [&] { return run_once(probe, off).s; });
  const std::size_t units = jsi::bench::units_for_budget(
      kRunBudgetS - priced.a_s,
      (priced.b_s - priced.a_s) / (probe_units - 1), kMinUnits);
  const jsi::scenario::ScenarioSpec spec = make_workload(units);
  std::cout << "campaign: " << units << " units (" << probe_units
            << " took " << priced.b_s * 1e3 << " ms); fixed per-run telemetry "
            << "cost " << (fixed.b_s - fixed.a_s) * 1e6 << " us (one unit: "
            << "off " << fixed.a_s * 1e6 << " us, on " << fixed.b_s * 1e6
            << " us)\n";

  // Pin byte-identity on the sized campaign: the overhead number is only
  // meaningful if telemetry really is a pure side channel.
  const Timed ref = run_once(spec, off);
  const Timed live = run_once(spec, on);
  if (live.text != ref.text || live.metrics_json != ref.metrics_json) {
    std::cerr << "FAIL: telemetry-on artifacts differ from telemetry-off\n";
    return 1;
  }

  double best_ratio = 1e9;
  const bool ok = jsi::bench::retry(attempts, [&](int attempt) {
    const jsi::bench::MinPair m = jsi::bench::interleaved_min(
        kBudgetS * jsi::bench::attempt_scale(attempt), 5,
        [&] { return run_once(spec, off).s; },
        [&] { return run_once(spec, on).s; });
    const double ratio = m.b_s / m.a_s;
    best_ratio = std::min(best_ratio, ratio);
    std::cout << "attempt " << attempt << " (" << m.pairs << " pairs): off "
              << m.a_s * 1e9 << " ns, on " << m.b_s * 1e9 << " ns, ratio "
              << ratio << "\n";
    return best_ratio <= 1.0 + kMaxOverhead;
  });
  std::remove(hb_path.c_str());
  if (ok) {
    std::cout << "OK: telemetry overhead " << (best_ratio - 1.0) * 100.0
              << "% <= " << kMaxOverhead * 100.0 << "% budget\n";
    return 0;
  }
  std::cout << "FAIL: best ratio " << best_ratio << " exceeds "
            << 1.0 + kMaxOverhead << "\n";
  return 1;
}
