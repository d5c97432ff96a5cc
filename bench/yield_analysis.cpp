// Yield analysis — Monte Carlo escape/overkill characterization of the
// extended-JTAG test against a physics-level shipping spec.
//
// Extends the paper's evaluation: beyond "does a defect set the flag",
// this reports, per ND-sensitivity (V_Hthr) x SD-skew-budget grid point,
// the sampled dies that truly violate the spec, the dies the test flags,
// escapes (bad but passed), overkill (good but failed) and wire-level
// sensitivity — the numbers a production test engineer needs to size
// the detector thresholds.
//
// Population, grid, spec and seed live in
// scenarios/yield_sweep.scenario.json; this prints the yield.json that
// scenario::run_scenario renders for it. The grid axes are listed
// tightest first. Exits 1 unless the tightest grid point has no escapes,
// the loosest has at least one, and the population holds both good and
// bad dies.

#include <iostream>
#include <string>

#include "scenario/parse.hpp"
#include "scenario/run.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace jsi;

int main() {
  const scenario::ScenarioSpec spec = scenario::load_scenario(
      std::string(JSI_SCENARIO_DIR) + "/yield_sweep.scenario.json");
  const auto doc =
      util::json::parse(scenario::run_scenario(spec).yield_json);
  if (!doc || !spec.sweep->spec_limits) {
    std::cerr << "FAIL: yield_sweep must render a yield curve with truth\n";
    return 1;
  }
  const auto num = [](const util::json::Value& v, const char* key) {
    const util::json::Value* x = v.find(key);
    if (x == nullptr) x = v.find("truth")->find(key);
    return x->number;
  };
  const auto count = [&](const util::json::Value& v, const char* key) {
    return std::to_string(static_cast<long>(num(v, key)));
  };

  std::cout << "Monte Carlo yield analysis: " << spec.sweep->samples
            << " dies per grid point x " << spec.topology.n_wires
            << " wires\nspec: glitch < "
            << spec.sweep->spec_limits->max_glitch_frac
            << "*swing, settle < " << spec.sweep->spec_limits->max_settle_ps
            << " ps\n\n";
  util::Table t({"ND V_Hthr [xVdd]", "SD budget [ps]", "bad dies", "flagged",
                 "escapes", "overkill", "wire sensitivity"});
  const auto& grid = doc->find("grid")->array;
  for (const util::json::Value& g : grid) {
    t.add_row({util::fmt_double(num(g, "nd_vhthr_frac"), 2),
               count(g, "sd_budget_ps"), count(g, "bad"),
               count(g, "violations"), count(g, "escapes"),
               count(g, "overkill"),
               util::fmt_percent(num(g, "wire_sensitivity"))});
  }
  std::cout << t << '\n'
            << "Each grid point draws its own dies. Tight thresholds screen\n"
               "everything the spec would reject (zero escapes) at the cost\n"
               "of overkill; loose thresholds let marginal dies ship. The\n"
               "detector parameters — V_Hthr/V_Hmin sizing and the SD\n"
               "delay-generator length — are the production dial, which is\n"
               "why the paper leaves them to the designer's delay/noise\n"
               "budget.\n";

  const util::json::Value& pop = *doc->find("population");
  const double bad = num(pop, "bad");
  if (num(grid.front(), "escapes") != 0 || num(grid.back(), "escapes") < 1 ||
      bad == 0 || bad == num(pop, "units") - num(pop, "failures")) {
    std::cerr << "FAIL: expected no escapes at the tightest grid point, "
                 "some at the loosest, and both good and bad dies\n";
    return 1;
  }
  return 0;
}
