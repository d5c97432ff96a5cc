// Table 5 — Pattern generation time analysis.
//
// Paper: number of TCKs needed to apply the complete MA pattern set for
// n interconnects, conventional scan (each of the 12n vectors shifted
// through the whole chain, O(n^2)) versus the hardware PGBSC generator
// (two preloads + three Update-DRs and a one-bit rotate per victim, O(n)).
// The last row of the paper's table is the relative improvement T%.
//
// Both columns here are *measured* by running the full cycle-accurate TAP
// session; the closed-form model is printed beside them as a cross-check
// (tests assert they are identical).

#include <iostream>

#include "analysis/time_model.hpp"
#include "core/session.hpp"
#include "obs/registry.hpp"
#include "scenario/build.hpp"
#include "scenario/parse.hpp"
#include "util/table.hpp"

using namespace jsi;

namespace {

struct MeasuredRun {
  std::uint64_t generation_tcks = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

// The table's sweep points live in scenarios/table5_n<N>.scenario.json;
// the architecture column (conventional vs PGBSC) is the one knob the
// bench toggles on top of the shared description.
scenario::ScenarioSpec table5_spec(std::size_t n) {
  return scenario::load_scenario(std::string(JSI_SCENARIO_DIR) + "/table5_n" +
                                 std::to_string(n) + ".scenario.json");
}

MeasuredRun measured_generation(const scenario::ScenarioSpec& spec,
                                bool enhanced) {
  core::SocConfig cfg = scenario::soc_config(spec);
  cfg.enhanced = enhanced;
  core::SiSocDevice soc(cfg);
  MeasuredRun out;
  if (enhanced) {
    core::SiTestSession session(soc);
    out.generation_tcks =
        session.run(core::ObservationMethod::OnceAtEnd).generation_tcks;
  } else {
    core::ConventionalSession session(soc);
    out.generation_tcks =
        session.run(core::ObservationMethod::OnceAtEnd).generation_tcks;
  }
  out.cache_hits = soc.bus().cache_hits();
  out.cache_misses = soc.bus().cache_misses();
  return out;
}

}  // namespace

int main() {
  std::cout << "Table 5: Pattern generation time analysis (m=1)\n"
            << "TCKs to apply the full MA pattern set; measured from the\n"
            << "simulated TAP protocol. model = closed-form cross-check.\n\n";

  util::Table t({"architecture", "n=8", "n=16", "n=32", "n=64"});
  const std::size_t ns[] = {8, 16, 32, 64};

  std::vector<std::string> conv_row{"Conventional BSA (measured)"};
  std::vector<std::string> conv_model{"Conventional BSA (model)"};
  std::vector<std::string> pg_row{"PGBSC (measured)"};
  std::vector<std::string> pg_model{"PGBSC (model)"};
  std::vector<std::string> imp_row{"T% improvement"};

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t n : ns) {
    analysis::TimeModel model{n, 1, 4};
    const scenario::ScenarioSpec spec = table5_spec(n);
    const auto conv = measured_generation(spec, /*enhanced=*/false);
    const auto enh = measured_generation(spec, /*enhanced=*/true);
    hits += conv.cache_hits + enh.cache_hits;
    misses += conv.cache_misses + enh.cache_misses;
    conv_row.push_back(std::to_string(conv.generation_tcks));
    conv_model.push_back(std::to_string(model.conventional_generation()));
    pg_row.push_back(std::to_string(enh.generation_tcks));
    pg_model.push_back(std::to_string(model.pgbsc_generation()));
    const std::string suffix = ".n" + std::to_string(n);
    obs::global_registry()
        .counter("table5.conventional_tcks" + suffix)
        .inc(conv.generation_tcks);
    obs::global_registry()
        .counter("table5.pgbsc_tcks" + suffix)
        .inc(enh.generation_tcks);
    imp_row.push_back(util::fmt_percent(
        1.0 - static_cast<double>(enh.generation_tcks) /
                  static_cast<double>(conv.generation_tcks)));
  }
  t.add_row(conv_row);
  t.add_row(conv_model);
  t.add_row(pg_row);
  t.add_row(pg_model);
  t.add_row(imp_row);
  std::cout << t << '\n';

  std::cout << "Shape check (paper claim): conventional grows O(n^2), PGBSC "
               "O(n);\nthe improvement increases with n and exceeds 90% by "
               "n=32.\n";
  const std::uint64_t lookups = hits + misses;
  std::cout << "\nBus waveform store over all runs: " << hits << "/"
            << lookups << " waveform lookups served from the store ("
            << util::fmt_percent(lookups == 0
                                     ? 0.0
                                     : static_cast<double>(hits) /
                                           static_cast<double>(lookups))
            << " hit rate).\n";

  obs::global_registry().counter("bus.cache_hits").inc(hits);
  obs::global_registry().counter("bus.cache_misses").inc(misses);
  const std::string path = obs::jsi_metrics_dump("table5_pattern_time");
  if (!path.empty()) std::cout << "metrics: " << path << "\n";
  return 0;
}
