#include "gate.hpp"

#include <iostream>

#include "core/plan.hpp"
#include "ict/board.hpp"
#include "ict/extest_session.hpp"
#include "scenario/build.hpp"
#include "scenario/sweep.hpp"

namespace jsi::e2e {

namespace {

/// Closed-form TCK cost of one session of `spec`.
std::uint64_t reference_tcks(const scenario::ScenarioSpec& spec,
                             const scenario::SessionSpec& s) {
  using scenario::SessionKind;
  const scenario::TopologySpec& t = spec.topology;
  switch (s.kind) {
    case SessionKind::Enhanced:
      return core::dry_run_cost(
                 core::plan_enhanced_session(t.n_wires, t.m_extra_cells,
                                             t.ir_width,
                                             scenario::observation_method(s)))
          .total_tcks;
    case SessionKind::Conventional:
      return core::dry_run_cost(
                 core::plan_conventional_session(
                     t.n_wires, t.m_extra_cells, t.ir_width,
                     scenario::observation_method(s)))
          .total_tcks;
    case SessionKind::Parallel:
      return core::dry_run_cost(
                 core::plan_parallel_victims(t.n_wires, t.m_extra_cells,
                                             t.ir_width,
                                             scenario::observation_method(s),
                                             s.guard))
          .total_tcks;
    case SessionKind::MultiBus:
      return core::dry_run_cost(
                 core::plan_multibus_session(t.n_buses, t.wires_per_bus,
                                             t.m_extra_cells, t.ir_width,
                                             scenario::observation_method(s)))
          .total_tcks;
    case SessionKind::Bist:
      // The BIST ROM replays the method-1 enhanced session cycle for cycle.
      return core::dry_run_cost(
                 core::plan_enhanced_session(t.n_wires, t.m_extra_cells,
                                             t.ir_width,
                                             core::ObservationMethod::OnceAtEnd))
          .total_tcks;
    case SessionKind::Extest: {
      ict::BoardNets board(t.n_nets, t.float_value);
      ict::ExtestInterconnectSession session(board);
      return core::dry_run_cost(
                 session.plan(scenario::extest_algorithm(s)))
          .total_tcks;
    }
  }
  return 0;
}

// Pinned with `jsi_e2e --workload <w> --seed 1 --print-pins` (Release,
// x86-64, GCC 12). A deliberate change to report.txt or yield.json
// re-pins here in the same change.
constexpr Pin kPins[] = {
    {"mc_sweep", "029d4594ec7b77b2", "1b4a8cd68d2fddfe", 384, 144, 194304},
    {"wide_bus_n64", "5c42a048f597b756", "", 5, 5, 114552},
    {"low_swing_mc", "81297794b78d0711", "16d8147bb502e5f5", 144, 107, 72864},
    {"serve_closed", "d0f689b0ce0f654f", "", 18, 18, 25511},
};

}  // namespace

void check_tcks(const scenario::ScenarioSpec& spec,
                const core::CampaignResult& result, const std::string& label,
                RunResult& out) {
  out.check(result.complete, label + ": campaign incomplete");
  out.check(result.failures == 0,
            label + ": " + std::to_string(result.failures) + " failed units");
  if (spec.sweep) {
    const std::uint64_t per_die = reference_tcks(spec, spec.sessions.front());
    const std::uint64_t units = scenario::SweepUnitSource(spec).count();
    out.check(result.units_run == units, label + ": sweep ran " +
                                             std::to_string(result.units_run) +
                                             " of " + std::to_string(units) +
                                             " dies");
    out.check(result.total_tcks == units * per_die,
              label + ": sweep TCKs " + std::to_string(result.total_tcks) +
                  " != " + std::to_string(units) + " x dry_run_cost " +
                  std::to_string(per_die));
    return;
  }
  out.check(result.units.size() == spec.sessions.size(),
            label + ": unit count != session count");
  for (std::size_t i = 0;
       i < spec.sessions.size() && i < result.units.size(); ++i) {
    const std::uint64_t want = reference_tcks(spec, spec.sessions[i]);
    const core::UnitOutcome& u = result.units[i];
    out.check(!u.failed, label + ": unit " + u.name + " failed: " + u.summary);
    out.check(u.total_tcks == want,
              label + ": unit " + u.name + " ran " +
                  std::to_string(u.total_tcks) + " TCKs, dry_run_cost says " +
                  std::to_string(want));
  }
}

const Pin* find_pin(const std::string& workload) {
  for (const Pin& p : kPins) {
    if (workload == p.workload) return &p;
  }
  return nullptr;
}

void print_pin(const std::string& workload, const std::string& report_digest,
               const std::string& yield_digest, std::uint64_t units,
               std::uint64_t violations, std::uint64_t total_tcks) {
  std::cout << "pin: {\"" << workload << "\", \"" << report_digest << "\", \""
            << yield_digest << "\", " << units << ", " << violations << ", "
            << total_tcks << "},\n";
}

void check_pin(const Options& opt, const std::string& report_digest,
               const std::string& yield_digest, std::uint64_t units,
               std::uint64_t violations, std::uint64_t total_tcks,
               RunResult& out) {
  if (opt.tiny || opt.seed != kPinnedSeed) return;
  if (opt.print_pins) {
    print_pin(opt.workload, report_digest, yield_digest, units, violations,
              total_tcks);
    return;
  }
  const Pin* p = find_pin(opt.workload);
  if (p == nullptr) {
    out.check(false, "no pinned digests for " + opt.workload);
    return;
  }
  out.check(report_digest == p->report_digest,
            "report digest " + report_digest + " != pinned " +
                p->report_digest);
  out.check(yield_digest == p->yield_digest,
            "yield digest " + yield_digest + " != pinned " + p->yield_digest);
  out.check(units == p->units && violations == p->violations &&
                total_tcks == p->total_tcks,
            "sim counts " + std::to_string(units) + "/" +
                std::to_string(violations) + "/" + std::to_string(total_tcks) +
                " != pinned " + std::to_string(p->units) + "/" +
                std::to_string(p->violations) + "/" +
                std::to_string(p->total_tcks));
}

}  // namespace jsi::e2e
