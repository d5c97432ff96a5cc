#include "workloads.hpp"

#include "scenario/serialize.hpp"
#include "scenario/spec.hpp"
#include "util/prng.hpp"

namespace jsi::e2e {

namespace {

using scenario::DefectKind;
using scenario::DefectSpec;
using scenario::ScenarioSpec;
using scenario::SessionKind;
using scenario::SessionSpec;

constexpr std::uint32_t kSocIdcode = 173477889;
constexpr std::uint32_t kMultiBusIdcode = 173481985;

/// Seeds stay below 2^31 so they survive the JSON number round trip.
std::uint64_t draw_seed(util::Prng& rng) { return rng.next_below(1u << 31); }

ScenarioSpec soc_spec(std::string name, std::size_t n) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.topology.kind = scenario::TopologyKind::Soc;
  s.topology.n_wires = n;
  s.topology.idcode = kSocIdcode;
  return s;
}

SessionSpec session(SessionKind kind, std::string name, int method = 1,
                    std::size_t guard = 2) {
  SessionSpec s;
  s.kind = kind;
  s.name = std::move(name);
  s.method = method;
  s.guard = guard;
  return s;
}

DefectSpec crosstalk(std::size_t wire, double severity) {
  DefectSpec d;
  d.kind = DefectKind::Crosstalk;
  d.wire = wire;
  d.severity = severity;
  return d;
}

DefectSpec random_crosstalk(std::size_t count, double severity) {
  DefectSpec d;
  d.kind = DefectKind::RandomCrosstalk;
  d.count = count;
  d.severity = severity;
  return d;
}

/// The Monte-Carlo sweep shared by mc_sweep and low_swing_mc: one
/// enhanced method-1 die template over an ND x SD threshold grid, with
/// die-level process variation and one random crosstalk defect per die.
ScenarioSpec sweep_spec(std::string name, std::uint64_t seed,
                        std::size_t samples_per_point,
                        std::vector<double> nd, std::vector<std::uint64_t> sd,
                        std::vector<scenario::VariationSpec> variations) {
  util::Prng rng(seed);
  ScenarioSpec s = soc_spec(std::move(name), 8);
  s.sessions = {session(SessionKind::Enhanced, "die")};
  scenario::SweepSpec sw;
  sw.samples = samples_per_point;
  sw.nd_vhthr_frac = std::move(nd);
  sw.sd_budget_ps = std::move(sd);
  sw.variations = std::move(variations);
  sw.defects = {random_crosstalk(1, 1.5)};
  s.sweep = std::move(sw);
  s.campaign.seed = draw_seed(rng);
  return s;
}

}  // namespace

std::string mc_sweep_text(std::uint64_t seed, bool tiny, std::size_t shards) {
  // 6 grid points x 64 dies = 384 units: past the 128-unit transcript
  // threshold (aggregated outcomes), 6 chunks of 64 over 4 workers, so
  // the chunk-imbalance tail is part of every run.
  ScenarioSpec s = sweep_spec("e2e_mc_sweep", seed ^ 0x6d63u, tiny ? 22 : 64,
                              {0.3, 0.45, 0.65}, {150, 250},
                              {{"r_driver", 0.08},
                               {"r_wire", 0.08},
                               {"c_couple", 0.08}});
  if (tiny) s.topology.bus.samples = 512;
  s.campaign.shards = shards;
  return scenario::serialize(s);
}

std::string low_swing_text(std::uint64_t seed, bool tiny) {
  // 8 grid points x 18 dies = 144 units, aggregated, one worker.
  ScenarioSpec s = sweep_spec("e2e_low_swing_mc", seed ^ 0x6c73u,
                              tiny ? 17 : 18, {0.2, 0.45},
                              {450, 550, 650, 800},
                              {{"r_driver", 0.08},
                               {"c_couple", 0.08},
                               {"swing_frac", 0.06}});
  s.topology.bus.model = si::ModelKind::LowSwing;
  if (tiny) s.topology.bus.samples = 512;
  s.campaign.shards = 1;
  return scenario::serialize(s);
}

std::string wide_bus_text(std::uint64_t seed, bool tiny) {
  util::Prng rng(seed ^ 0x7762u);
  ScenarioSpec s = soc_spec("e2e_wide_bus_n64", tiny ? 16 : 64);
  s.defects = {random_crosstalk(3, 6.0)};
  s.sessions = {
      session(SessionKind::Conventional, "conventional_m1", 1),
      session(SessionKind::Enhanced, "enhanced_m1", 1),
      session(SessionKind::Enhanced, "enhanced_m2", 2),
      session(SessionKind::Parallel, "parallel_g2_m1", 1, 2),
      session(SessionKind::Bist, "bist"),
  };
  s.campaign.seed = draw_seed(rng);
  s.campaign.shards = 1;
  return scenario::serialize(s);
}

std::vector<std::string> serve_catalog(std::uint64_t seed, bool tiny) {
  util::Prng rng(seed ^ 0x7376u);
  std::vector<ScenarioSpec> jobs;
  const auto wire = [&](std::size_t n) { return rng.next_below(n); };
  const auto severity = [&] { return 2.0 + 6.0 * rng.next_double(); };

  {
    ScenarioSpec s = soc_spec("job_enh_conv_n8", 8);
    s.defects = {crosstalk(wire(8), severity())};
    s.sessions = {session(SessionKind::Enhanced, "enhanced", 1),
                  session(SessionKind::Conventional, "conventional", 1)};
    jobs.push_back(std::move(s));
  }
  {
    ScenarioSpec s = soc_spec("job_m2_parallel_n8", 8);
    DefectSpec r;
    r.kind = DefectKind::SeriesResistance;
    r.wire = wire(8);
    r.ohms = 400.0 + 800.0 * rng.next_double();
    s.defects = {r};
    s.sessions = {session(SessionKind::Enhanced, "enhanced", 2),
                  session(SessionKind::Parallel, "parallel", 1, 2)};
    jobs.push_back(std::move(s));
  }
  {
    ScenarioSpec s = soc_spec("job_m3_bist_n8", 8);
    DefectSpec c;
    c.kind = DefectKind::Coupling;
    c.pair = wire(7);
    c.factor = 3.0 + 4.0 * rng.next_double();
    s.defects = {c};
    s.sessions = {session(SessionKind::Enhanced, "per_pattern", 3),
                  session(SessionKind::Bist, "bist")};
    jobs.push_back(std::move(s));
  }
  {
    ScenarioSpec s = soc_spec("job_random_n16", 16);
    s.defects = {random_crosstalk(2, 4.0)};
    s.sessions = {session(SessionKind::Enhanced, "enhanced", 1),
                  session(SessionKind::Parallel, "parallel", 2, 3)};
    jobs.push_back(std::move(s));
  }
  {
    ScenarioSpec s = soc_spec("job_conv_m2_n16", 16);
    s.defects = {crosstalk(wire(16), severity())};
    s.sessions = {session(SessionKind::Conventional, "conventional", 2)};
    jobs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "job_multibus_2x8";
    s.topology.kind = scenario::TopologyKind::MultiBusSoc;
    s.topology.n_buses = 2;
    s.topology.wires_per_bus = 8;
    s.topology.idcode = kMultiBusIdcode;
    DefectSpec d = crosstalk(wire(8), severity());
    d.bus = rng.next_below(2);
    s.defects = {d};
    s.sessions = {session(SessionKind::MultiBus, "multibus_m1", 1),
                  session(SessionKind::MultiBus, "multibus_m2", 2)};
    jobs.push_back(std::move(s));
  }
  {
    ScenarioSpec s;
    s.name = "job_board_extest";
    s.topology.kind = scenario::TopologyKind::Board;
    s.topology.n_nets = 8;
    DefectSpec stuck;
    stuck.kind = DefectKind::Stuck;
    stuck.net = wire(8);
    stuck.value = rng.next_below(2) == 1;
    DefectSpec open;
    open.kind = DefectKind::Open;
    open.net = (stuck.net + 1 + wire(7)) % 8;
    s.defects = {stuck, open};
    SessionSpec a = session(SessionKind::Extest, "walking_ones");
    SessionSpec b = session(SessionKind::Extest, "counting");
    b.algorithm = scenario::ExtestAlgorithm::CountingSequence;
    SessionSpec c = session(SessionKind::Extest, "true_complement");
    c.algorithm = scenario::ExtestAlgorithm::TrueComplementCounting;
    s.sessions = {a, b, c};
    jobs.push_back(std::move(s));
  }
  {
    ScenarioSpec s = soc_spec("job_enh_m1_bist_n16", 16);
    s.defects = {crosstalk(wire(16), severity())};
    s.sessions = {session(SessionKind::Enhanced, "enhanced", 1),
                  session(SessionKind::Bist, "bist")};
    jobs.push_back(std::move(s));
  }
  {
    ScenarioSpec s = soc_spec("job_conv_parallel_n8", 8);
    s.defects = {random_crosstalk(1, 5.0)};
    s.sessions = {session(SessionKind::Conventional, "conventional", 2),
                  session(SessionKind::Parallel, "parallel", 2, 3)};
    jobs.push_back(std::move(s));
  }

  // An odd number of jobs of distinct sizes: with every job equally often
  // in the mix, p50 and p95 fall inside one job's latency band, never on
  // the gap between two. Buses keep the 2048-sample window every shipped
  // scenario uses.
  std::vector<std::string> out;
  for (ScenarioSpec& s : jobs) {
    if (tiny && s.topology.kind != scenario::TopologyKind::Board) {
      s.topology.bus.samples = 256;
    }
    s.campaign.seed = draw_seed(rng);
    out.push_back(scenario::serialize(s));
  }
  return out;
}

}  // namespace jsi::e2e
