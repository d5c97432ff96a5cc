#include "scenario/sweep.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "core/bist.hpp"
#include "core/session.hpp"
#include "mafm/fault.hpp"
#include "scenario/build.hpp"
#include "si/model.hpp"
#include "sim/time.hpp"
#include "util/prng.hpp"

namespace jsi::scenario {

namespace {

/// Book one completed die's ground truth against its test verdict (the
/// die-level violation and the per-wire ND|SD flags) into the population
/// and grid-point truth counters. Every counter is booked, zero or not,
/// so the name set is the same for every die.
void book_truth(obs::Registry& reg, const std::string& prefix,
                const DieTruth& truth, bool flagged_die,
                const util::BitVec& flagged) {
  const util::BitVec bad = truth.noisy | truth.skewed;
  const bool die_bad = bad.popcount() > 0;
  std::uint64_t tp = 0, fp = 0, fn = 0, tn = 0;
  for (std::size_t w = 0; w < bad.size(); ++w) {
    tp += bad[w] && flagged[w];
    fp += !bad[w] && flagged[w];
    fn += bad[w] && !flagged[w];
    tn += !bad[w] && !flagged[w];
  }
  const std::pair<const char*, std::uint64_t> books[] = {
      {"bad", die_bad},
      {"escapes", die_bad && !flagged_die},
      {"overkill", flagged_die && !die_bad},
      {"wire_tp", tp},
      {"wire_fp", fp},
      {"wire_fn", fn},
      {"wire_tn", tn},
  };
  for (const std::string& p : {std::string("sweep"), prefix}) {
    for (const auto& [name, value] : books) {
      reg.counter(p + ".truth." + name).inc(value);
    }
  }
}

void apply_variation(si::BusParams& p, const VariationSpec& var,
                     double factor) {
  // Deep-tail draws must not produce a zero or negative electrical.
  if (factor < 0.05) factor = 0.05;
  if (var.param == "vdd") {
    p.vdd *= factor;
  } else if (var.param == "r_driver") {
    p.r_driver *= factor;
  } else if (var.param == "r_wire") {
    p.r_wire *= factor;
  } else if (var.param == "c_ground") {
    p.c_ground *= factor;
  } else if (var.param == "c_couple") {
    p.c_couple *= factor;
  } else if (var.param == "l_wire") {
    p.l_wire *= factor;
  } else if (var.param == "swing_frac") {
    // low_swing bias-network variation. Clamp into the model's valid
    // range so a deep-tail draw can't make BusModel construction throw:
    // the swing stays <= 1 and keeps 25% headroom over the converter Vt.
    p.swing_frac *= factor;
    if (p.swing_frac > 1.0) p.swing_frac = 1.0;
    const double floor = p.receiver_vt_frac * 1.25;
    if (p.swing_frac < floor) p.swing_frac = floor;
  } else {
    throw std::logic_error("unvalidated variation parameter");
  }
}

}  // namespace

SweepUnitSource::SweepUnitSource(const ScenarioSpec& spec) {
  if (!spec.sweep) {
    throw SpecError("sweep", "this scenario has no sweep section");
  }
  sweep_ = *spec.sweep;
  topo_ = spec.topology;
  base_ = soc_config(spec);
  seed_ = spec.campaign.seed;

  // Shared (every-die) defects resolve once from the campaign seed, in
  // the same scenario-then-session order build_campaign uses, so a
  // seeded sweep places its systematic defects exactly like the
  // non-sweep lowering would.
  const SessionSpec& session = spec.sessions.at(0);
  util::Prng rng(seed_);
  shared_ = resolve_defects(spec.defects, topo_, rng);
  {
    std::vector<DefectSpec> own = resolve_defects(session.defects, topo_, rng);
    shared_.insert(shared_.end(), own.begin(), own.end());
  }

  kind_ = session.kind;
  method_ = observation_method(session);
  guard_ = session.guard;
  name_prefix_ = session.name.empty()
                     ? std::string(session_kind_name(session.kind))
                     : session.name;

  // Row-major grid: the ND axis is the outer loop. An empty axis
  // contributes one point that leaves the topology default in force.
  const std::size_t nd_n = sweep_.nd_vhthr_frac.empty()
                               ? 1
                               : sweep_.nd_vhthr_frac.size();
  const std::size_t sd_n =
      sweep_.sd_budget_ps.empty() ? 1 : sweep_.sd_budget_ps.size();
  grid_.reserve(nd_n * sd_n);
  for (std::size_t a = 0; a < nd_n; ++a) {
    for (std::size_t b = 0; b < sd_n; ++b) {
      GridPoint g;
      g.id = grid_.size();
      if (!sweep_.nd_vhthr_frac.empty()) {
        g.nd_vhthr_frac = sweep_.nd_vhthr_frac[a];
      }
      if (!sweep_.sd_budget_ps.empty()) {
        g.sd_budget_ps = sweep_.sd_budget_ps[b];
      }
      grid_.push_back(g);
    }
  }
}

std::size_t SweepUnitSource::count() const {
  return grid_.size() * sweep_.samples;
}

std::string SweepUnitSource::grid_prefix(std::size_t gid) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "sweep.grid.g%04zu", gid);
  return std::string(buf);
}

core::SocConfig SweepUnitSource::unit_config(std::size_t index) const {
  const GridPoint& g = grid_[index / sweep_.samples];
  core::SocConfig cfg = base_;
  cfg.enhanced = kind_ != SessionKind::Conventional;
  if (g.nd_vhthr_frac) {
    cfg.nd.v_hthr_frac = *g.nd_vhthr_frac;
    // The release threshold tracks 0.10 below the arming threshold, so
    // the hysteresis stays fixed while the threshold moves.
    cfg.nd.v_hmin_frac = *g.nd_vhthr_frac - 0.10;
  }
  if (g.sd_budget_ps) {
    cfg.sd.skew_budget = static_cast<sim::Time>(*g.sd_budget_ps) * sim::kPs;
  }
  // All sampled randomness of unit `index` comes from split(index):
  // variation factors first, then defect placement, in spec order.
  util::Prng rng = util::Prng(seed_).split(index);
  for (const VariationSpec& var : sweep_.variations) {
    apply_variation(cfg.bus, var, 1.0 + var.sigma * rng.next_normal());
  }
  return cfg;
}

std::vector<DefectSpec> SweepUnitSource::unit_defects(std::size_t index) const {
  util::Prng rng = util::Prng(seed_).split(index);
  // Replay (discard) the variation draws so defect placement consumes
  // the same stream positions it does inside unit_config + unit().
  for (const VariationSpec& var : sweep_.variations) {
    (void)var;
    (void)rng.next_normal();
  }
  std::vector<DefectSpec> defs = shared_;
  std::vector<DefectSpec> own = resolve_defects(sweep_.defects, topo_, rng);
  defs.insert(defs.end(), own.begin(), own.end());
  return defs;
}

core::CampaignUnit SweepUnitSource::unit(std::size_t index) const {
  const std::size_t gid = index / sweep_.samples;
  const std::size_t sample = index % sweep_.samples;

  core::SocConfig cfg = unit_config(index);
  std::vector<DefectSpec> defs = unit_defects(index);

  core::CampaignUnit u;
  {
    std::ostringstream os;
    os << name_prefix_ << "_g" << gid << "_s" << sample;
    u.name = os.str();
  }
  u.run = [cfg = std::move(cfg), defs = std::move(defs), kind = kind_,
           method = method_, guard = guard_, limits = sweep_.spec_limits,
           gid](core::CampaignContext& ctx) {
    // Population books first: a die that fails mid-session still counts
    // as a unit of its grid point (the failure books below and in the
    // campaign aggregate).
    obs::Registry& reg = ctx.hub().registry();
    const std::string prefix = grid_prefix(gid);
    reg.counter("sweep.units").inc();
    reg.counter(prefix + ".units").inc();
    // Tag which interconnect kernel served this die, so merged BENCH /
    // metrics JSONs distinguish model populations. Only booked for
    // non-default models: rc_full_swing artifacts stay byte-exact.
    if (cfg.bus.model != si::ModelKind::RcFullSwing) {
      reg.counter(std::string("bus.model.") +
                  si::model_kind_name(cfg.bus.model))
          .inc();
    }

    core::UnitOutcome o;
    try {
      // Clone-or-build via the campaign bus factory: the warm clone path
      // requires exact `si::same_params` equality (incl. model kind), so
      // a process-varied die pays a fresh build and never inherits the
      // base die's memoized waveforms.
      std::vector<si::CoupledBus> buses;
      buses.push_back(ctx.make_bus(core::effective_bus_params(cfg)));
      for (const DefectSpec& d : defs) apply_defect(buses.front(), d);
      core::SiSocDevice soc(cfg, std::move(buses));
      util::BitVec flagged;  // per-wire ND|SD verdict, for the truth books
      const auto take = [&](const core::IntegrityReport& rep) {
        o = core::summarize(rep);
        flagged = rep.nd_final | rep.sd_final;
      };
      switch (kind) {
        case SessionKind::Enhanced: {
          core::SiTestSession session(soc);
          session.set_sink(&ctx.hub());
          take(session.run(method));
          break;
        }
        case SessionKind::Conventional: {
          core::ConventionalSession session(soc);
          session.set_sink(&ctx.hub());
          take(session.run(method));
          break;
        }
        case SessionKind::Parallel: {
          core::SiTestSession session(soc);
          session.set_sink(&ctx.hub());
          take(session.run_parallel(method, guard));
          break;
        }
        case SessionKind::Bist: {
          core::SiBistController ctl(soc);
          ctl.set_sink(&ctx.hub());
          const core::SiBistController::Result res = ctl.run();
          o = core::summarize(res);
          flagged = res.nd | res.sd;
          break;
        }
        case SessionKind::MultiBus:
        case SessionKind::Extest:
          // Unreachable: the parser rejects sweep on non-soc topologies.
          throw std::logic_error("sweep: unsupported session kind");
      }
      if (limits) {
        book_truth(reg, prefix, die_truth(soc.bus(), *limits), o.violation,
                   flagged);
      }
    } catch (...) {
      reg.counter("sweep.failures").inc();
      reg.counter(prefix + ".failures").inc();
      throw;  // the runner books the failed outcome
    }

    if (o.violation) {
      reg.counter("sweep.violations").inc();
      reg.counter(prefix + ".violations").inc();
    }
    reg.histogram("sweep.unit_tcks")
        .observe(static_cast<double>(o.total_tcks));
    return o;
  };
  return u;
}

DieTruth die_truth(const si::CoupledBus& bus, const ShippingLimits& limits) {
  const std::size_t n = bus.n();
  const double swing =
      si::model_for(bus.params().model).observed_swing(bus.params());
  const auto max_settle =
      static_cast<sim::Time>(limits.max_settle_ps) * sim::kPs;
  const double max_glitch = limits.max_glitch_frac * swing;
  DieTruth truth{util::BitVec(n, false), util::BitVec(n, false)};
  for (std::size_t w = 0; w < n; ++w) {
    // Worst quiet-wire stress: both glitch polarities on both rails. The
    // probes read the samples that decide each question from the wire's
    // recipe; only what they cannot prove is rendered.
    for (const auto f : {mafm::MaFault::Pg, mafm::MaFault::PgBar,
                         mafm::MaFault::Ng, mafm::MaFault::NgBar}) {
      const mafm::VectorPair p = mafm::vectors_for(f, n, w);
      const si::WireRecipe r = bus.recipe(w, p.v1, p.v2);
      const double rail = p.v1[w] ? swing : 0.0;
      std::optional<bool> noisy = bus.probe(r).strays(rail, max_glitch);
      if (!noisy.has_value()) {
        const si::WaveformView wf = bus.render_fallback(r);
        noisy = std::max(wf.max_value() - rail, rail - wf.min_value()) >=
                max_glitch;
      }
      if (*noisy) truth.noisy.set(w, true);
    }
    // Worst switching stress: Miller-doubled rising and falling edges.
    for (const auto f : {mafm::MaFault::Rs, mafm::MaFault::Fs}) {
      const mafm::VectorPair p = mafm::vectors_for(f, n, w);
      const si::WireRecipe r = bus.recipe(w, p.v1, p.v2);
      std::optional<std::optional<sim::Time>> t =
          bus.probe(r).last_crossing(swing / 2);
      if (!t.has_value()) t = bus.render_fallback(r).last_crossing(swing / 2);
      if (!t->has_value() || **t > max_settle) truth.skewed.set(w, true);
    }
  }
  return truth;
}

}  // namespace jsi::scenario
