#include "scenario/build.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "scenario/serialize.hpp"
#include "scenario/sweep.hpp"
#include "util/bitvec.hpp"
#include "util/prng.hpp"

namespace jsi::scenario {

namespace {

[[noreturn]] void wrong_topology(const ScenarioSpec& spec,
                                 const char* wanted) {
  throw SpecError("topology.kind",
                  std::string("this scenario's topology is \"") +
                      topology_kind_name(spec.topology.kind) + "\", not \"" +
                      wanted + "\"");
}

/// The unit's defects, each applied to the bus it names (every soc
/// defect names bus 0: the parser refuses `bus` outside multibus_soc).
core::CampaignRunner::BusSetup bus_setup(std::vector<DefectSpec> defs) {
  if (defs.empty()) return {};
  return [defs = std::move(defs)](std::size_t b, si::CoupledBus& bus) {
    for (const DefectSpec& d : defs) {
      if (d.bus == b) apply_defect(bus, d);
    }
  };
}

std::unique_ptr<si::CoupledBus> build_prototype(const ScenarioSpec& spec) {
  if (spec.topology.kind == TopologyKind::Board ||
      !spec.campaign.warm_prototype) {
    return nullptr;
  }
  const si::BusParams bp = core::effective_bus_params(soc_config(spec));
  auto proto = std::make_unique<si::CoupledBus>(bp);
  // One canonical warming transition (all-zero -> even wires high):
  // every unit's clone starts from this memoized state, independent of
  // shard count or worker identity. A batch stores its entries and
  // renders nothing.
  util::BitVec zeros(bp.n_wires, false);
  util::BitVec evens(bp.n_wires, false);
  for (std::size_t w = 0; w < bp.n_wires; w += 2) evens.set(w, true);
  proto->transition_batch(zeros, evens);
  // Warm the MA pattern entries too: every per-unit clone then starts
  // with them stored, so no worker pays those lookups' misses
  // (shard-count invariant by construction).
  proto->warm_ma_pairs();
  return proto;
}

}  // namespace

core::SocConfig soc_config(const ScenarioSpec& spec) {
  const TopologySpec& t = spec.topology;
  core::SocConfig c;
  switch (t.kind) {
    case TopologyKind::Soc:
      c.n_wires = t.n_wires;
      break;
    case TopologyKind::MultiBusSoc:
      c.n_buses = t.n_buses;
      c.n_wires = t.wires_per_bus;
      break;
    case TopologyKind::Board:
      wrong_topology(spec, "soc\" or \"multibus_soc");
  }
  c.m_extra_cells = t.m_extra_cells;
  c.ir_width = t.ir_width;
  c.idcode = t.idcode;
  c.bus = t.bus;
  return c;
}

ict::BoardNets board_nets(const ScenarioSpec& spec) {
  if (spec.topology.kind != TopologyKind::Board) wrong_topology(spec, "board");
  ict::BoardNets board(spec.topology.n_nets, spec.topology.float_value);
  for (const DefectSpec& d : spec.defects) apply_board_fault(board, d);
  return board;
}

core::ObservationMethod observation_method(const SessionSpec& s) {
  switch (s.method) {
    case 1: return core::ObservationMethod::OnceAtEnd;
    case 2: return core::ObservationMethod::PerInitValue;
    case 3: return core::ObservationMethod::PerPattern;
  }
  throw std::logic_error("unvalidated observation method");
}

ict::Algorithm extest_algorithm(const SessionSpec& s) {
  switch (s.algorithm) {
    case ExtestAlgorithm::WalkingOnes: return ict::Algorithm::WalkingOnes;
    case ExtestAlgorithm::CountingSequence:
      return ict::Algorithm::CountingSequence;
    case ExtestAlgorithm::TrueComplementCounting:
      return ict::Algorithm::TrueComplementCounting;
  }
  throw std::logic_error("unvalidated extest algorithm");
}

std::vector<DefectSpec> resolved_defects(const ScenarioSpec& spec) {
  util::Prng rng(spec.campaign.seed);
  return resolve_defects(spec.defects, spec.topology, rng);
}

std::vector<DefectSpec> resolve_defects(const std::vector<DefectSpec>& in,
                                        const TopologySpec& topo,
                                        util::Prng& rng) {
  std::vector<DefectSpec> out;
  out.reserve(in.size());
  for (const DefectSpec& d : in) {
    if (d.kind != DefectKind::RandomCrosstalk) {
      out.push_back(d);
      continue;
    }
    const std::size_t width = topo.kind == TopologyKind::MultiBusSoc
                                  ? topo.wires_per_bus
                                  : topo.n_wires;
    for (std::size_t i = 0; i < d.count; ++i) {
      DefectSpec r;
      r.kind = DefectKind::Crosstalk;
      if (topo.kind == TopologyKind::MultiBusSoc) {
        r.bus = rng.next_below(topo.n_buses);
      }
      r.wire = rng.next_below(width);
      r.severity = d.severity;
      out.push_back(r);
    }
  }
  return out;
}

void apply_defect(si::CoupledBus& bus, const DefectSpec& d) {
  switch (d.kind) {
    case DefectKind::Crosstalk:
      bus.inject_crosstalk_defect(d.wire, d.severity);
      return;
    case DefectKind::Coupling:
      bus.scale_coupling(d.pair, d.factor);
      return;
    case DefectKind::SeriesResistance:
      bus.add_series_resistance(d.wire, d.ohms);
      return;
    case DefectKind::RandomCrosstalk:
    case DefectKind::Stuck:
    case DefectKind::Open:
    case DefectKind::Short:
      break;
  }
  throw std::logic_error("not a resolved electrical defect");
}

void apply_board_fault(ict::BoardNets& board, const DefectSpec& d) {
  switch (d.kind) {
    case DefectKind::Stuck:
      board.inject_stuck(d.net, d.value);
      return;
    case DefectKind::Open:
      board.inject_open(d.net);
      return;
    case DefectKind::Short:
      board.inject_short(d.nets, d.wired_and);
      return;
    case DefectKind::Crosstalk:
    case DefectKind::Coupling:
    case DefectKind::SeriesResistance:
    case DefectKind::RandomCrosstalk:
      break;
  }
  throw std::logic_error("not a board fault");
}

ScenarioCampaign build_campaign(const ScenarioSpec& spec,
                                const BuildOptions& opt) {
  core::CampaignConfig cc;
  cc.shards = opt.shards.value_or(spec.campaign.shards);
  cc.strict_metrics = spec.campaign.strict_metrics;
  cc.keep_events = spec.campaign.keep_events;
  cc.trace.capacity = spec.obs.trace_capacity;
  cc.trace.tap_edges = spec.obs.tap_edges;
  cc.trace.cache_lookups = spec.obs.cache_lookups;
  cc.trace.tck_period_ps = spec.obs.tck_period_ps;

  // Live telemetry: CLI flags override the spec's section wholesale, and
  // --progress forces the sampler on even with no JSONL sink configured.
  const TelemetrySpec& tele = opt.telemetry ? *opt.telemetry : spec.telemetry;
  cc.telemetry.enabled =
      tele.enabled || opt.progress || opt.telemetry_sink != nullptr;
  cc.telemetry.interval_ms = tele.interval_ms;
  cc.telemetry.sink_path = tele.path;
  cc.telemetry.sink = opt.telemetry_sink;
  cc.telemetry.progress = opt.progress;
  cc.cancel = opt.cancel;

  // Sweep-scale execution control (no-ops at their defaults).
  cc.checkpoint_path = opt.checkpoint_path;
  cc.resume = opt.resume;
  cc.max_chunks = opt.max_chunks;
  cc.range_begin = opt.range_begin;
  cc.range_end = opt.range_end;
  if (!cc.checkpoint_path.empty()) {
    // Campaign identity for the checkpoint header: a checkpoint written
    // by one spec can never silently resume another.
    cc.fingerprint = core::fingerprint_text(serialize(spec));
  }

  ScenarioCampaign sc;

  if (spec.sweep) {
    // Sweep lowering: one lazy source instead of a materialized unit
    // list. Past the transcript threshold the campaign folds outcomes
    // into streaming aggregates (O(1) memory in population size); the
    // aggregate/chunking decision lives in the config, so it must be
    // made before the runner is constructed.
    auto source = std::make_unique<SweepUnitSource>(spec);
    cc.aggregate_outcomes = source->count() > kSweepTranscriptThreshold;
    sc.runner_ = core::CampaignRunner(cc);
    sc.source_ = std::move(source);
    sc.runner_.set_source(sc.source_.get());
    sc.proto_ = build_prototype(spec);
    if (sc.proto_) sc.runner_.set_prototype_bus(sc.proto_.get());
    return sc;
  }

  sc.runner_ = core::CampaignRunner(cc);

  util::Prng rng(spec.campaign.seed);
  const std::vector<DefectSpec> shared =
      resolve_defects(spec.defects, spec.topology, rng);

  for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
    const SessionSpec& s = spec.sessions[i];
    std::vector<DefectSpec> defs = shared;
    {
      std::vector<DefectSpec> own =
          resolve_defects(s.defects, spec.topology, rng);
      defs.insert(defs.end(), own.begin(), own.end());
    }
    const std::string name =
        s.name.empty() ? std::string(session_kind_name(s.kind)) + "_" +
                             std::to_string(i)
                       : s.name;
    switch (s.kind) {
      case SessionKind::Enhanced:
        sc.runner_.add_enhanced(name, soc_config(spec), observation_method(s),
                                bus_setup(std::move(defs)));
        break;
      case SessionKind::Conventional:
        sc.runner_.add_conventional(name, soc_config(spec),
                                    observation_method(s),
                                    bus_setup(std::move(defs)));
        break;
      case SessionKind::Parallel:
        sc.runner_.add_parallel(name, soc_config(spec), observation_method(s),
                                s.guard, bus_setup(std::move(defs)));
        break;
      case SessionKind::Bist:
        sc.runner_.add_bist(name, soc_config(spec),
                            bus_setup(std::move(defs)));
        break;
      case SessionKind::MultiBus:
        sc.runner_.add_multibus(name, soc_config(spec), observation_method(s),
                                bus_setup(std::move(defs)));
        break;
      case SessionKind::Extest: {
        core::CampaignUnit u;
        u.name = name;
        u.run = [topo = spec.topology, defs = std::move(defs),
                 alg = extest_algorithm(s),
                 alg_name = extest_algorithm_name(s.algorithm)](
                    core::CampaignContext& ctx) {
          ict::BoardNets board(topo.n_nets, topo.float_value);
          for (const DefectSpec& d : defs) apply_board_fault(board, d);
          ict::ExtestInterconnectSession session(board);
          session.set_sink(&ctx.hub());
          const ict::ExtestResult res = session.run(alg);
          core::UnitOutcome o;
          o.total_tcks = res.total_tcks;
          o.violation = !res.board_is_clean();
          std::ostringstream os;
          os << "alg=" << alg_name << " patterns=" << res.patterns_applied
             << (res.board_is_clean() ? " clean" : " faulty");
          o.summary = os.str();
          return o;
        };
        sc.runner_.add(std::move(u));
        break;
      }
    }
  }

  sc.proto_ = build_prototype(spec);
  if (sc.proto_) sc.runner_.set_prototype_bus(sc.proto_.get());
  return sc;
}

}  // namespace jsi::scenario
