#include "scenario/parse.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <sstream>

#include "si/model.hpp"
#include "util/json.hpp"

namespace jsi::scenario {

namespace {

namespace json = jsi::util::json;

// Size caps on every value that sizes an allocation, so hostile or
// mistyped input fails here with a typed diagnostic instead of
// std::bad_alloc (or an unbounded run) once the campaign is built.
constexpr std::size_t kMaxWires = 1024;  ///< n_wires, wires_per_bus
constexpr std::size_t kMaxBuses = 64;
constexpr std::size_t kMaxNets = 4096;
constexpr std::size_t kMaxRandomCount = 1024;  ///< random_crosstalk.count
constexpr std::size_t kMaxSweepPopulation = 10'000'000;
constexpr std::uint64_t kMaxShards = 256;  ///< one std::thread per shard
/// obs.trace_capacity: with campaign.keep_events set, every campaign
/// worker's hub reserves that many 56-byte records, so 2^20 is 56 MiB per
/// worker. Without keep_events no ring is kept; the cap holds anyway, so
/// whether a spec parses never depends on another field.
constexpr std::size_t kMaxTraceCapacity = std::size_t{1} << 20;
/// bus width x samples x 8 B: the samples of one transition's rendered
/// waveforms (`transition()`, VCD dumps), and so also of the one wire a
/// bus renders into its scratch when no probe decides it.
constexpr std::size_t kMaxTransitionBytes = std::size_t{64} << 20;

[[noreturn]] void fail(const std::string& path, const std::string& reason) {
  throw SpecError(path, reason);
}

std::string sub(const std::string& base, const std::string& key) {
  return base.empty() ? key : base + "." + key;
}

std::string at(const std::string& base, std::size_t i) {
  return base + "[" + std::to_string(i) + "]";
}

const json::Value& req(const json::Value& obj, const std::string& base,
                       const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) fail(sub(base, key), "required");
  return *v;
}

void check_keys(const json::Value& obj, const std::string& base,
                std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : obj.object) {
    (void)value;
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) fail(sub(base, key), "unknown key");
  }
}

bool as_bool(const json::Value& v, const std::string& path) {
  if (!v.is_bool()) fail(path, "expected true or false");
  return v.boolean;
}

std::string as_string(const json::Value& v, const std::string& path) {
  if (!v.is_string()) fail(path, "expected a string");
  return v.str;
}

double as_double(const json::Value& v, const std::string& path) {
  if (!v.is_number()) fail(path, "expected a number");
  return v.number;
}

bool is_integral(const json::Value& v) {
  // 2^53: beyond this, doubles cannot represent every integer, so a JSON
  // number is no longer a faithful integer carrier.
  return v.is_number() && v.number == std::floor(v.number) &&
         std::abs(v.number) <= 9007199254740992.0;
}

std::uint64_t as_uint(const json::Value& v, const std::string& path) {
  if (!is_integral(v) || v.number < 0) {
    fail(path, "expected a non-negative integer");
  }
  return static_cast<std::uint64_t>(v.number);
}

std::size_t as_int_min(const json::Value& v, const std::string& path,
                       std::size_t min) {
  if (!is_integral(v) || v.number < static_cast<double>(min)) {
    fail(path, "must be an integer >= " + std::to_string(min));
  }
  return static_cast<std::size_t>(v.number);
}

std::size_t as_int_in(const json::Value& v, const std::string& path,
                      std::size_t min, std::size_t max) {
  const std::size_t x = as_int_min(v, path, min);
  if (x > max) fail(path, "must be <= " + std::to_string(max));
  return x;
}

std::size_t as_index_below(const json::Value& v, const std::string& path,
                           std::size_t bound) {
  if (!is_integral(v) || v.number < 0 ||
      v.number >= static_cast<double>(bound)) {
    fail(path, "must be an integer < " + std::to_string(bound));
  }
  return static_cast<std::size_t>(v.number);
}

// ---------------------------------------------------------------------------

si::BusParams parse_bus(const json::Value& v, const std::string& path) {
  if (!v.is_object()) fail(path, "expected an object");
  if (v.find("n_wires") != nullptr) {
    fail(sub(path, "n_wires"), "set by the topology, remove this key");
  }
  check_keys(v, path,
             {"model", "vdd", "r_driver", "r_wire", "c_ground", "c_couple",
              "l_wire", "sample_dt_ps", "samples", "swing_frac",
              "receiver_vt_frac"});
  si::BusParams p;
  if (const json::Value* x = v.find("model")) {
    const std::string name = as_string(*x, sub(path, "model"));
    if (!si::model_kind_from_name(name, p.model)) {
      fail(sub(path, "model"),
           "unknown interconnect model \"" + name + "\"");
    }
  }
  if (const json::Value* x = v.find("swing_frac")) {
    if (p.model != si::ModelKind::LowSwing) {
      fail(sub(path, "swing_frac"), "only valid for model \"low_swing\"");
    }
    p.swing_frac = as_double(*x, sub(path, "swing_frac"));
    if (!(p.swing_frac > 0 && p.swing_frac <= 1)) {
      fail(sub(path, "swing_frac"), "must be a number in (0, 1]");
    }
  }
  if (const json::Value* x = v.find("receiver_vt_frac")) {
    if (p.model != si::ModelKind::LowSwing) {
      fail(sub(path, "receiver_vt_frac"),
           "only valid for model \"low_swing\"");
    }
    p.receiver_vt_frac = as_double(*x, sub(path, "receiver_vt_frac"));
    if (!(p.receiver_vt_frac > 0 && p.receiver_vt_frac < 1)) {
      fail(sub(path, "receiver_vt_frac"), "must be a number in (0, 1)");
    }
  }
  if (p.model == si::ModelKind::LowSwing &&
      !(p.receiver_vt_frac < p.swing_frac)) {
    fail(sub(path, "receiver_vt_frac"), "must be below swing_frac");
  }
  if (const json::Value* x = v.find("vdd")) {
    p.vdd = as_double(*x, sub(path, "vdd"));
    if (p.vdd <= 0) fail(sub(path, "vdd"), "must be > 0");
  }
  if (const json::Value* x = v.find("r_driver")) {
    p.r_driver = as_double(*x, sub(path, "r_driver"));
    if (p.r_driver <= 0) fail(sub(path, "r_driver"), "must be > 0");
  }
  if (const json::Value* x = v.find("r_wire")) {
    p.r_wire = as_double(*x, sub(path, "r_wire"));
    if (p.r_wire < 0) fail(sub(path, "r_wire"), "must be >= 0");
  }
  if (const json::Value* x = v.find("c_ground")) {
    p.c_ground = as_double(*x, sub(path, "c_ground"));
    if (p.c_ground <= 0) fail(sub(path, "c_ground"), "must be > 0");
  }
  if (const json::Value* x = v.find("c_couple")) {
    p.c_couple = as_double(*x, sub(path, "c_couple"));
    if (p.c_couple < 0) fail(sub(path, "c_couple"), "must be >= 0");
  }
  if (const json::Value* x = v.find("l_wire")) {
    p.l_wire = as_double(*x, sub(path, "l_wire"));
    if (p.l_wire < 0) fail(sub(path, "l_wire"), "must be >= 0");
  }
  if (const json::Value* x = v.find("sample_dt_ps")) {
    p.sample_dt = as_int_min(*x, sub(path, "sample_dt_ps"), 1) * sim::kPs;
  }
  if (const json::Value* x = v.find("samples")) {
    p.samples = as_int_min(*x, sub(path, "samples"), 2);
  }
  return p;
}

TopologySpec parse_topology(const json::Value& v) {
  const std::string path = "topology";
  if (!v.is_object()) fail(path, "expected an object");
  const std::string ks = as_string(req(v, path, "kind"), sub(path, "kind"));
  TopologySpec t;
  if (ks == "soc") {
    t.kind = TopologyKind::Soc;
  } else if (ks == "multibus_soc") {
    t.kind = TopologyKind::MultiBusSoc;
  } else if (ks == "board") {
    t.kind = TopologyKind::Board;
  } else {
    fail(sub(path, "kind"),
         "expected \"soc\", \"multibus_soc\" or \"board\"");
  }

  if (t.kind == TopologyKind::Board) {
    check_keys(v, path, {"kind", "n_nets", "float_value"});
    if (const json::Value* x = v.find("n_nets")) {
      t.n_nets = as_int_in(*x, sub(path, "n_nets"), 1, kMaxNets);
    }
    if (const json::Value* x = v.find("float_value")) {
      t.float_value = as_bool(*x, sub(path, "float_value"));
    }
    return t;
  }

  if (t.kind == TopologyKind::Soc) {
    check_keys(v, path,
               {"kind", "n_wires", "m_extra_cells", "ir_width", "idcode",
                "bus"});
    if (const json::Value* x = v.find("n_wires")) {
      t.n_wires = as_int_in(*x, sub(path, "n_wires"), 2, kMaxWires);
    }
    t.idcode = 0x0A571001u;
  } else {
    check_keys(v, path,
               {"kind", "n_buses", "wires_per_bus", "m_extra_cells",
                "ir_width", "idcode", "bus"});
    if (const json::Value* x = v.find("n_buses")) {
      t.n_buses = as_int_in(*x, sub(path, "n_buses"), 1, kMaxBuses);
    }
    if (const json::Value* x = v.find("wires_per_bus")) {
      t.wires_per_bus =
          as_int_in(*x, sub(path, "wires_per_bus"), 2, kMaxWires);
    }
    t.idcode = 0x0A572001u;
  }
  if (const json::Value* x = v.find("m_extra_cells")) {
    t.m_extra_cells = as_uint(*x, sub(path, "m_extra_cells"));
  }
  if (const json::Value* x = v.find("ir_width")) {
    // The SI instruction opcodes (G-SITEST 0b1000, O-SITEST 0b1001) need
    // at least four IR bits.
    t.ir_width = as_int_min(*x, sub(path, "ir_width"), 4);
  }
  if (const json::Value* x = v.find("idcode")) {
    const std::uint64_t id = as_uint(*x, sub(path, "idcode"));
    if (id > 0xFFFFFFFFull) fail(sub(path, "idcode"), "must fit in 32 bits");
    t.idcode = static_cast<std::uint32_t>(id);
  }
  if (const json::Value* x = v.find("bus")) {
    t.bus = parse_bus(*x, sub(path, "bus"));
  }
  // Divided, not multiplied: samples can be up to 2^53.
  const std::size_t width =
      t.kind == TopologyKind::Soc ? t.n_wires : t.wires_per_bus;
  if (t.bus.samples > kMaxTransitionBytes / (width * sizeof(double))) {
    fail(sub(path, "bus.samples"),
         "bus width x samples x 8 B exceeds the " +
             std::to_string(kMaxTransitionBytes) +
             " B bound on one transition's waveforms");
  }
  return t;
}

// ---------------------------------------------------------------------------

DefectSpec parse_defect(const json::Value& v, const std::string& path,
                        const TopologySpec& topo) {
  if (!v.is_object()) fail(path, "expected an object");
  const std::string kind_path = sub(path, "kind");
  const std::string ks = as_string(req(v, path, "kind"), kind_path);

  DefectKind k;
  if (ks == "crosstalk") {
    k = DefectKind::Crosstalk;
  } else if (ks == "coupling") {
    k = DefectKind::Coupling;
  } else if (ks == "series_resistance") {
    k = DefectKind::SeriesResistance;
  } else if (ks == "random_crosstalk") {
    k = DefectKind::RandomCrosstalk;
  } else if (ks == "stuck") {
    k = DefectKind::Stuck;
  } else if (ks == "open") {
    k = DefectKind::Open;
  } else if (ks == "short") {
    k = DefectKind::Short;
  } else {
    fail(kind_path, "unknown defect kind \"" + ks + "\"");
  }

  const bool board_kind =
      k == DefectKind::Stuck || k == DefectKind::Open || k == DefectKind::Short;
  if (board_kind && topo.kind != TopologyKind::Board) {
    fail(kind_path, "\"" + ks + "\" requires topology kind \"board\"");
  }
  if (!board_kind && topo.kind == TopologyKind::Board) {
    fail(kind_path, "\"" + ks + "\" is not valid for a board topology");
  }

  DefectSpec d;
  d.kind = k;
  const bool multibus = topo.kind == TopologyKind::MultiBusSoc;
  const std::size_t width =
      multibus ? topo.wires_per_bus
               : (topo.kind == TopologyKind::Board ? topo.n_nets
                                                   : topo.n_wires);

  // Electrical kinds carry a bus index exactly when there is more than
  // one bus to name.
  auto parse_bus_index = [&]() {
    if (multibus) {
      d.bus = as_index_below(req(v, path, "bus"), sub(path, "bus"),
                             topo.n_buses);
    } else if (v.find("bus") != nullptr) {
      fail(sub(path, "bus"), "only valid for multibus_soc topology");
    }
  };

  switch (k) {
    case DefectKind::Crosstalk:
      check_keys(v, path, {"kind", "bus", "wire", "severity"});
      parse_bus_index();
      d.wire = as_index_below(req(v, path, "wire"), sub(path, "wire"), width);
      d.severity = as_double(req(v, path, "severity"), sub(path, "severity"));
      if (d.severity < 1.0) fail(sub(path, "severity"), "must be >= 1");
      break;
    case DefectKind::Coupling:
      check_keys(v, path, {"kind", "bus", "pair", "factor"});
      parse_bus_index();
      d.pair =
          as_index_below(req(v, path, "pair"), sub(path, "pair"), width - 1);
      d.factor = as_double(req(v, path, "factor"), sub(path, "factor"));
      if (d.factor <= 0.0) fail(sub(path, "factor"), "must be > 0");
      break;
    case DefectKind::SeriesResistance:
      check_keys(v, path, {"kind", "bus", "wire", "ohms"});
      parse_bus_index();
      d.wire = as_index_below(req(v, path, "wire"), sub(path, "wire"), width);
      d.ohms = as_double(req(v, path, "ohms"), sub(path, "ohms"));
      if (d.ohms < 0.0) fail(sub(path, "ohms"), "must be >= 0");
      break;
    case DefectKind::RandomCrosstalk:
      check_keys(v, path, {"kind", "count", "severity"});
      d.count = as_int_in(req(v, path, "count"), sub(path, "count"), 1,
                          kMaxRandomCount);
      d.severity = as_double(req(v, path, "severity"), sub(path, "severity"));
      if (d.severity < 1.0) fail(sub(path, "severity"), "must be >= 1");
      break;
    case DefectKind::Stuck:
      check_keys(v, path, {"kind", "net", "value"});
      d.net = as_index_below(req(v, path, "net"), sub(path, "net"), width);
      d.value = as_bool(req(v, path, "value"), sub(path, "value"));
      break;
    case DefectKind::Open:
      check_keys(v, path, {"kind", "net"});
      d.net = as_index_below(req(v, path, "net"), sub(path, "net"), width);
      break;
    case DefectKind::Short: {
      check_keys(v, path, {"kind", "nets", "wired_and"});
      const json::Value& nets = req(v, path, "nets");
      const std::string nets_path = sub(path, "nets");
      if (!nets.is_array()) fail(nets_path, "expected an array");
      if (nets.array.size() < 2) {
        fail(nets_path, "at least two nets are required");
      }
      for (std::size_t i = 0; i < nets.array.size(); ++i) {
        d.nets.push_back(
            as_index_below(nets.array[i], at(nets_path, i), width));
      }
      d.wired_and =
          as_bool(req(v, path, "wired_and"), sub(path, "wired_and"));
      break;
    }
  }
  return d;
}

std::vector<DefectSpec> parse_defect_list(const json::Value& v,
                                          const std::string& path,
                                          const TopologySpec& topo) {
  if (!v.is_array()) fail(path, "expected an array");
  std::vector<DefectSpec> out;
  out.reserve(v.array.size());
  for (std::size_t i = 0; i < v.array.size(); ++i) {
    out.push_back(parse_defect(v.array[i], at(path, i), topo));
  }
  return out;
}

// ---------------------------------------------------------------------------

SessionSpec parse_session(const json::Value& v, const std::string& path,
                          const TopologySpec& topo) {
  if (!v.is_object()) fail(path, "expected an object");
  check_keys(v, path, {"kind", "name", "method", "guard", "algorithm",
                       "defects"});
  const std::string kind_path = sub(path, "kind");
  const std::string ks = as_string(req(v, path, "kind"), kind_path);

  SessionSpec s;
  if (ks == "enhanced") {
    s.kind = SessionKind::Enhanced;
  } else if (ks == "conventional") {
    s.kind = SessionKind::Conventional;
  } else if (ks == "parallel") {
    s.kind = SessionKind::Parallel;
  } else if (ks == "multibus") {
    s.kind = SessionKind::MultiBus;
  } else if (ks == "bist") {
    s.kind = SessionKind::Bist;
  } else if (ks == "extest") {
    s.kind = SessionKind::Extest;
  } else {
    fail(kind_path, "unknown session kind \"" + ks + "\"");
  }

  const TopologyKind wanted = s.kind == SessionKind::MultiBus
                                  ? TopologyKind::MultiBusSoc
                                  : (s.kind == SessionKind::Extest
                                         ? TopologyKind::Board
                                         : TopologyKind::Soc);
  if (topo.kind != wanted) {
    fail(kind_path, "\"" + ks + "\" requires topology kind \"" +
                        topology_kind_name(wanted) + "\"");
  }

  if (const json::Value* x = v.find("name")) {
    s.name = as_string(*x, sub(path, "name"));
  }

  const bool has_method =
      s.kind != SessionKind::Bist && s.kind != SessionKind::Extest;
  if (const json::Value* x = v.find("method")) {
    if (!has_method) {
      fail(sub(path, "method"),
           std::string("not valid for ") + ks + " sessions");
    }
    const std::uint64_t m = as_uint(*x, sub(path, "method"));
    if (m < 1 || m > 3) fail(sub(path, "method"), "must be 1, 2 or 3");
    s.method = static_cast<int>(m);
  }
  if (s.kind == SessionKind::Parallel && s.method == 3) {
    fail(sub(path, "method"), "parallel sessions support methods 1 and 2");
  }

  if (const json::Value* x = v.find("guard")) {
    if (s.kind != SessionKind::Parallel) {
      fail(sub(path, "guard"), "only valid for parallel sessions");
    }
    s.guard = as_int_min(*x, sub(path, "guard"), 2);
  }

  if (const json::Value* x = v.find("algorithm")) {
    if (s.kind != SessionKind::Extest) {
      fail(sub(path, "algorithm"), "only valid for extest sessions");
    }
    const std::string a = as_string(*x, sub(path, "algorithm"));
    if (a == "walking_ones") {
      s.algorithm = ExtestAlgorithm::WalkingOnes;
    } else if (a == "counting_sequence") {
      s.algorithm = ExtestAlgorithm::CountingSequence;
    } else if (a == "true_complement_counting") {
      s.algorithm = ExtestAlgorithm::TrueComplementCounting;
    } else {
      fail(sub(path, "algorithm"), "unknown algorithm \"" + a + "\"");
    }
  }

  if (const json::Value* x = v.find("defects")) {
    s.defects = parse_defect_list(*x, sub(path, "defects"), topo);
  }
  return s;
}

// ---------------------------------------------------------------------------

SweepSpec parse_sweep(const json::Value& v, const TopologySpec& topo) {
  const std::string path = "sweep";
  if (!v.is_object()) fail(path, "expected an object");
  check_keys(v, path,
             {"samples", "nd_vhthr_frac", "sd_budget_ps", "variations",
              "defects", "spec_limits"});
  if (topo.kind != TopologyKind::Soc) {
    fail(path, "requires topology kind \"soc\"");
  }

  SweepSpec s;
  if (const json::Value* x = v.find("samples")) {
    s.samples = as_int_min(*x, sub(path, "samples"), 1);
  }
  if (const json::Value* x = v.find("nd_vhthr_frac")) {
    const std::string axis = sub(path, "nd_vhthr_frac");
    if (!x->is_array()) fail(axis, "expected an array");
    for (std::size_t i = 0; i < x->array.size(); ++i) {
      const double f = as_double(x->array[i], at(axis, i));
      // v_hmin_frac tracks 0.10 below v_hthr_frac and both must stay
      // inside (0, 1) as supply fractions.
      if (f <= 0.1 || f >= 1.0) {
        fail(at(axis, i), "must be a number in (0.1, 1)");
      }
      s.nd_vhthr_frac.push_back(f);
    }
  }
  if (const json::Value* x = v.find("sd_budget_ps")) {
    const std::string axis = sub(path, "sd_budget_ps");
    if (!x->is_array()) fail(axis, "expected an array");
    for (std::size_t i = 0; i < x->array.size(); ++i) {
      s.sd_budget_ps.push_back(
          static_cast<std::uint64_t>(as_int_min(x->array[i], at(axis, i), 1)));
    }
  }
  if (const json::Value* x = v.find("variations")) {
    const std::string vars = sub(path, "variations");
    if (!x->is_array()) fail(vars, "expected an array");
    for (std::size_t i = 0; i < x->array.size(); ++i) {
      const json::Value& e = x->array[i];
      const std::string vp = at(vars, i);
      if (!e.is_object()) fail(vp, "expected an object");
      check_keys(e, vp, {"param", "sigma"});
      VariationSpec var;
      var.param = as_string(req(e, vp, "param"), sub(vp, "param"));
      // The variable parameter set is the selected interconnect model's:
      // e.g. "swing_frac" is valid under low_swing and rejected (with
      // the same message) under rc_full_swing.
      const std::vector<std::string>& varset =
          si::model_for(topo.bus.model).variable_params();
      bool known = false;
      for (const std::string& name : varset) {
        if (var.param == name) {
          known = true;
          break;
        }
      }
      if (!known) {
        fail(sub(vp, "param"),
             "unknown bus parameter \"" + var.param + "\"");
      }
      var.sigma = as_double(req(e, vp, "sigma"), sub(vp, "sigma"));
      if (var.sigma < 0) fail(sub(vp, "sigma"), "must be >= 0");
      s.variations.push_back(std::move(var));
    }
  }
  if (const json::Value* x = v.find("defects")) {
    s.defects = parse_defect_list(*x, sub(path, "defects"), topo);
  }
  if (const json::Value* x = v.find("spec_limits")) {
    const std::string lp = sub(path, "spec_limits");
    if (!x->is_object()) fail(lp, "expected an object");
    check_keys(*x, lp, {"max_glitch_frac", "max_settle_ps"});
    ShippingLimits lim;
    if (const json::Value* y = x->find("max_glitch_frac")) {
      lim.max_glitch_frac = as_double(*y, sub(lp, "max_glitch_frac"));
      if (!(lim.max_glitch_frac > 0 && lim.max_glitch_frac <= 1)) {
        fail(sub(lp, "max_glitch_frac"), "must be a number in (0, 1]");
      }
    }
    if (const json::Value* y = x->find("max_settle_ps")) {
      lim.max_settle_ps = as_int_min(*y, sub(lp, "max_settle_ps"), 1);
    }
    s.spec_limits = lim;
  }
  const std::size_t points = std::max<std::size_t>(1, s.nd_vhthr_frac.size()) *
                             std::max<std::size_t>(1, s.sd_budget_ps.size());
  if (s.samples > kMaxSweepPopulation / points) {
    fail(sub(path, "samples"), "population (grid points x samples) must be "
                               "<= " + std::to_string(kMaxSweepPopulation));
  }
  return s;
}

CampaignSpec parse_campaign(const json::Value& v) {
  const std::string path = "campaign";
  if (!v.is_object()) fail(path, "expected an object");
  check_keys(v, path,
             {"shards", "seed", "keep_events", "strict_metrics",
              "warm_prototype"});
  CampaignSpec c;
  if (const json::Value* x = v.find("shards")) {
    c.shards = as_uint(*x, sub(path, "shards"));
    check_shards(c.shards);
  }
  if (const json::Value* x = v.find("seed")) {
    c.seed = as_uint(*x, sub(path, "seed"));
  }
  if (const json::Value* x = v.find("keep_events")) {
    c.keep_events = as_bool(*x, sub(path, "keep_events"));
  }
  if (const json::Value* x = v.find("strict_metrics")) {
    c.strict_metrics = as_bool(*x, sub(path, "strict_metrics"));
  }
  if (const json::Value* x = v.find("warm_prototype")) {
    c.warm_prototype = as_bool(*x, sub(path, "warm_prototype"));
  }
  return c;
}

TelemetrySpec parse_telemetry(const json::Value& v) {
  const std::string path = "telemetry";
  if (!v.is_object()) fail(path, "expected an object");
  check_keys(v, path, {"enabled", "interval_ms", "path"});
  TelemetrySpec t;
  if (const json::Value* x = v.find("enabled")) {
    t.enabled = as_bool(*x, sub(path, "enabled"));
  }
  if (const json::Value* x = v.find("interval_ms")) {
    t.interval_ms = as_int_min(*x, sub(path, "interval_ms"), 1);
  }
  if (const json::Value* x = v.find("path")) {
    t.path = as_string(*x, sub(path, "path"));
  }
  return t;
}

ObsSpec parse_obs(const json::Value& v) {
  const std::string path = "obs";
  if (!v.is_object()) fail(path, "expected an object");
  check_keys(v, path,
             {"trace_capacity", "tap_edges", "cache_lookups",
              "tck_period_ps"});
  ObsSpec o;
  if (const json::Value* x = v.find("trace_capacity")) {
    o.trace_capacity =
        as_int_in(*x, sub(path, "trace_capacity"), 1, kMaxTraceCapacity);
  }
  if (const json::Value* x = v.find("tap_edges")) {
    o.tap_edges = as_bool(*x, sub(path, "tap_edges"));
  }
  if (const json::Value* x = v.find("cache_lookups")) {
    o.cache_lookups = as_bool(*x, sub(path, "cache_lookups"));
  }
  if (const json::Value* x = v.find("tck_period_ps")) {
    o.tck_period_ps = as_int_min(*x, sub(path, "tck_period_ps"), 1);
  }
  return o;
}

}  // namespace

void check_shards(std::uint64_t shards) {
  if (shards > kMaxShards) {
    fail("campaign.shards", "must be <= " + std::to_string(kMaxShards));
  }
}

ScenarioSpec parse_scenario(std::string_view text) {
  std::string err;
  std::optional<json::Value> doc = json::parse(text, &err);
  if (!doc) throw SpecError("json", err);
  const json::Value& v = *doc;
  if (!v.is_object()) fail("scenario", "expected a JSON object");
  check_keys(v, "",
             {"name", "description", "topology", "defects", "sessions",
              "sweep", "campaign", "obs", "telemetry"});

  ScenarioSpec s;
  s.name = as_string(req(v, "", "name"), "name");
  if (s.name.empty()) fail("name", "must not be empty");
  if (const json::Value* x = v.find("description")) {
    s.description = as_string(*x, "description");
  }

  s.topology = parse_topology(req(v, "", "topology"));

  if (const json::Value* x = v.find("defects")) {
    s.defects = parse_defect_list(*x, "defects", s.topology);
  }

  const json::Value& sessions = req(v, "", "sessions");
  if (!sessions.is_array()) fail("sessions", "expected an array");
  if (sessions.array.empty()) {
    fail("sessions", "at least one session is required");
  }
  for (std::size_t i = 0; i < sessions.array.size(); ++i) {
    s.sessions.push_back(
        parse_session(sessions.array[i], at("sessions", i), s.topology));
  }
  // Explicit names must be unique: they become campaign unit names, and
  // the merged report addresses units by them.
  for (std::size_t i = 0; i < s.sessions.size(); ++i) {
    if (s.sessions[i].name.empty()) continue;
    for (std::size_t j = i + 1; j < s.sessions.size(); ++j) {
      if (s.sessions[j].name == s.sessions[i].name) {
        fail(sub(at("sessions", j), "name"),
             "duplicate session name \"" + s.sessions[i].name + "\"");
      }
    }
  }

  if (const json::Value* x = v.find("sweep")) {
    s.sweep = parse_sweep(*x, s.topology);
    // The sweep expands ONE session template into its sampled units; a
    // list would make the expansion order ambiguous.
    if (s.sessions.size() != 1) {
      fail("sweep", "requires exactly one session template");
    }
  }

  if (const json::Value* x = v.find("campaign")) {
    s.campaign = parse_campaign(*x);
  }
  if (const json::Value* x = v.find("obs")) {
    s.obs = parse_obs(*x);
  }
  if (const json::Value* x = v.find("telemetry")) {
    s.telemetry = parse_telemetry(*x);
  }
  return s;
}

ScenarioSpec load_scenario(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SpecError("file", "cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_scenario(ss.str());
}

}  // namespace jsi::scenario
