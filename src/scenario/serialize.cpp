#include "scenario/serialize.hpp"

#include "si/model.hpp"

namespace jsi::scenario {

namespace {

namespace json = jsi::util::json;

json::Value num(double v) { return json::Value::make_number(v); }
json::Value num(std::uint64_t v) {
  return json::Value::make_number(static_cast<double>(v));
}
json::Value str(const std::string& s) { return json::Value::make_string(s); }
json::Value boolean(bool b) { return json::Value::make_bool(b); }

json::Value bus_json(const si::BusParams& p) {
  json::Value v = json::Value::make_object();
  // "model" leads and is omitted for the default kind, so every
  // pre-existing scenario file stays byte-exact under the canonical
  // round-trip (and its spec fingerprint is unchanged); a non-default
  // model — and only then, its own parameters — is always emitted, which
  // is what lets the checkpoint fingerprint discriminate model changes.
  if (p.model != si::ModelKind::RcFullSwing) {
    v.add("model", str(si::model_kind_name(p.model)));
  }
  v.add("vdd", num(p.vdd));
  v.add("r_driver", num(p.r_driver));
  v.add("r_wire", num(p.r_wire));
  v.add("c_ground", num(p.c_ground));
  v.add("c_couple", num(p.c_couple));
  v.add("l_wire", num(p.l_wire));
  v.add("sample_dt_ps", num(static_cast<std::uint64_t>(p.sample_dt)));
  v.add("samples", num(p.samples));
  if (p.model == si::ModelKind::LowSwing) {
    v.add("swing_frac", num(p.swing_frac));
    v.add("receiver_vt_frac", num(p.receiver_vt_frac));
  }
  return v;
}

json::Value topology_json(const TopologySpec& t) {
  json::Value v = json::Value::make_object();
  v.add("kind", str(topology_kind_name(t.kind)));
  switch (t.kind) {
    case TopologyKind::Soc:
      v.add("n_wires", num(t.n_wires));
      break;
    case TopologyKind::MultiBusSoc:
      v.add("n_buses", num(t.n_buses));
      v.add("wires_per_bus", num(t.wires_per_bus));
      break;
    case TopologyKind::Board:
      v.add("n_nets", num(t.n_nets));
      v.add("float_value", boolean(t.float_value));
      return v;
  }
  v.add("m_extra_cells", num(t.m_extra_cells));
  v.add("ir_width", num(t.ir_width));
  v.add("idcode", num(static_cast<std::uint64_t>(t.idcode)));
  v.add("bus", bus_json(t.bus));
  return v;
}

json::Value defect_json(const DefectSpec& d, const TopologySpec& topo) {
  json::Value v = json::Value::make_object();
  v.add("kind", str(defect_kind_name(d.kind)));
  const bool multibus = topo.kind == TopologyKind::MultiBusSoc;
  switch (d.kind) {
    case DefectKind::Crosstalk:
      if (multibus) v.add("bus", num(d.bus));
      v.add("wire", num(d.wire));
      v.add("severity", num(d.severity));
      break;
    case DefectKind::Coupling:
      if (multibus) v.add("bus", num(d.bus));
      v.add("pair", num(d.pair));
      v.add("factor", num(d.factor));
      break;
    case DefectKind::SeriesResistance:
      if (multibus) v.add("bus", num(d.bus));
      v.add("wire", num(d.wire));
      v.add("ohms", num(d.ohms));
      break;
    case DefectKind::RandomCrosstalk:
      v.add("count", num(d.count));
      v.add("severity", num(d.severity));
      break;
    case DefectKind::Stuck:
      v.add("net", num(d.net));
      v.add("value", boolean(d.value));
      break;
    case DefectKind::Open:
      v.add("net", num(d.net));
      break;
    case DefectKind::Short: {
      json::Value nets = json::Value::make_array();
      for (std::size_t n : d.nets) nets.push(num(n));
      v.add("nets", std::move(nets));
      v.add("wired_and", boolean(d.wired_and));
      break;
    }
  }
  return v;
}

json::Value defect_list_json(const std::vector<DefectSpec>& defects,
                             const TopologySpec& topo) {
  json::Value v = json::Value::make_array();
  for (const DefectSpec& d : defects) v.push(defect_json(d, topo));
  return v;
}

json::Value session_json(const SessionSpec& s, const TopologySpec& topo) {
  json::Value v = json::Value::make_object();
  v.add("kind", str(session_kind_name(s.kind)));
  if (!s.name.empty()) v.add("name", str(s.name));
  if (s.kind != SessionKind::Bist && s.kind != SessionKind::Extest) {
    v.add("method", num(static_cast<std::size_t>(s.method)));
  }
  if (s.kind == SessionKind::Parallel) v.add("guard", num(s.guard));
  if (s.kind == SessionKind::Extest) {
    v.add("algorithm", str(extest_algorithm_name(s.algorithm)));
  }
  if (!s.defects.empty()) {
    v.add("defects", defect_list_json(s.defects, topo));
  }
  return v;
}

json::Value sweep_json(const SweepSpec& s, const TopologySpec& topo) {
  json::Value v = json::Value::make_object();
  v.add("samples", num(s.samples));
  if (!s.nd_vhthr_frac.empty()) {
    json::Value axis = json::Value::make_array();
    for (const double f : s.nd_vhthr_frac) axis.push(num(f));
    v.add("nd_vhthr_frac", std::move(axis));
  }
  if (!s.sd_budget_ps.empty()) {
    json::Value axis = json::Value::make_array();
    for (const std::uint64_t ps : s.sd_budget_ps) axis.push(num(ps));
    v.add("sd_budget_ps", std::move(axis));
  }
  if (!s.variations.empty()) {
    json::Value vars = json::Value::make_array();
    for (const VariationSpec& var : s.variations) {
      json::Value e = json::Value::make_object();
      e.add("param", str(var.param));
      e.add("sigma", num(var.sigma));
      vars.push(std::move(e));
    }
    v.add("variations", std::move(vars));
  }
  if (!s.defects.empty()) {
    v.add("defects", defect_list_json(s.defects, topo));
  }
  if (s.spec_limits) {
    json::Value lim = json::Value::make_object();
    lim.add("max_glitch_frac", num(s.spec_limits->max_glitch_frac));
    lim.add("max_settle_ps", num(s.spec_limits->max_settle_ps));
    v.add("spec_limits", std::move(lim));
  }
  return v;
}

json::Value campaign_json(const CampaignSpec& c) {
  json::Value v = json::Value::make_object();
  v.add("shards", num(c.shards));
  v.add("seed", num(c.seed));
  v.add("keep_events", boolean(c.keep_events));
  v.add("strict_metrics", boolean(c.strict_metrics));
  v.add("warm_prototype", boolean(c.warm_prototype));
  return v;
}

json::Value telemetry_json(const TelemetrySpec& t) {
  json::Value v = json::Value::make_object();
  v.add("enabled", boolean(t.enabled));
  v.add("interval_ms", num(t.interval_ms));
  v.add("path", str(t.path));
  return v;
}

json::Value obs_json(const ObsSpec& o) {
  json::Value v = json::Value::make_object();
  v.add("trace_capacity", num(o.trace_capacity));
  v.add("tap_edges", boolean(o.tap_edges));
  v.add("cache_lookups", boolean(o.cache_lookups));
  v.add("tck_period_ps", num(o.tck_period_ps));
  return v;
}

}  // namespace

util::json::Value to_json(const ScenarioSpec& spec) {
  json::Value v = json::Value::make_object();
  v.add("name", str(spec.name));
  v.add("description", str(spec.description));
  v.add("topology", topology_json(spec.topology));
  if (!spec.defects.empty()) {
    v.add("defects", defect_list_json(spec.defects, spec.topology));
  }
  json::Value sessions = json::Value::make_array();
  for (const SessionSpec& s : spec.sessions) {
    sessions.push(session_json(s, spec.topology));
  }
  v.add("sessions", std::move(sessions));
  if (spec.sweep) {
    v.add("sweep", sweep_json(*spec.sweep, spec.topology));
  }
  v.add("campaign", campaign_json(spec.campaign));
  v.add("obs", obs_json(spec.obs));
  // Emitted only when set: keeps the pre-telemetry shipped files
  // canonical (file bytes == serialize(parse(file))) while still making
  // an explicit telemetry section round-trip.
  if (!spec.telemetry.is_default()) {
    v.add("telemetry", telemetry_json(spec.telemetry));
  }
  return v;
}

std::string serialize(const ScenarioSpec& spec) {
  return util::json::to_text(to_json(spec), 2);
}

}  // namespace jsi::scenario
