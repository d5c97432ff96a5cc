#include "core/session.hpp"

#include <stdexcept>
#include <string>

namespace jsi::core {

namespace {

/// Throws unless `soc` has one bus: `who` plans a single bus.
void require_one_bus(const SiSocDevice& soc, const char* who) {
  if (soc.config().n_buses != 1) {
    throw std::invalid_argument(std::string(who) +
                                " needs a one-bus device; MultiBusSession "
                                "tests " +
                                std::to_string(soc.config().n_buses) +
                                " buses at once");
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// PlanSession
// ---------------------------------------------------------------------------

PlanSession::PlanSession(SiSocDevice& soc, jtag::TapPort& port)
    : soc_(&soc), master_(port) {}

void PlanSession::set_sink(obs::Sink* sink) {
  sink_ = sink;
  master_.set_sink(sink);
  soc_->set_sink(sink);
}

EngineResult PlanSession::execute(const TestPlan& plan, const char* kind) {
  TestPlanEngine engine(master_, soc_);
  engine.set_sink(sink_);
  obs::emit_span(sink_, obs::EventKind::SessionBegin, kind, master_.tck());
  EngineResult res = engine.execute(plan);
  obs::emit_span(sink_, obs::EventKind::SessionEnd, kind, master_.tck(),
                 res.total_tcks);
  return res;
}

IntegrityReport PlanSession::execute_one(const TestPlan& plan,
                                         const char* kind) {
  EngineResult res = execute(plan, kind);
  IntegrityReport r = std::move(res.reports.front());
  r.total_tcks = res.total_tcks;
  r.generation_tcks = res.generation_tcks;
  r.observation_tcks = res.observation_tcks;
  return r;
}

// ---------------------------------------------------------------------------
// SiTestSession
// ---------------------------------------------------------------------------

SiTestSession::SiTestSession(SiSocDevice& soc)
    : SiTestSession(soc, soc.tap()) {}

SiTestSession::SiTestSession(SiSocDevice& soc, jtag::TapPort& port)
    : PlanSession(soc, port) {
  if (!soc.config().enhanced) {
    throw std::invalid_argument(
        "SiTestSession needs the enhanced (PGBSC/OBSC) architecture");
  }
  require_one_bus(soc, "SiTestSession");
}

TestPlan SiTestSession::plan(ObservationMethod method) const {
  const SocConfig& cfg = soc_->config();
  return plan_enhanced_session(cfg.n_wires, cfg.m_extra_cells, cfg.ir_width,
                               method);
}

TestPlan SiTestSession::plan_parallel(ObservationMethod method,
                                      std::size_t guard) const {
  const SocConfig& cfg = soc_->config();
  return plan_parallel_victims(cfg.n_wires, cfg.m_extra_cells, cfg.ir_width,
                               method, guard);
}

IntegrityReport SiTestSession::run(ObservationMethod method) {
  return execute_one(plan(method), "enhanced");
}

IntegrityReport SiTestSession::run_parallel(ObservationMethod method,
                                            std::size_t guard) {
  return execute_one(plan_parallel(method, guard), "parallel");
}

// ---------------------------------------------------------------------------
// ConventionalSession
// ---------------------------------------------------------------------------

ConventionalSession::ConventionalSession(SiSocDevice& soc)
    : PlanSession(soc, soc.tap()) {
  if (soc.config().enhanced) {
    throw std::invalid_argument(
        "ConventionalSession expects SocConfig::enhanced == false");
  }
  require_one_bus(soc, "ConventionalSession");
}

TestPlan ConventionalSession::plan(ObservationMethod method) const {
  const SocConfig& cfg = soc_->config();
  return plan_conventional_session(cfg.n_wires, cfg.m_extra_cells,
                                   cfg.ir_width, method);
}

IntegrityReport ConventionalSession::run(ObservationMethod method) {
  return execute_one(plan(method), "conventional");
}

// ---------------------------------------------------------------------------
// MultiBusSession
// ---------------------------------------------------------------------------

bool MultiBusReport::any_violation() const {
  for (const auto& b : buses) {
    if (b.any_violation()) return true;
  }
  return false;
}

MultiBusSession::MultiBusSession(SiSocDevice& soc)
    : PlanSession(soc, soc.tap()) {
  if (!soc.config().enhanced) {
    throw std::invalid_argument(
        "MultiBusSession needs the enhanced (PGBSC/OBSC) architecture");
  }
}

TestPlan MultiBusSession::plan(ObservationMethod method) const {
  const SocConfig& cfg = soc_->config();
  return plan_multibus_session(cfg.n_buses, cfg.n_wires, cfg.m_extra_cells,
                               cfg.ir_width, method);
}

MultiBusReport MultiBusSession::run(ObservationMethod method) {
  EngineResult res = execute(plan(method), "multibus");
  MultiBusReport r;
  r.buses = std::move(res.reports);
  r.total_tcks = res.total_tcks;
  r.generation_tcks = res.generation_tcks;
  r.observation_tcks = res.observation_tcks;
  return r;
}

}  // namespace jsi::core
