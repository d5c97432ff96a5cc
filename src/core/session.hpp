#ifndef JSI_CORE_SESSION_HPP
#define JSI_CORE_SESSION_HPP

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/plan.hpp"
#include "core/report.hpp"
#include "core/soc.hpp"
#include "jtag/master.hpp"

namespace jsi::core {

/// What the session kinds share: the device under test, the TCK-counting
/// master that drives it and the sink both report to. Each session is a
/// thin *planner*: it emits its op sequence as a core::TestPlan and
/// `execute`s it on the shared TestPlanEngine. Every TCK is issued
/// through the master, so the reports' clock counts are measured, not
/// modeled.
class PlanSession {
 public:
  /// The TCK-counting master (exposed for tests).
  jtag::TapMaster& master() { return master_; }

  /// Attach an observability sink to the whole session: the TAP master
  /// (StateEdge per TCK), the SoC model (bus/detector records), the
  /// engine (plan/op spans), and the session itself (SessionBegin/End,
  /// named after the session kind). nullptr detaches everything.
  void set_sink(obs::Sink* sink);

 protected:
  PlanSession(SiSocDevice& soc, jtag::TapPort& port);

  /// Runs `plan` on the device, bracketed by a session span named `kind`.
  EngineResult execute(const TestPlan& plan, const char* kind);

  /// Runs a one-bus plan and packages its report with the TCK split.
  IntegrityReport execute_one(const TestPlan& plan, const char* kind);

  SiSocDevice* soc_;

 private:
  jtag::TapMaster master_;
  obs::Sink* sink_ = nullptr;
};

/// The enhanced-architecture test session (paper Fig 12):
///
///   for k in {0, 1}:
///     load SAMPLE/PRELOAD, scan initial value k into the chain   (FF2 <- k,
///                                                                 FF3 re-armed)
///     load G-SITEST                              (pins take the initial value)
///     scan the victim-select one-hot             (its Update-DR fires the
///                                                 first pattern)
///     for each victim: three bare Update-DR passes, then a one-bit
///       victim-rotate scan (whose Update-DR fires the next victim's first
///       pattern)
///   load O-SITEST and read the ND then SD flags out      (method-dependent:
///       once, per block, or after every pattern with a G-SITEST resume)
///
/// Needs a one-bus device with the enhanced cells (std::invalid_argument
/// otherwise); MultiBusSession tests several buses at once.
class SiTestSession : public PlanSession {
 public:
  explicit SiTestSession(SiSocDevice& soc);

  /// Drive through an interposed port (e.g. a jtag::ProtocolMonitor
  /// wrapping `soc.tap()`), so a session can be protocol-checked or
  /// traced. `port` must forward to the same device.
  SiTestSession(SiSocDevice& soc, jtag::TapPort& port);

  /// Run the full session and return the report (session name
  /// "enhanced"). Resets the TAP first, so back-to-back runs are
  /// independent.
  IntegrityReport run(ObservationMethod method);

  /// Parallel multi-victim extension (session name "parallel"): victims
  /// spaced `guard` wires apart are selected together (the PGBSC
  /// victim-select word is multi-hot), cutting the Update-DR count per
  /// block from 4n+1 to 4*guard+1. Valid under nearest-neighbour-dominated
  /// coupling — every victim's adjacent wires are still proper aggressors
  /// (see mafm::parallel_victim_rounds). Supports observation methods 1
  /// and 2; per-pattern read-out remains a single-victim feature.
  /// Recorded patterns carry victim == n (use
  /// mafm::classify_neighborhood on before/after for per-victim
  /// analysis).
  IntegrityReport run_parallel(ObservationMethod method, std::size_t guard);

  /// The plan `run(method)` executes (dry-run it with core::dry_run_cost
  /// for the exact TCK budget without touching the simulator).
  TestPlan plan(ObservationMethod method) const;

  /// The plan `run_parallel(method, guard)` executes.
  TestPlan plan_parallel(ObservationMethod method, std::size_t guard) const;
};

/// The conventional-BSA baseline (paper §3.1 / Table 5): every one of the
/// 12 MA vectors per victim is scanned through the full chain and applied
/// with Update-DR. Works on a one-bus SoC built with `SocConfig::enhanced
/// == false` (standard cells on the sending side; std::invalid_argument
/// otherwise). Observation uses the same O-SITEST read-out so only the
/// pattern-application cost differs.
class ConventionalSession : public PlanSession {
 public:
  explicit ConventionalSession(SiSocDevice& soc);

  /// Session name "conventional".
  IntegrityReport run(ObservationMethod method);

  /// The plan `run(method)` executes.
  TestPlan plan(ObservationMethod method) const;
};

/// Per-bus outcome of a parallel multi-bus session.
struct MultiBusReport {
  std::vector<IntegrityReport> buses;  ///< per-bus patterns/flags
  std::uint64_t total_tcks = 0;
  std::uint64_t generation_tcks = 0;
  std::uint64_t observation_tcks = 0;

  bool any_violation() const;
};

/// Drives the paper's Fig 12 flow over all buses of a device at once: one
/// preload, one G-SITEST, one victim-select scan placing a hot bit in
/// every bus's PGBSC block, then the shared 3-updates-plus-rotate loop.
/// Pattern application cost is that of a *single* bus; only the scans
/// grow with the chain. Read-out is a single O-SITEST pass pair covering
/// every OBSC (core::plan_multibus_session; methods 1 and 2). Needs the
/// enhanced cells (std::invalid_argument otherwise).
class MultiBusSession : public PlanSession {
 public:
  explicit MultiBusSession(SiSocDevice& soc);

  /// Session name "multibus".
  MultiBusReport run(ObservationMethod method);

  /// The plan `run(method)` executes.
  TestPlan plan(ObservationMethod method) const;
};

}  // namespace jsi::core

#endif  // JSI_CORE_SESSION_HPP
