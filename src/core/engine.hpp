#ifndef JSI_CORE_ENGINE_HPP
#define JSI_CORE_ENGINE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "core/report.hpp"
#include "jtag/master.hpp"
#include "obs/events.hpp"
#include "util/bitvec.hpp"

namespace jsi::core {

class SiSocDevice;

/// Everything a plan execution produced: one IntegrityReport per bus
/// (patterns, read-outs, final flags), the scan-outs of capture-flagged
/// ops, and the measured TCK accounting.
struct EngineResult {
  std::vector<IntegrityReport> reports;
  std::vector<util::BitVec> captures;
  std::uint64_t total_tcks = 0;
  std::uint64_t generation_tcks = 0;
  std::uint64_t observation_tcks = 0;
};

/// Executes a TestPlan against any jtag::TapPort through a TapMaster —
/// the single implementation of the paper's Fig 12 drive loop that the
/// session planners share. Every TCK is issued through the master, so the
/// result's clock counts are measured, not modeled (and are asserted
/// equal to `dry_run_cost` in tests).
class TestPlanEngine {
 public:
  /// An engine over `soc`, which must be the device behind `master`'s
  /// port: LoadIr ops resolve opcodes on its TAP, recorded ops snapshot
  /// its driven pins, and the reports end with its sensor flags. With
  /// no device only Reset/ScanIr/ScanDr/UpdateDr ops without `record`
  /// annotations are executable (the board EXTEST flow).
  explicit TestPlanEngine(jtag::TapMaster& master, SiSocDevice* soc = nullptr)
      : master_(&master), soc_(soc) {}

  EngineResult execute(const TestPlan& plan);

  /// Attach an observability sink; an execution then reports
  /// PlanBegin/PlanEnd bracketing the run (PlanEnd carries the measured
  /// total/generation/observation TCKs, so a metrics sink can cross-check
  /// its own phase accounting against the engine's) and TapOpBegin/
  /// TapOpEnd around every op (Begin flags Readout spans as observation;
  /// End carries the op's measured TCK delta). nullptr disables.
  void set_sink(obs::Sink* sink) { sink_ = sink; }

 private:
  void load_instruction(const TestPlan& plan, const char* name);
  void record_patterns(const TestPlan& plan, EngineResult& r,
                       const std::vector<util::BitVec>& before,
                       const TapOp& op) const;
  void run_readout(const TestPlan& plan, EngineResult& r, const TapOp& op);
  SiSocDevice& device(const char* what) const;
  void emit(obs::EventKind kind, const char* name, std::int64_t a,
            std::int64_t b, std::uint64_t value) const;

  jtag::TapMaster* master_;
  SiSocDevice* soc_;
  obs::Sink* sink_ = nullptr;
};

}  // namespace jsi::core

#endif  // JSI_CORE_ENGINE_HPP
