#ifndef JSI_E2E_GATE_HPP
#define JSI_E2E_GATE_HPP

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "core/campaign.hpp"
#include "scenario/spec.hpp"

// The correctness gate. Two references exist in the repo and both are
// enforced on every run:
//
//  * TCK counts: core::dry_run_cost walks a session's plan in closed form.
//    Every simulated session must consume exactly that many TCKs, so the
//    simulator's clock error is 0.
//  * Artifacts: report.txt / yield.json digests and the simulated counts
//    are pinned for kPinnedSeed; for any seed the untraced and traced
//    runs must agree byte for byte.
//
// The electrical model itself (waveforms, ND/SD verdicts) has no
// independent reference in the repo; the pins only catch changes to it.

namespace jsi::e2e {

/// Fail `out` unless `result` finished with no failed unit and every
/// session's TCKs equal the closed-form plan cost.
void check_tcks(const scenario::ScenarioSpec& spec,
                const core::CampaignResult& result, const std::string& label,
                RunResult& out);

/// Digests and simulated counts pinned for kPinnedSeed at full size.
struct Pin {
  const char* workload;
  const char* report_digest;
  const char* yield_digest;  ///< "" when the workload writes no yield.json
  std::uint64_t units;
  std::uint64_t violations;
  std::uint64_t total_tcks;
};

/// The pin of `workload`, or nullptr when none is recorded.
const Pin* find_pin(const std::string& workload);

/// Print a Pin initializer for the given values (the --print-pins mode).
void print_pin(const std::string& workload, const std::string& report_digest,
               const std::string& yield_digest, std::uint64_t units,
               std::uint64_t violations, std::uint64_t total_tcks);

/// Fail `out` when a pin exists for (workload, seed, size) and differs.
void check_pin(const Options& opt, const std::string& report_digest,
               const std::string& yield_digest, std::uint64_t units,
               std::uint64_t violations, std::uint64_t total_tcks,
               RunResult& out);

}  // namespace jsi::e2e

#endif  // JSI_E2E_GATE_HPP
