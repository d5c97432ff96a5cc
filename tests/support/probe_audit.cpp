// Linked into every test binary (see jsi_add_test): installs a
// si::ProbeAudit for the binary's whole run, so each answer a WireProbe
// proves — an ND or SD verdict, a crossing, an excursion, a store
// entry's final sample — is also rendered and scanned in full, and any
// disagreement fails the test that asked for it. At exit the binary
// prints how many answers were proved and how many fell back to a
// render, and fails if any proved answer was wrong.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "si/probe.hpp"

namespace {

jsi::si::ProbeAudit g_audit;

void on_disagreement(const char* what, const jsi::si::WireRecipe& r) {
  ADD_FAILURE() << "probe audit: a proved " << what
                << " answer disagrees with the full scan of the rendered "
                   "waveform (levels "
                << r.prev_level << "->" << r.next_level << ", v0 " << r.v0
                << ", vf " << r.vf << ", tau " << r.tau << ", c_tot "
                << r.c_tot << ", l_wire " << r.l_wire << ", aggressor taus "
                << r.aggressors[0].tau << " " << r.aggressors[1].tau << ")";
}

class ProbeAuditReport final : public ::testing::Environment {
 public:
  void TearDown() override {
    const auto count = [](const std::atomic<std::uint64_t>& c) {
      return static_cast<unsigned long long>(c.load());
    };
    std::printf(
        "probe audit: %llu answers proved, %llu fell back to a render, "
        "%llu disagreements\n",
        count(g_audit.certified), count(g_audit.fallbacks),
        count(g_audit.disagreements));
    EXPECT_EQ(g_audit.disagreements.load(), 0u);
  }
};

const bool g_installed = [] {
  g_audit.on_disagreement = &on_disagreement;
  jsi::si::install_probe_audit(&g_audit);
  ::testing::AddGlobalTestEnvironment(new ProbeAuditReport);
  return true;
}();

}  // namespace
