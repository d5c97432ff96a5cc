// Cross-feature integration: the extensions must compose — monitored
// BIST, exported multi-bus results, parallel victims under defect fuzz,
// BSDL consistency with the live device.

#include <gtest/gtest.h>

#include "core/bist.hpp"
#include "core/bsdl.hpp"
#include "core/export.hpp"
#include "core/session.hpp"
#include "jtag/monitor.hpp"
#include "util/prng.hpp"

namespace jsi {
namespace {

TEST(CrossFeature, BistThroughProtocolMonitorIsClean) {
  core::SocConfig cfg;
  cfg.n_wires = 6;
  core::SiSocDevice soc(cfg);
  soc.bus().inject_crosstalk_defect(3, 6.0);
  jtag::ProtocolMonitor mon(soc.tap());
  const auto program = core::BistProgram::compile(cfg);
  for (const auto& s : program.steps()) mon.tick(s.tms, s.tdi);
  EXPECT_TRUE(mon.clean());
  EXPECT_TRUE(soc.nd_flags()[3]);
}

TEST(CrossFeature, ParallelVictimsUnderRandomDefects) {
  // Fuzz: parallel flow must flag every strongly defective wire that the
  // full flow flags (no coverage loss from multi-hot selection).
  util::Prng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 6 + rng.next_below(6);
    const std::size_t wire = rng.next_below(n);
    const bool noise_defect = rng.next_bool();

    auto make = [&]() {
      core::SocConfig cfg;
      cfg.n_wires = n;
      auto soc = std::make_unique<core::SiSocDevice>(cfg);
      if (noise_defect) {
        soc->bus().inject_crosstalk_defect(wire, 7.0);
      } else {
        soc->bus().add_series_resistance(wire, 1000.0);
      }
      return soc;
    };

    auto full_soc = make();
    core::SiTestSession full(*full_soc);
    const auto fr = full.run(core::ObservationMethod::OnceAtEnd);

    auto par_soc = make();
    core::SiTestSession par(*par_soc);
    const auto pr =
        par.run_parallel(core::ObservationMethod::OnceAtEnd, 2);

    for (std::size_t w = 0; w < n; ++w) {
      EXPECT_EQ(pr.nd_final[w], fr.nd_final[w])
          << "trial " << trial << " wire " << w;
      EXPECT_EQ(pr.sd_final[w], fr.sd_final[w])
          << "trial " << trial << " wire " << w;
    }
  }
}

TEST(CrossFeature, MultiBusReportsExportToJson) {
  core::SocConfig cfg;
  cfg.n_buses = 2;
  cfg.n_wires = 5;
  core::SiSocDevice soc(cfg);
  soc.bus(1).inject_crosstalk_defect(2, 6.0);
  core::MultiBusSession session(soc);
  const auto r = session.run(core::ObservationMethod::OnceAtEnd);
  const std::string j0 = core::report_to_json(r.buses[0]);
  const std::string j1 = core::report_to_json(r.buses[1]);
  EXPECT_NE(j0.find("\"pass\": true"), std::string::npos);
  EXPECT_NE(j1.find("\"pass\": false"), std::string::npos);
}

TEST(CrossFeature, BsdlOpcodesDriveTheRealDevice) {
  // Every instruction in the emitted BSDL must load on the live TAP and
  // select a register (spot-check via chain behaviour).
  core::SocConfig cfg;
  cfg.n_wires = 4;
  core::SiSocDevice soc(cfg);
  const auto desc = core::bsdl_for(soc);
  jtag::TapMaster master(soc.tap());
  master.reset_to_idle();
  for (const auto& inst : desc.instructions) {
    master.scan_ir(util::BitVec::from_u64(inst.opcode, desc.ir_length));
    EXPECT_NE(soc.tap().current_instruction(), "");  // decoded to something
    // A 1-bit DR scan must always be legal.
    master.scan_dr(util::BitVec(1, false));
  }
}

TEST(CrossFeature, ConventionalAndEnhancedAgreeUnderFuzz) {
  // Both architectures must reach the same wire-level verdicts for a
  // population of strong random defects.
  util::Prng rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 5 + rng.next_below(4);
    const std::size_t wire = rng.next_below(n);

    core::SocConfig e_cfg;
    e_cfg.n_wires = n;
    core::SiSocDevice e_soc(e_cfg);
    e_soc.bus().inject_crosstalk_defect(wire, 7.5);
    core::SiTestSession e_session(e_soc);
    const auto er = e_session.run(core::ObservationMethod::OnceAtEnd);

    core::SocConfig c_cfg;
    c_cfg.n_wires = n;
    c_cfg.enhanced = false;
    core::SiSocDevice c_soc(c_cfg);
    c_soc.bus().inject_crosstalk_defect(wire, 7.5);
    core::ConventionalSession c_session(c_soc);
    const auto cr = c_session.run(core::ObservationMethod::OnceAtEnd);

    EXPECT_TRUE(er.nd_final[wire]) << "trial " << trial;
    EXPECT_TRUE(cr.nd_final[wire]) << "trial " << trial;
  }
}

}  // namespace
}  // namespace jsi
