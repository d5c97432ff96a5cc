// Equivalence tests: the structural gate-level netlists of the three
// boundary-scan cells must match the behavioural models operation for
// operation. The netlists are clocked through the event-driven NetlistSim;
// the behavioural cells execute the same capture/shift/update sequence.
//
// One modeling note: the PGBSC netlist (like the paper's Fig 6) has no GEN
// input — holding the pattern state during O-SITEST is the TAP
// controller's job (it simply does not deliver Update-DR to the PGBSC
// column under that instruction), so the O-SITEST hold case is exercised
// by *not* pulsing update_dr.

#include <gtest/gtest.h>

#include "bsc/netlists.hpp"
#include "bsc/obsc.hpp"
#include "bsc/pgbsc.hpp"
#include "bsc/standard.hpp"
#include "rtl/netlist_sim.hpp"
#include "util/prng.hpp"

namespace jsi::bsc {
namespace {

using jtag::CellCtl;
using util::Logic;

/// Drives one cell netlist with named-pin pulses.
class NetHarness {
 public:
  explicit NetHarness(rtl::Netlist nl) : nl_(std::move(nl)), sim_(sched_, nl_) {}

  void set(const std::string& pin, bool v) {
    sim_.set_input(pin, util::to_logic(v));
    sim_.settle();
  }

  void pulse(const std::string& clk) {
    sim_.set_input(clk, Logic::L1);
    sim_.settle();
    sim_.set_input(clk, Logic::L0);
    sim_.settle();
  }

  void deposit(const std::string& net, bool v) {
    sim_.deposit(nl_.find_net(net), util::to_logic(v));
    sim_.settle();
  }

  bool get(const std::string& net) const {
    return util::to_bool(sim_.value(net));
  }

  Logic raw(const std::string& net) const { return sim_.value(net); }

 private:
  sim::Scheduler sched_;
  rtl::Netlist nl_;
  rtl::NetlistSim sim_;
};

// ---------------------------------------------------------------------------

class StandardEquiv : public ::testing::Test {
 protected:
  StandardEquiv() : net_(build_standard_bsc_netlist()) {
    for (const char* pin :
         {"pin_in", "tdi", "shift_dr", "clock_dr", "update_dr", "mode"}) {
      net_.set(pin, false);
    }
    net_.deposit("tdo", false);  // q1
    net_.deposit("q2", false);
  }

  void capture(bool pin) {
    beh_.set_parallel_in(util::to_logic(pin));
    beh_.capture(CellCtl{});
    net_.set("pin_in", pin);
    net_.set("shift_dr", false);
    net_.pulse("clock_dr");
  }

  void shift(bool tdi) {
    beh_.shift_bit(tdi);
    net_.set("tdi", tdi);
    net_.set("shift_dr", true);
    net_.pulse("clock_dr");
  }

  void update() {
    beh_.update(CellCtl{});
    net_.pulse("update_dr");
  }

  void expect_match(const std::string& where) {
    EXPECT_EQ(net_.get("tdo"), beh_.ff1()) << where;
    EXPECT_EQ(net_.get("q2"), beh_.ff2()) << where;
  }

  StandardBsc beh_;
  NetHarness net_;
};

TEST_F(StandardEquiv, ScriptedSequence) {
  capture(true);
  expect_match("after capture 1");
  shift(false);
  expect_match("after shift 0");
  update();
  expect_match("after update");
  capture(false);
  shift(true);
  update();
  expect_match("end");
}

TEST_F(StandardEquiv, RandomizedOperations) {
  util::Prng rng(101);
  for (int i = 0; i < 300; ++i) {
    switch (rng.next_below(3)) {
      case 0: capture(rng.next_bool()); break;
      case 1: shift(rng.next_bool()); break;
      default: update(); break;
    }
    expect_match("op " + std::to_string(i));
  }
}

TEST_F(StandardEquiv, ModeMuxMatches) {
  capture(true);
  shift(true);
  update();
  net_.set("pin_in", false);
  beh_.set_parallel_in(Logic::L0);
  net_.set("mode", true);
  CellCtl test;
  test.mode = true;
  EXPECT_EQ(net_.get("pout"), util::to_bool(beh_.parallel_out(test)));
  net_.set("mode", false);
  EXPECT_EQ(net_.get("pout"), util::to_bool(beh_.parallel_out(CellCtl{})));
}

// ---------------------------------------------------------------------------

class PgbscEquiv : public ::testing::Test {
 protected:
  PgbscEquiv() : net_(build_pgbsc_netlist()) {
    for (const char* pin :
         {"core_out", "tdi", "clock_dr", "update_dr", "si", "mode"}) {
      net_.set(pin, false);
    }
    // Power-up state: mirror Pgbsc::reset() (q3 armed to 1).
    net_.deposit("tdo", false);  // q1
    net_.deposit("q2", false);
    net_.deposit("q3", true);
  }

  static CellCtl ctl(bool si) {
    CellCtl c;
    c.si = si;
    c.gen = si;  // generation mode whenever SI here; O-SITEST = no update
    c.mode = true;
    return c;
  }

  void shift(bool tdi, bool si) {
    beh_.shift_bit(tdi);
    net_.set("si", si);
    net_.set("tdi", tdi);
    net_.pulse("clock_dr");
  }

  void update(bool si) {
    beh_.update(ctl(si));
    net_.set("si", si);
    net_.pulse("update_dr");
  }

  void expect_match(const std::string& where) {
    EXPECT_EQ(net_.get("tdo"), beh_.q1()) << where;
    EXPECT_EQ(net_.get("q2"), beh_.q2()) << where;
    EXPECT_EQ(net_.get("q3"), beh_.q3()) << where;
  }

  Pgbsc beh_;
  NetHarness net_;
};

TEST_F(PgbscEquiv, NormalUpdateLoadsAndRearms) {
  shift(true, false);
  update(false);
  expect_match("preload 1");
  EXPECT_TRUE(net_.get("q3"));
}

TEST_F(PgbscEquiv, AggressorSequenceMatches) {
  update(false);  // preload 0, arm
  for (int u = 0; u < 8; ++u) {
    update(true);
    expect_match("aggressor update " + std::to_string(u));
  }
}

TEST_F(PgbscEquiv, VictimSequenceMatches) {
  update(false);
  shift(true, true);  // become victim
  for (int u = 0; u < 8; ++u) {
    update(true);
    expect_match("victim update " + std::to_string(u));
  }
}

TEST_F(PgbscEquiv, FullProtocolWithRotation) {
  // Preload, then victim session, rotate to aggressor, continue.
  shift(false, false);
  update(false);
  shift(true, true);
  for (int u = 0; u < 4; ++u) update(true);
  shift(false, true);  // rotate out
  for (int u = 0; u < 4; ++u) {
    update(true);
    expect_match("post-rotate update " + std::to_string(u));
  }
}

TEST_F(PgbscEquiv, RandomizedOperations) {
  util::Prng rng(77);
  bool si = false;
  for (int i = 0; i < 400; ++i) {
    switch (rng.next_below(4)) {
      case 0: si = rng.next_bool(); break;
      case 1: shift(rng.next_bool(), si); break;
      default: update(si); break;
    }
    expect_match("op " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------

class ObscEquiv : public ::testing::Test {
 protected:
  ObscEquiv() : net_(build_obsc_netlist()) {
    for (const char* pin :
         {"pin_in", "tdi", "shift_dr", "clock_dr", "update_dr", "mode", "si",
          "nd_sd", "nd_pulse", "sd_pulse"}) {
      net_.set(pin, false);
    }
    net_.deposit("tdo", false);
    net_.deposit("q2", false);
    net_.deposit("nd_q", false);
    net_.deposit("sd_q", false);
  }

  /// Set the behavioural sensor flags via waveforms and the netlist's via
  /// its sensor-pulse pins.
  void latch_nd() {
    si::Waveform w(128, sim::kPs, 0.0);
    for (std::size_t i = 20; i < 60; ++i) w[i] = 1.5;
    CellCtl c;
    c.ce = true;
    beh_.observe(w, Logic::L0, Logic::L0, c);
    net_.pulse("nd_pulse");
  }

  void latch_sd() {
    si::Waveform w(4096, sim::kPs, 0.0);
    for (std::size_t i = 2000; i < 4096; ++i) w[i] = 1.8;
    CellCtl c;
    c.ce = true;
    beh_.observe(w, Logic::L0, Logic::L1, c);
    net_.pulse("sd_pulse");
  }

  static CellCtl ctl(bool si, bool nd_sd) {
    CellCtl c;
    c.si = si;
    c.nd_sd = nd_sd;
    return c;
  }

  void capture(bool pin, bool si, bool nd_sd) {
    beh_.set_parallel_in(util::to_logic(pin));
    beh_.capture(ctl(si, nd_sd));
    net_.set("pin_in", pin);
    net_.set("si", si);
    net_.set("nd_sd", nd_sd);
    net_.set("shift_dr", false);
    net_.pulse("clock_dr");
  }

  void shift(bool tdi) {
    beh_.shift_bit(tdi);
    net_.set("tdi", tdi);
    net_.set("shift_dr", true);
    net_.pulse("clock_dr");
  }

  void update() {
    beh_.update(CellCtl{});
    net_.pulse("update_dr");
  }

  void expect_match(const std::string& where) {
    EXPECT_EQ(net_.get("tdo"), beh_.ff1()) << where;
    EXPECT_EQ(net_.get("q2"), beh_.ff2()) << where;
    EXPECT_EQ(net_.get("nd_q"), beh_.nd().flag()) << where;
    EXPECT_EQ(net_.get("sd_q"), beh_.sd().flag()) << where;
  }

  Obsc beh_{si::NdParams{}, si::SdParams{}};
  NetHarness net_;
};

TEST_F(ObscEquiv, PinCaptureWhenSiLow) {
  capture(true, false, false);
  expect_match("pin capture");
  EXPECT_TRUE(net_.get("tdo"));
}

TEST_F(ObscEquiv, SensorCapturePerNdSdSelect) {
  latch_nd();
  expect_match("after nd latch");
  capture(false, true, true);  // SI=1, ND selected
  EXPECT_TRUE(net_.get("tdo"));
  expect_match("nd capture");
  capture(false, true, false);  // SD selected (clean)
  EXPECT_FALSE(net_.get("tdo"));
  expect_match("sd capture");
  latch_sd();
  capture(false, true, false);
  EXPECT_TRUE(net_.get("tdo"));
  expect_match("sd capture after latch");
}

TEST_F(ObscEquiv, ShiftOverridesSensorPath) {
  latch_nd();
  shift(false);
  expect_match("shift");
  EXPECT_FALSE(net_.get("tdo"));
}

TEST_F(ObscEquiv, UpdateAndScriptedMix) {
  latch_nd();
  capture(true, true, true);
  shift(true);
  update();
  expect_match("mixed");
  EXPECT_TRUE(net_.get("q2"));
}

TEST_F(ObscEquiv, RandomizedOperations) {
  util::Prng rng(5);
  for (int i = 0; i < 300; ++i) {
    switch (rng.next_below(5)) {
      case 0: capture(rng.next_bool(), rng.next_bool(), rng.next_bool()); break;
      case 1: shift(rng.next_bool()); break;
      case 2: update(); break;
      case 3:
        if (rng.next_bool(0.2)) latch_nd();
        break;
      default:
        if (rng.next_bool(0.2)) latch_sd();
        break;
    }
    expect_match("op " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------

TEST(NetlistShapes, AllThreeValidateAndHaveIo) {
  for (auto nl : {build_standard_bsc_netlist(), build_pgbsc_netlist(),
                  build_obsc_netlist()}) {
    nl.validate();
    EXPECT_GE(nl.inputs().size(), 6u);
    EXPECT_GE(nl.outputs().size(), 2u);
    EXPECT_GT(nl.gate_count(), 3u);
  }
}

}  // namespace
}  // namespace jsi::bsc
