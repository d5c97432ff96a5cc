// Fig 7 — The operation of a PGBSC: Update-DR, CLK-FF2 and Q2 timing in
// victim and aggressor mode.
//
// Regenerates the paper's timing diagram from the behavioural cells: the
// victim's FF2 clock runs at half the Update-DR rate, the aggressor's at
// the full rate, so the aggressor toggles twice per victim toggle. Also
// dumps a VCD trace (fig7_pgbsc.vcd) viewable in GTKWave.

#include <iostream>
#include <string>

#include "bsc/pgbsc.hpp"
#include "sim/vcd.hpp"
#include "util/table.hpp"

using namespace jsi;

namespace {

jtag::CellCtl gsitest() {
  jtag::CellCtl c;
  c.mode = true;
  c.si = true;
  c.ce = true;
  c.gen = true;
  return c;
}

std::string wave(const std::string& bits) {
  std::string out;
  for (char c : bits) out += c == '1' ? "###_" : "___.";
  return out;
}

}  // namespace

int main() {
  constexpr int kUpdates = 8;

  bsc::Pgbsc victim, aggressor;
  victim.update(jtag::CellCtl{});  // preload 0, arm FF3
  aggressor.update(jtag::CellCtl{});
  victim.shift_bit(true);  // victim-select = 1

  std::string upd, v_clk, v_q2, a_clk, a_q2, q3;
  sim::VcdWriter vcd("fig7_pgbsc.vcd");
  const auto id_upd = vcd.add_signal("pgbsc.update_dr");
  const auto id_vclk = vcd.add_signal("pgbsc.victim_clk_ff2");
  const auto id_vq2 = vcd.add_signal("pgbsc.victim_q2");
  const auto id_aq2 = vcd.add_signal("pgbsc.aggressor_q2");
  const auto id_q3 = vcd.add_signal("pgbsc.q3");
  vcd.begin();

  constexpr sim::Time kPeriod = 10 * sim::kNs;  // 100 MHz TCK
  for (int u = 0; u < kUpdates; ++u) {
    victim.update(gsitest());
    aggressor.update(gsitest());
    upd += '1';
    v_clk += victim.last_update_clocked_ff2() ? '1' : '0';
    a_clk += aggressor.last_update_clocked_ff2() ? '1' : '0';
    v_q2 += victim.q2() ? '1' : '0';
    a_q2 += aggressor.q2() ? '1' : '0';
    q3 += victim.q3() ? '1' : '0';

    const sim::Time t = kPeriod * (u + 1);
    vcd.change(id_upd, util::Logic::L1, t);
    vcd.change(id_vclk,
               victim.last_update_clocked_ff2() ? util::Logic::L1
                                                : util::Logic::L0,
               t);
    vcd.change(id_vq2, util::to_logic(victim.q2()), t);
    vcd.change(id_aq2, util::to_logic(aggressor.q2()), t);
    vcd.change(id_q3, util::to_logic(victim.q3()), t);
    vcd.change(id_upd, util::Logic::L0, t + kPeriod / 2);
    vcd.change(id_vclk, util::Logic::L0, t + kPeriod / 2);
  }
  vcd.timestamp(kPeriod * (kUpdates + 1));

  std::cout << "Fig 7: PGBSC operation over " << kUpdates
            << " Update-DR pulses\n\n";
  util::Table t({"signal", "per-update value (1 pulse per column)"});
  t.add_row({"Update-DR", wave(upd)});
  t.add_row({"Q3 (divider)", wave(q3)});
  t.add_row({"CLK-FF2 (victim)", wave(v_clk)});
  t.add_row({"Q2 (victim)", wave(v_q2)});
  t.add_row({"CLK-FF2 (aggressor)", wave(a_clk)});
  t.add_row({"Q2 (aggressor)", wave(a_q2)});
  std::cout << t << '\n';

  int v_toggles = 0, a_toggles = 0;
  for (int i = 1; i < kUpdates; ++i) {
    if (v_q2[i] != v_q2[i - 1]) ++v_toggles;
    if (a_q2[i] != a_q2[i - 1]) ++a_toggles;
  }
  std::cout << "aggressor toggles: " << a_toggles + 1
            << ", victim toggles: " << v_toggles + (v_q2[0] == '1' ? 1 : 0)
            << "  (2:1 ratio — the Fig 5/7 property)\n"
            << "VCD trace written to fig7_pgbsc.vcd\n";
  return 0;
}
