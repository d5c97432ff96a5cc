// Differential coverage of the bit-plane boundary register: a
// PlaneRegister and a per-cell jtag::BoundaryRegister of the same cell
// kinds go through the same random steps (capture, update, shift,
// shift_run, reset, parallel inputs 0/1/X/Z and sensor latches under
// random control words) and must agree after every step on TDO, every
// parallel output and every cell's FF1, FF2, FF3, clocked, ND and SD.
#include "bsc/planes.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bsc/obsc.hpp"
#include "bsc/pgbsc.hpp"
#include "bsc/standard.hpp"
#include "util/prng.hpp"

namespace jsi::bsc {
namespace {

using jtag::CellCtl;
using util::BitVec;
using util::Logic;

/// Both forms of one register, driven by one control word.
class Twin {
 public:
  Twin(const std::vector<CellKind>& kinds)
      : kinds_(kinds),
        planes_(kinds, ctl_),
        cells_([this] { return ctl_; }) {
    for (const CellKind k : kinds) {
      switch (k) {
        case CellKind::Standard:
          cells_.add_cell(std::make_unique<StandardBsc>());
          break;
        case CellKind::Pgbsc:
          cells_.add_cell(std::make_unique<Pgbsc>());
          break;
        case CellKind::Obsc:
          cells_.add_cell(
              std::make_unique<Obsc>(si::NdParams{}, si::SdParams{}));
          break;
      }
    }
  }

  CellCtl& ctl() { return ctl_; }
  PlaneRegister& planes() { return planes_; }
  jtag::BoundaryRegister& cells() { return cells_; }
  std::size_t size() const { return kinds_.size(); }

  void set_parallel_in(std::size_t first, std::size_t count, Logic v) {
    planes_.set_parallel_in(first, count, v);
    for (std::size_t i = first; i < first + count; ++i) {
      cells_.cell(i).set_parallel_in(v);
    }
  }

  void set_parallel_in(std::size_t first, const BitVec& levels) {
    planes_.set_parallel_in(first, levels);
    for (std::size_t k = 0; k < levels.size(); ++k) {
      cells_.cell(first + k).set_parallel_in(util::to_logic(levels[k]));
    }
  }

  void latch(std::size_t first, std::size_t count, si::Verdicts v) {
    planes_.latch(first, count, v);
    for (std::size_t i = first; i < first + count; ++i) {
      if (auto* o = dynamic_cast<Obsc*>(&cells_.cell(i))) o->latch(v, ctl_);
    }
  }

  /// Every output and flip-flop of the two forms, cell by cell.
  void expect_equal() {
    const std::size_t n = size();
    const std::vector<Logic> out = cells_.parallel_out(0, n);
    BitVec bits(n, false);
    planes_.parallel_out(0, bits);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE("cell " + std::to_string(i));
      jtag::BoundaryCell& c = cells_.cell(i);
      EXPECT_EQ(planes_.parallel_out(i), out[i]);
      EXPECT_EQ(bits[i], util::to_bool(out[i]));
      EXPECT_EQ(planes_.ff1()[i], c.ff1());
      bool ff2 = false, ff3 = false, clocked = false, nd = false, sd = false;
      if (auto* p = dynamic_cast<Pgbsc*>(&c)) {
        ff2 = p->q2();
        ff3 = p->q3();
        clocked = p->last_update_clocked_ff2();
      } else if (auto* o = dynamic_cast<Obsc*>(&c)) {
        ff2 = o->ff2();
        nd = o->nd().flag();
        sd = o->sd().flag();
      } else {
        ff2 = dynamic_cast<StandardBsc&>(c).ff2();
      }
      EXPECT_EQ(planes_.ff2()[i], ff2);
      EXPECT_EQ(planes_.ff3()[i], ff3);
      EXPECT_EQ(planes_.clocked()[i], clocked);
      EXPECT_EQ(planes_.nd()[i], nd);
      EXPECT_EQ(planes_.sd()[i], sd);
    }
  }

 private:
  std::vector<CellKind> kinds_;
  CellCtl ctl_{};
  PlaneRegister planes_;
  jtag::BoundaryRegister cells_;
};

std::vector<CellKind> random_kinds(std::size_t n, util::Prng& rng) {
  std::vector<CellKind> kinds;
  for (std::size_t i = 0; i < n; ++i) {
    kinds.push_back(static_cast<CellKind>(rng.next_below(3)));
  }
  return kinds;
}

BitVec random_bits(std::size_t n, util::Prng& rng) {
  BitVec v(n, false);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.next_bool());
  return v;
}

Logic random_logic(util::Prng& rng) {
  return static_cast<Logic>(rng.next_below(4));  // 0, 1, X, Z
}

/// `steps` random operations on a `kinds` twin, compared after each.
void run_random_steps(const std::vector<CellKind>& kinds, std::uint64_t seed,
                      int steps) {
  Twin t(kinds);
  util::Prng rng(seed);
  const std::size_t n = t.size();
  for (int s = 0; s < steps; ++s) {
    CellCtl& c = t.ctl();
    c = {.mode = rng.next_bool(), .si = rng.next_bool(),
         .ce = rng.next_bool(), .gen = rng.next_bool(),
         .nd_sd = rng.next_bool()};
    const std::uint64_t op = rng.next_below(9);
    SCOPED_TRACE("step " + std::to_string(s) + " op " + std::to_string(op));
    switch (op) {
      case 0:
        t.planes().capture();
        t.cells().capture();
        break;
      case 1:
        t.planes().update();
        t.cells().update();
        break;
      case 2: {
        const bool tdi = rng.next_bool();
        EXPECT_EQ(t.planes().shift(tdi), t.cells().shift(tdi));
        break;
      }
      case 3: {
        const std::size_t lens[] = {1, n - 1 == 0 ? 1 : n - 1, n, n + 1,
                                    2 * n + 3,
                                    1 + rng.next_below(2 * n + 70)};
        const std::size_t len = lens[rng.next_below(std::size(lens))];
        const BitVec in = random_bits(len, rng);
        BitVec a(len, false);
        BitVec b(len, false);
        t.planes().shift_run(in, a);
        t.cells().shift_run(in, b);
        EXPECT_EQ(a, b);
        break;
      }
      case 4:
        t.planes().reset();
        t.cells().reset();
        break;
      case 5: {
        const std::size_t first = rng.next_below(n);
        const std::size_t count = 1 + rng.next_below(n - first);
        t.set_parallel_in(first, count, random_logic(rng));
        break;
      }
      case 6: {
        const std::size_t first = rng.next_below(n);
        t.set_parallel_in(first,
                          random_bits(1 + rng.next_below(n - first), rng));
        break;
      }
      case 7:
      case 8: {
        const std::size_t first = rng.next_below(n);
        const std::size_t count = 1 + rng.next_below(n - first);
        t.latch(first, count, {rng.next_bool(), rng.next_bool()});
        break;
      }
    }
    t.expect_equal();
    if (::testing::Test::HasFailure()) return;
  }
}

const std::size_t kLengths[] = {1, 2, 63, 64, 65, 127, 128, 129, 130};

TEST(PlaneDifferential, RandomStepsMatchThePerCellRegister) {
  for (const std::size_t n : kLengths) {
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE("n " + std::to_string(n) + " trial " +
                   std::to_string(trial));
      util::Prng rng(1000 * n + trial);
      run_random_steps(random_kinds(n, rng), rng.next_u64(), 400);
    }
  }
}

TEST(PlaneDifferential, SessionShapedChainsMatch) {
  // The SoC layouts: a run of sending cells (PGBSC or standard), a run
  // of OBSCs, then standard cells, with the runs crossing word edges.
  for (const std::size_t n : kLengths) {
    for (const CellKind sending : {CellKind::Pgbsc, CellKind::Standard}) {
      SCOPED_TRACE("n " + std::to_string(n));
      std::vector<CellKind> kinds(n, sending);
      kinds.insert(kinds.end(), n, CellKind::Obsc);
      kinds.insert(kinds.end(), 1 + n % 3, CellKind::Standard);
      run_random_steps(kinds, 77 * n + (sending == CellKind::Pgbsc), 300);
    }
  }
}

TEST(PlaneRegister, GeneratesTheFig5Sequence) {
  // One victim among aggressors, its select word also preloaded into
  // FF2, then clocked by G-SITEST Update-DRs: the aggressors toggle on
  // every update, the victim on every other one, starting with the
  // second (Table 1, Fig 5).
  const std::vector<CellKind> kinds(4, CellKind::Pgbsc);
  CellCtl ctl;
  PlaneRegister r(kinds, ctl);
  BitVec out(4, false);
  r.shift_run(BitVec::from_string("0100"), out);  // cell 1 is the victim
  ASSERT_EQ(r.ff1().to_string(), "0010");
  r.update();  // SAMPLE/PRELOAD: FF2 = FF1 = victim select, FF3 = 1
  ctl = {.mode = true, .si = true, .ce = true, .gen = true, .nd_sd = true};
  r.capture();  // SI holds the victim select
  ASSERT_EQ(r.ff1().to_string(), "0010");
  std::vector<std::string> seq;
  for (int u = 0; u < 4; ++u) {
    r.update();
    seq.push_back(r.ff2().to_string());
  }
  EXPECT_EQ(seq, (std::vector<std::string>{"1111", "0000", "1101", "0010"}));
}

TEST(PlaneRegister, LatchHonorsCeAndTouchesOnlyObscs) {
  const std::vector<CellKind> kinds = {CellKind::Obsc, CellKind::Standard,
                                       CellKind::Obsc, CellKind::Pgbsc};
  CellCtl ctl;
  PlaneRegister r(kinds, ctl);
  r.latch(0, 4, {true, true});
  EXPECT_EQ(r.nd().popcount() + r.sd().popcount(), 0u);  // CE low
  ctl.ce = true;
  r.latch(0, 4, {true, false});
  EXPECT_EQ(r.nd().to_string(), "0101");
  EXPECT_EQ(r.sd().to_string(), "0000");
  EXPECT_THROW(r.latch(2, 3, {true, true}), std::out_of_range);
  r.reset();
  EXPECT_EQ(r.nd().popcount(), 0u);
  EXPECT_EQ(r.ff3().to_string(), "1000");
}

}  // namespace
}  // namespace jsi::bsc
