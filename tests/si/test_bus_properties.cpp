// Physics property tests for the coupled-bus solver: linearity, symmetry
// and monotonicity checks that hold for any parameter choice — plus the
// randomized differential suite pinning the batched (store-backed) path
// bit-for-bit against the model's recipes rendered directly.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mafm/fault.hpp"
#include "si/bus.hpp"
#include "si/detectors.hpp"
#include "si/model.hpp"
#include "util/prng.hpp"

namespace jsi::si {
namespace {

using util::BitVec;

BusParams params_n(std::size_t n) {
  BusParams p;
  p.n_wires = n;
  return p;
}

BitVec mirror(const BitVec& v) {
  BitVec out = v;
  out.reverse();
  return out;
}

TEST(BusProperties, MirrorSymmetry) {
  // A uniform bus has no preferred direction: wire i's response to
  // (prev, next) equals wire n-1-i's response to the mirrored vectors.
  const std::size_t n = 6;
  CoupledBus bus(params_n(n));
  util::Prng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const BitVec a = BitVec::from_u64(rng.next_u64(), n);
    const BitVec b = BitVec::from_u64(rng.next_u64(), n);
    const std::size_t i = rng.next_below(n);
    const Waveform w1 = bus.wire_response(i, a, b);
    const Waveform w2 = bus.wire_response(n - 1 - i, mirror(a), mirror(b));
    for (std::size_t s = 0; s < w1.samples(); s += 64) {
      ASSERT_NEAR(w1[s], w2[s], 1e-12) << "trial " << trial;
    }
  }
}

TEST(BusProperties, GlitchSuperposition) {
  // The quiet-victim model is linear: the two-aggressor glitch equals the
  // sum of the single-aggressor glitches (relative to the rail).
  CoupledBus bus(params_n(3));
  const BitVec q = BitVec::from_string("000");
  const Waveform both =
      bus.wire_response(1, q, BitVec::from_string("101"));
  const Waveform left =
      bus.wire_response(1, q, BitVec::from_string("001"));
  const Waveform right =
      bus.wire_response(1, q, BitVec::from_string("100"));
  for (std::size_t s = 0; s < both.samples(); s += 32) {
    ASSERT_NEAR(both[s], left[s] + right[s], 1e-9);
  }
}

TEST(BusProperties, OppositeAggressorsCancelOnSymmetricVictim) {
  // One neighbour rising, the other falling, equal couplings: the
  // injected charges cancel exactly on the middle wire.
  CoupledBus bus(params_n(3));
  const Waveform w = bus.wire_response(1, BitVec::from_string("100"),
                                       BitVec::from_string("001"));
  EXPECT_NEAR(w.max_value(), 0.0, 1e-9);
  EXPECT_NEAR(w.min_value(), 0.0, 1e-9);
}

TEST(BusProperties, GlitchMonotoneInCoupling) {
  const BitVec a = BitVec::from_string("000");
  const BitVec b = BitVec::from_string("101");
  double prev = 0.0;
  for (double scale : {1.0, 1.5, 2.5, 4.0, 7.0}) {
    CoupledBus bus(params_n(3));
    if (scale > 1.0) {
      bus.scale_coupling(0, scale);
      bus.scale_coupling(1, scale);
    }
    const double peak = bus.wire_response(1, a, b).max_value();
    EXPECT_GT(peak, prev) << "scale " << scale;
    prev = peak;
  }
}

TEST(BusProperties, DelayMonotoneInResistance) {
  const BitVec a = BitVec::from_string("00");
  const BitVec b = BitVec::from_string("01");
  sim::Time prev = 0;
  for (double extra : {0.0, 100.0, 300.0, 700.0, 1500.0}) {
    CoupledBus bus(params_n(2));
    if (extra > 0) bus.add_series_resistance(0, extra);
    const auto t = bus.wire_response(0, a, b).first_above(0.9);
    ASSERT_TRUE(t.has_value());
    EXPECT_GT(*t, prev) << "extra " << extra;
    prev = *t;
  }
}

TEST(BusProperties, SettledLogicAlwaysMatchesDrivenValue) {
  // RC model without defects: every wire ends at its driven rail, for any
  // random transition on any healthy bus width.
  util::Prng rng(4);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.next_below(10);
    CoupledBus bus(params_n(n));
    const BitVec a = BitVec::from_u64(rng.next_u64(), n);
    const BitVec b = BitVec::from_u64(rng.next_u64(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bus.settled_logic(bus.wire_response(i, a, b)),
                util::to_logic(b[i]))
          << "trial " << trial << " wire " << i;
    }
  }
}

TEST(BusProperties, WaveformsBoundedWithoutInductance) {
  // Pure RC: no wire can exceed the rail by more than the total injected
  // swing; 2*Vdd is a safe envelope for any healthy or defective bus.
  util::Prng rng(9);
  CoupledBus bus(params_n(5));
  bus.inject_crosstalk_defect(2, 8.0);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec a = BitVec::from_u64(rng.next_u64(), 5);
    const BitVec b = BitVec::from_u64(rng.next_u64(), 5);
    for (std::size_t i = 0; i < 5; ++i) {
      const Waveform w = bus.wire_response(i, a, b);
      EXPECT_LT(w.max_value(), 2 * bus.params().vdd);
      EXPECT_GT(w.min_value(), -bus.params().vdd);
    }
  }
}

TEST(BusProperties, EdgeWiresSufferLessCrosstalk) {
  // An edge wire has one neighbour; its worst glitch is smaller than an
  // inner wire's under the same all-aggressor stress.
  const std::size_t n = 5;
  CoupledBus bus(params_n(n));
  const auto pg_edge = bus.wire_response(0, BitVec::zeros(n),
                                         ~BitVec::one_hot(n, 0));
  const auto pg_inner = bus.wire_response(2, BitVec::zeros(n),
                                          ~BitVec::one_hot(n, 2));
  EXPECT_LT(pg_edge.max_value(), pg_inner.max_value());
}

TEST(BusProperties, NoSelfGlitchWithoutSwitchingNeighbors) {
  CoupledBus bus(params_n(4));
  const Waveform w = bus.wire_response(1, BitVec::from_string("1010"),
                                       BitVec::from_string("1010"));
  EXPECT_NEAR(w.max_value(), w.min_value(), 1e-12);  // perfectly flat
}

// ---- batched vs scalar differential suite ---------------------------------
//
// The batched path (transition_batch: store entries judged from their
// recipes) and the on-demand renders (transition()) must agree with the
// model's recipe rendered directly on every output *bit* — not just
// within a tolerance. Any divergence is a real defect (e.g. a key that
// misses part of a wire's recipe), and EXPECT_EQ on doubles is the
// correct assertion strength.

/// The reference side: wire i's recipe rendered directly, no store.
Waveform direct_solve(const BusModel& m, std::size_t i, const BitVec& prev,
                      const BitVec& next) {
  return render(model_for(m.params().model).recipe(m, i, prev, next),
                m.params().samples, m.params().sample_dt);
}

BitVec random_vec(util::Prng& rng, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.next_bool());
  return v;
}

/// The workload that matters: every MA vector pair of the bus, plus
/// `extra` random (generally non-MA) pairs — so MA traffic and settling
/// steps are both differenced.
std::vector<mafm::VectorPair> differential_workload(util::Prng& rng,
                                                    std::size_t n,
                                                    int extra) {
  std::vector<mafm::VectorPair> pairs;
  for (const mafm::MaFault f : mafm::kAllFaults) {
    for (std::size_t victim = 0; victim < n; ++victim) {
      pairs.push_back(mafm::vectors_for(f, n, victim));
    }
  }
  for (int i = 0; i < extra; ++i) {
    pairs.push_back({random_vec(rng, n), random_vec(rng, n)});
  }
  return pairs;
}

void expect_batch_bit_identical(const CoupledBus& batched, const BusModel& ref,
                                const std::vector<mafm::VectorPair>& pairs) {
  const std::size_t n = batched.n();
  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    const std::vector<Waveform> rendered =
        batched.transition(pairs[pi].v1, pairs[pi].v2);
    const TransitionBatch b =
        batched.transition_batch(pairs[pi].v1, pairs[pi].v2);
    ASSERT_EQ(b.n_wires, n);
    for (std::size_t i = 0; i < n; ++i) {
      const Waveform want = direct_solve(ref, i, pairs[pi].v1, pairs[pi].v2);
      ASSERT_TRUE(SameRecipe{}(
          *b.entry(i).recipe, model_for(ref.params().model)
                                  .recipe(ref, i, pairs[pi].v1, pairs[pi].v2)))
          << "pair " << pi << " wire " << i;
      ASSERT_EQ(b.entry(i).final_sample, want.final_value())
          << "pair " << pi << " wire " << i;
      const WaveformView got = rendered[i];
      ASSERT_EQ(got.samples(), want.samples());
      if (std::memcmp(got.data(), want.data(),
                      want.samples() * sizeof(double)) == 0) {
        continue;
      }
      // Bitwise mismatch: report the first diverging sample readably.
      for (std::size_t s = 0; s < want.samples(); ++s) {
        ASSERT_EQ(got[s], want[s])
            << "pair " << pi << " wire " << i << " sample " << s;
      }
    }
  }
}

TEST(BusDifferential, BatchedBitIdenticalAcrossWidthsAndSeeds) {
  for (const std::size_t n : {2, 3, 5, 8, 13, 21, 32}) {
    for (const std::uint64_t seed : {11u, 222u, 3333u}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " seed=" << seed);
      BusParams p = params_n(n);
      p.samples = 512;  // keep the sweep fast; full depth runs at n=8 below
      util::Prng rng(seed);
      CoupledBus batched(p);
      const BusModel ref(p);
      expect_batch_bit_identical(batched, ref,
                                 differential_workload(rng, n, 8));
    }
  }
}

TEST(BusDifferential, FullDepthDefaultParams) {
  const BusParams p = params_n(8);  // default 2048 samples
  util::Prng rng(77);
  CoupledBus batched(p);
  const BusModel ref(p);
  expect_batch_bit_identical(batched, ref, differential_workload(rng, 8, 12));
}

TEST(BusDifferential, DetectorVerdictsIdentical) {
  // What the system actually consumes: ND/SD firings, SD arrival times
  // and settled logic must agree between the judged batch and full scans
  // of direct renders — on a defective bus where detectors really fire.
  BusParams p = params_n(8);
  p.samples = 1024;
  CoupledBus batched(p);
  BusModel ref(p);
  batched.inject_crosstalk_defect(3, 6.0);
  batched.add_series_resistance(6, 900.0);
  ref.inject_crosstalk_defect(3, 6.0);
  ref.add_series_resistance(6, 900.0);
  const NdCell nd;
  const SdCell sd;
  util::Prng rng(2026);
  const auto pairs = differential_workload(rng, 8, 16);
  for (const mafm::VectorPair& vp : pairs) {
    const TransitionBatch b = batched.transition_batch(vp.v1, vp.v2);
    for (std::size_t i = 0; i < 8; ++i) {
      const Waveform want = direct_solve(ref, i, vp.v1, vp.v2);
      const WireEntry& got = b.entry(i);
      const util::Logic li = util::to_logic(vp.v1[i]);
      const util::Logic le = util::to_logic(vp.v2[i]);
      EXPECT_EQ(batched.judge(nd, sd, got),
                (Verdicts{nd.violates(want, li, le),
                          sd.violates(want, li, le)}));
      if (li != le) {
        const auto arrival = batched.probe(*got.recipe)
                                 .last_crossing(sd.params().vth_frac *
                                                sd.params().vdd);
        ASSERT_TRUE(arrival.has_value()) << "an RC edge is decided";
        EXPECT_EQ(*arrival, sd.arrival_time(want));
      }
      EXPECT_EQ(batched.settled_logic(got.final_sample),
                batched.settled_logic(want));
    }
  }
}

TEST(BusDifferential, StackedDefectsStayIdentical) {
  // Re-difference after every mutation of a growing defect stack: each
  // bump must drop the store so the batched path never serves a stale
  // generation.
  BusParams p = params_n(6);
  p.samples = 512;
  CoupledBus batched(p);
  BusModel ref(p);
  util::Prng rng(55);
  const auto mutate_one = [](auto& bus, int round) {
    switch (round % 3) {
      case 0: bus.scale_coupling(round % 5, 1.5); break;
      case 1: bus.add_series_resistance(round % 6, 250.0); break;
      default: bus.inject_crosstalk_defect(1 + round % 4, 4.0); break;
    }
  };
  const auto mutate = [&](int round) {
    mutate_one(batched, round);
    mutate_one(ref, round);
  };
  for (int round = 0; round < 5; ++round) {
    mutate(round);
    expect_batch_bit_identical(batched, ref,
                               differential_workload(rng, 6, 4));
  }
  batched.clear_defects();
  ref.clear_defects();
  expect_batch_bit_identical(batched, ref, differential_workload(rng, 6, 4));
}

TEST(BusDifferential, CloneServesIdenticalBatches) {
  // The campaign path: warm a prototype (MA pairs and a random stream
  // stored), clone it, and difference the clone — its carried store must
  // serve the same bits as the direct render.
  BusParams p = params_n(8);
  p.samples = 512;
  CoupledBus proto(p);
  proto.inject_crosstalk_defect(4, 5.0);
  proto.warm_ma_pairs();
  util::Prng rng(99);
  const auto pairs = differential_workload(rng, 8, 8);
  for (const mafm::VectorPair& vp : pairs) {
    proto.transition_batch(vp.v1, vp.v2);
  }

  CoupledBus clone = proto.clone();
  BusModel ref(p);
  ref.inject_crosstalk_defect(4, 5.0);
  expect_batch_bit_identical(clone, ref, pairs);

  // And the clone stays correct across its own later mutations.
  clone.add_series_resistance(2, 400.0);
  ref.add_series_resistance(2, 400.0);
  expect_batch_bit_identical(clone, ref, pairs);
}

}  // namespace
}  // namespace jsi::si
