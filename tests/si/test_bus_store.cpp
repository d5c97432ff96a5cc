// Tests for the CoupledBus waveform store: exactness of every lookup entry
// point against the model's solver called directly, hit/miss metering and
// its CacheLookup records, the defect-generation invalidation contract,
// clone warm-carry and independence, the MA warm-up, wide buses, the byte
// budget (shared with the decay columns, which follow the entries'
// lifetime), and batch pointer lifetimes. The verdict slots riding on the
// entries are pinned the same way: every memoized ND/SD verdict equals a
// fresh scan of a directly solved waveform, slots follow their entries'
// lifetime, and sessions flag identically on a warm bus and a fresh one.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/multibus.hpp"
#include "core/session.hpp"
#include "core/soc.hpp"
#include "mafm/fault.hpp"
#include "obs/events.hpp"
#include "si/bus.hpp"
#include "si/detectors.hpp"
#include "si/model.hpp"
#include "util/prng.hpp"

namespace jsi::si {
namespace {

BusParams params_n(std::size_t n, std::size_t samples = 256) {
  BusParams p;
  p.n_wires = n;
  p.samples = samples;
  return p;
}

util::BitVec random_vec(util::Prng& rng, std::size_t n) {
  util::BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.next_bool());
  return v;
}

std::vector<mafm::VectorPair> ma_pairs(std::size_t n) {
  std::vector<mafm::VectorPair> pairs;
  for (const mafm::MaFault f : mafm::kAllFaults) {
    for (std::size_t victim = 0; victim < n; ++victim) {
      pairs.push_back(mafm::vectors_for(f, n, victim));
    }
  }
  return pairs;
}

/// The reference side: wire i solved by the model directly through a
/// fresh decay-column table, no store.
Waveform direct_solve(const BusModel& m, std::size_t i,
                      const util::BitVec& prev, const util::BitVec& next) {
  Waveform w(m.params().samples, m.params().sample_dt);
  DecayColumns columns(m.params());
  model_for(m.params().model).solve_wire(m, i, prev, next, columns, w.data());
  return w;
}

bool same_bits(WaveformView a, WaveformView b) {
  return a.samples() == b.samples() &&
         std::memcmp(a.data(), b.data(), a.samples() * sizeof(double)) == 0;
}

/// Every wire of prev -> next served by `bus` equals the direct solve on
/// `ref`, through all three lookup entry points.
void expect_exact(const CoupledBus& bus, const BusModel& ref,
                  const util::BitVec& prev, const util::BitVec& next) {
  const TransitionBatch b = bus.transition_batch(prev, next);
  for (std::size_t i = 0; i < bus.n(); ++i) {
    const Waveform want = direct_solve(ref, i, prev, next);
    ASSERT_TRUE(same_bits(b.wire(i), want)) << "batch wire " << i;
    ASSERT_TRUE(same_bits(bus.wire_response(i, prev, next), want))
        << "wire_response " << i;
  }
  const std::vector<Waveform> all = bus.transition(prev, next);
  for (std::size_t i = 0; i < bus.n(); ++i) {
    ASSERT_TRUE(same_bits(all[i], direct_solve(ref, i, prev, next)))
        << "transition wire " << i;
  }
}

struct RecordingSink final : obs::Sink {
  std::vector<obs::Event> lookups;
  int other = 0;
  void on_event(const obs::Event& e) override {
    if (e.kind == obs::EventKind::CacheLookup) {
      lookups.push_back(e);
    } else {
      ++other;
    }
  }
};

TEST(BusStore, EmptyOnConstruction) {
  CoupledBus bus(params_n(8));
  EXPECT_EQ(bus.cache_hits(), 0u);
  EXPECT_EQ(bus.cache_misses(), 0u);
  EXPECT_EQ(bus.cache_entries(), 0u);
  EXPECT_DOUBLE_EQ(bus.cache_hit_rate(), 0.0);
  EXPECT_GT(bus.store_capacity(), 0u);
}

TEST(BusStore, RepeatedTransitionHits) {
  CoupledBus bus(params_n(8));
  util::BitVec prev(8);
  util::BitVec next(8);
  next.set(3, true);

  bus.transition(prev, next);
  EXPECT_EQ(bus.cache_hits(), 0u);
  EXPECT_EQ(bus.cache_misses(), 8u);
  EXPECT_EQ(bus.cache_entries(), 8u);

  // The other entry points look up the same store.
  bus.transition_batch(prev, next);
  bus.wire_response(3, prev, next);
  EXPECT_EQ(bus.cache_hits(), 9u);
  EXPECT_EQ(bus.cache_misses(), 8u);
  EXPECT_EQ(bus.cache_entries(), 8u);
}

TEST(BusStore, RandomTrafficMatchesDirectSolver) {
  // The key is the 5-bit local neighbourhood of each wire; random vector
  // pairs revisit neighbourhoods, so hits must serve the same bits a
  // fresh solve produces.
  BusParams p = params_n(10);
  CoupledBus bus(p);
  BusModel ref(p);
  bus.inject_crosstalk_defect(4, 6.0);
  ref.inject_crosstalk_defect(4, 6.0);

  util::Prng rng(0xC0FFEEu);
  for (int iter = 0; iter < 40; ++iter) {
    SCOPED_TRACE(iter);
    expect_exact(bus, ref, random_vec(rng, p.n_wires),
                 random_vec(rng, p.n_wires));
  }
  EXPECT_GT(bus.cache_hits(), bus.cache_misses())
      << "40 random 10-wire transitions must revisit neighbourhoods";
}

TEST(BusStore, SettledLogicMatchesDirectSolver) {
  BusParams p = params_n(8);
  CoupledBus bus(p);
  BusModel ref(p);
  bus.add_series_resistance(3, 900.0);
  ref.add_series_resistance(3, 900.0);

  for (std::size_t victim = 0; victim < p.n_wires; ++victim) {
    util::BitVec prev(p.n_wires);
    util::BitVec next(p.n_wires);
    for (std::size_t i = 0; i < p.n_wires; ++i) {
      prev.set(i, i % 2 == 0);
      next.set(i, i == victim ? prev[i] : !prev[i]);
    }
    const TransitionBatch b = bus.transition_batch(prev, next);
    for (std::size_t i = 0; i < p.n_wires; ++i) {
      EXPECT_EQ(bus.settled_logic(b.wire(i)),
                bus.settled_logic(direct_solve(ref, i, prev, next)));
    }
  }
}

TEST(BusStore, EveryMutatorBumpsGenerationAndDropsTheStore) {
  CoupledBus bus(params_n(6));
  util::BitVec prev(6);
  util::BitVec next(6);
  next.set(2, true);
  const auto mutators = std::vector<void (*)(CoupledBus&)>{
      [](CoupledBus& b) { b.scale_coupling(0, 2.0); },
      [](CoupledBus& b) { b.add_series_resistance(1, 100.0); },
      [](CoupledBus& b) { b.inject_crosstalk_defect(3, 5.0); },
      [](CoupledBus& b) { b.clear_defects(); },
  };
  for (const auto mutate : mutators) {
    bus.transition(prev, next);
    ASSERT_GT(bus.cache_entries(), 0u);
    ASSERT_GT(bus.decay_columns().size(), 0u);
    const std::uint64_t gen = bus.defect_generation();
    mutate(bus);
    EXPECT_GT(bus.defect_generation(), gen);
    EXPECT_EQ(bus.cache_entries(), 0u);
    EXPECT_EQ(bus.decay_columns().size(), 0u);
  }
}

TEST(BusStore, DefectServesTheNewGeneration) {
  BusParams p = params_n(6);
  CoupledBus bus(p);
  util::BitVec prev(6);
  util::BitVec next(6);
  next.set(2, true);

  const std::vector<Waveform> clean = bus.transition(prev, next);
  bus.transition(prev, next);
  EXPECT_EQ(bus.cache_hits(), 6u);

  bus.inject_crosstalk_defect(2, 6.0);
  // Post-defect lookups miss (stale entries dropped) and serve the new
  // electrical state, not the stored one.
  const std::vector<Waveform> defective = bus.transition(prev, next);
  EXPECT_EQ(bus.cache_hits(), 6u);
  EXPECT_EQ(bus.cache_misses(), 12u);
  BusModel ref(p);
  ref.inject_crosstalk_defect(2, 6.0);
  bool any_changed = false;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(same_bits(defective[i], direct_solve(ref, i, prev, next)));
    if (!same_bits(defective[i], clean[i])) any_changed = true;
  }
  EXPECT_TRUE(any_changed) << "a severity-6 defect must alter waveforms";

  // Clearing the defects restores the clean waveforms bit for bit.
  bus.clear_defects();
  const std::vector<Waveform> restored = bus.transition(prev, next);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(same_bits(restored[i], clean[i])) << "wire " << i;
  }
}

TEST(BusStore, CountersSurviveInvalidation) {
  CoupledBus bus(params_n(4));
  util::BitVec prev(4);
  util::BitVec next(4);
  next.set(0, true);

  bus.transition(prev, next);
  bus.transition(prev, next);
  const std::uint64_t hits = bus.cache_hits();
  const std::uint64_t misses = bus.cache_misses();
  EXPECT_GT(hits, 0u);

  bus.clear_cache();
  EXPECT_EQ(bus.cache_entries(), 0u);
  EXPECT_EQ(bus.cache_hits(), hits);
  EXPECT_EQ(bus.cache_misses(), misses);

  bus.inject_crosstalk_defect(1, 3.0);
  EXPECT_EQ(bus.cache_hits(), hits);
  EXPECT_EQ(bus.cache_misses(), misses);

  bus.transition(prev, next);  // refill: misses again, hits unchanged
  EXPECT_EQ(bus.cache_hits(), hits);
  EXPECT_EQ(bus.cache_misses(), misses + 4);
}

TEST(BusStore, WarmUpStoresEveryMaWaveform) {
  CoupledBus bus(params_n(8));
  bus.warm_ma_pairs();
  const std::size_t entries = bus.cache_entries();
  EXPECT_GT(entries, 0u);
  // Deduplicated by neighbourhood: far fewer waveforms than 6*n*n wires.
  EXPECT_LT(entries, 6u * 8u * 8u);
  const std::uint64_t misses = bus.cache_misses();
  EXPECT_EQ(misses, entries) << "every warm-up miss is stored";

  bus.warm_ma_pairs();  // already warm: hits only, no growth
  EXPECT_EQ(bus.cache_entries(), entries);
  EXPECT_EQ(bus.cache_misses(), misses);

  const BusModel ref(params_n(8));
  for (const mafm::VectorPair& vp : ma_pairs(8)) {
    expect_exact(bus, ref, vp.v1, vp.v2);
  }
  EXPECT_EQ(bus.cache_misses(), misses) << "MA traffic after the warm-up "
                                           "never misses";
}

TEST(BusStore, EmitsOneRecordPerLookupCall) {
  CoupledBus bus(params_n(8));
  RecordingSink sink;
  bus.set_sink(&sink);
  const mafm::VectorPair vp = mafm::vectors_for(mafm::MaFault::Fs, 8, 5);

  bus.transition_batch(vp.v1, vp.v2);
  ASSERT_EQ(sink.lookups.size(), 1u) << "one record per batch";
  EXPECT_STREQ(sink.lookups[0].name, "si.store");
  EXPECT_EQ(sink.lookups[0].a, 0);
  EXPECT_EQ(sink.lookups[0].b, 8);

  bus.transition_batch(vp.v1, vp.v2);
  ASSERT_EQ(sink.lookups.size(), 2u);
  EXPECT_EQ(sink.lookups[1].a, 8);
  EXPECT_EQ(sink.lookups[1].b, 0);

  bus.transition(vp.v1, vp.v2);
  bus.wire_response(2, vp.v1, vp.v2);
  ASSERT_EQ(sink.lookups.size(), 4u);
  EXPECT_EQ(sink.lookups[2].a, 8);
  EXPECT_EQ(sink.lookups[3].a, 1);
  EXPECT_EQ(sink.lookups[3].b, 0);
  EXPECT_EQ(sink.other, 0);
}

TEST(BusStore, CloneCarriesStoreAndCounters) {
  BusParams p = params_n(6, 64);
  CoupledBus bus(p);
  bus.inject_crosstalk_defect(2, 5.0);
  util::BitVec prev(6);
  util::BitVec next(6);
  next.set(2, true);
  const std::vector<Waveform> want = bus.transition(prev, next);  // 6 misses
  bus.transition(prev, next);                                     // 6 hits

  const CoupledBus copy = bus.clone();
  EXPECT_EQ(copy.cache_entries(), bus.cache_entries());
  EXPECT_EQ(copy.decay_columns().size(), bus.decay_columns().size());
  EXPECT_EQ(copy.cache_hits(), bus.cache_hits());
  EXPECT_EQ(copy.cache_misses(), bus.cache_misses());
  EXPECT_EQ(copy.defect_generation(), bus.defect_generation());

  // The carried entries are live: a clone of a warm bus starts warm, and
  // serves the same waveforms.
  CoupledBus warm = bus.clone();
  const TransitionBatch got = warm.transition_batch(prev, next);
  EXPECT_EQ(warm.cache_hits(), bus.cache_hits() + 6);
  EXPECT_EQ(warm.cache_misses(), bus.cache_misses());
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(same_bits(got.wire(i), want[i])) << "wire " << i;
  }

  // Clones are independent: flushing or mutating one leaves the other
  // warm and its counters untouched.
  const std::uint64_t src_hits = bus.cache_hits();
  warm.clear_cache();
  EXPECT_EQ(warm.cache_entries(), 0u);
  EXPECT_EQ(warm.decay_columns().size(), 0u);
  EXPECT_GT(bus.cache_entries(), 0u);
  warm.add_series_resistance(0, 50.0);
  warm.transition(prev, next);
  EXPECT_EQ(bus.cache_hits(), src_hits);
  const std::vector<Waveform> again = bus.transition(prev, next);
  EXPECT_EQ(bus.cache_hits(), src_hits + 6);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(same_bits(again[i], want[i])) << "wire " << i;
  }
}

TEST(BusStore, CloneDoesNotInheritSink) {
  CoupledBus bus(params_n(4, 16));
  RecordingSink sink;
  bus.set_sink(&sink);

  CoupledBus copy = bus.clone();
  util::BitVec prev(4);
  util::BitVec next(4);
  next.set(1, true);
  copy.transition(prev, next);
  EXPECT_TRUE(sink.lookups.empty()) << "a clone on another thread must not "
                                       "emit into the source's sink";
  bus.transition(prev, next);
  EXPECT_EQ(sink.lookups.size(), 1u) << "the source keeps its sink";
}

TEST(BusStore, WideBusesAreServedByTheStore) {
  // No width limit: keys are per-wire neighbourhoods, not packed vectors.
  for (const std::size_t n : {65u, 128u}) {
    SCOPED_TRACE(n);
    const BusParams p = params_n(n, 32);
    CoupledBus bus(p);
    bus.warm_ma_pairs();
    const std::uint64_t hits = bus.cache_hits();
    const std::uint64_t misses = bus.cache_misses();
    ASSERT_GT(bus.cache_entries(), 0u);
    ASSERT_LT(bus.cache_entries(), bus.store_capacity());

    const BusModel ref(p);
    for (const mafm::VectorPair& vp : ma_pairs(n)) {
      const TransitionBatch b = bus.transition_batch(vp.v1, vp.v2);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same_bits(b.wire(i), direct_solve(ref, i, vp.v1, vp.v2)))
            << "wire " << i;
      }
    }
    EXPECT_EQ(bus.cache_misses(), misses);
    EXPECT_EQ(bus.cache_hits(), hits + 6u * n * n);
  }
}

TEST(BusStore, TrafficPastTheBudgetStaysExactAtTheCap) {
  // Long waveforms shrink the slot cap below the distinct keys of one
  // transition. Waveforms and the decay columns their solves read share
  // the slots; the overflow wires are solved into scratch, not stored.
  const BusParams p = params_n(20, std::size_t{1} << 19);
  CoupledBus bus(p);
  const std::size_t cap = bus.store_capacity();
  ASSERT_GT(cap, 0u);
  ASSERT_LT(cap, p.n_wires);
  EXPECT_LE(cap * p.samples * sizeof(double), CoupledBus::kStoreBudgetBytes);

  const BusModel ref(p);
  // The two edge wires switch (stored and overflow side each see a
  // switching wire and a glitch); the quiet middle keeps solves cheap.
  util::BitVec prev(p.n_wires);
  util::BitVec next(p.n_wires);
  next.set(0, true);
  next.set(p.n_wires - 1, true);

  const NdCell nd;
  const SdCell sd;
  std::size_t stored = 0;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const TransitionBatch b = bus.transition_batch(prev, next);
    // Every slot is taken, so one more entry would not fit.
    stored = bus.cache_entries();
    ASSERT_GT(bus.decay_columns().size(), 0u);
    EXPECT_EQ(stored + bus.decay_columns().size(), cap);
    for (std::size_t i = 0; i < p.n_wires; ++i) {
      const Waveform want = direct_solve(ref, i, prev, next);
      ASSERT_TRUE(same_bits(b.wire(i), want)) << "wire " << i;
      // Only stored wires carry a verdict slot; an overflow wire is
      // judged by a full scan every time.
      EXPECT_EQ(b.slot(i) != nullptr, i < stored) << "wire " << i;
      const util::Logic init = util::to_logic(prev[i]);
      const util::Logic exp = util::to_logic(next[i]);
      EXPECT_EQ(judge(nd, sd, b.wire(i), init, exp, b.slot(i)),
                (Verdicts{nd.violates(want, init, exp),
                          sd.violates(want, init, exp)}))
          << "wire " << i;
    }
  }
  // Round 1 stored the first `stored` wires; round 2 hits exactly those.
  EXPECT_EQ(bus.cache_hits(), stored);
  EXPECT_EQ(bus.cache_misses(), 2 * p.n_wires - stored);

  // The owning entry point solves an unstored wire straight into its
  // result.
  const std::size_t last = p.n_wires - 1;
  EXPECT_TRUE(same_bits(bus.wire_response(last, prev, next),
                        direct_solve(ref, last, prev, next)));
  EXPECT_EQ(bus.cache_entries(), stored);
}

TEST(BusStore, TimeConstantsPastTheBudgetStayExact) {
  // A crosstalk defect of its own severity on every wire gives every
  // wire its own time constants, so one transition asks for more decay
  // columns than the budget has slots. Columns that do not fit are
  // computed into scratch and not kept (a quiet wire's glitch reads two
  // at once) and the store stays within its slots.
  const BusParams p = params_n(20, std::size_t{1} << 19);
  CoupledBus bus(p);
  BusModel ref(p);
  for (std::size_t w = 0; w < p.n_wires; ++w) {
    const double severity = 1.5 + 0.25 * static_cast<double>(w);
    bus.inject_crosstalk_defect(w, severity);
    ref.inject_crosstalk_defect(w, severity);
  }
  const std::size_t cap = bus.store_capacity();
  ASSERT_LT(cap, p.n_wires);

  // Even wires rise; each odd wire stays quiet between two aggressors.
  util::BitVec prev(p.n_wires);
  util::BitVec next(p.n_wires);
  for (std::size_t i = 0; i < p.n_wires; i += 2) next.set(i, true);

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const TransitionBatch b = bus.transition_batch(prev, next);
    EXPECT_EQ(bus.cache_entries() + bus.decay_columns().size(), cap);
    for (std::size_t i = 0; i < p.n_wires; ++i) {
      ASSERT_TRUE(same_bits(b.wire(i), direct_solve(ref, i, prev, next)))
          << "wire " << i;
    }
  }
}

TEST(BusStore, BatchPointersSurviveLaterMissesOfTheSameTransition) {
  // Early wires hit stored entries while every later wire misses and
  // inserts (rehashing the store many times over): the pointers handed
  // out for the early wires must still read the right samples.
  const std::size_t n = 64;
  const BusParams p = params_n(n, 128);
  CoupledBus bus(p);
  const BusModel ref(p);
  util::BitVec prev(n);
  util::BitVec next(n);
  for (std::size_t i = 0; i < n; i += 2) next.set(i, true);

  // Store only the first four wires' keys.
  for (std::size_t i = 0; i < 4; ++i) bus.wire_response(i, prev, next);
  ASSERT_EQ(bus.cache_entries(), 4u);

  const TransitionBatch b = bus.transition_batch(prev, next);
  EXPECT_EQ(bus.cache_entries(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(same_bits(b.wire(i), direct_solve(ref, i, prev, next)))
        << "wire " << i;
  }
}

// ---- verdict slots ----------------------------------------------------------

/// One detector param set, at the supply the cells observe (the model's
/// observed swing, as SiSocDevice sets it).
struct DetectorSettings {
  NdParams nd;
  SdParams sd;
};

/// The differential grid: ND arm/release/overshoot thresholds crossed
/// with SD windows and receiver thresholds.
std::vector<DetectorSettings> detector_grid(const BusParams& p) {
  const double vdd = model_for(p.model).observed_swing(p);
  const NdParams nds[] = {{vdd, 0.45, 0.35, 0.25},
                          {vdd, 0.20, 0.10, 0.0},
                          {vdd, 0.60, 0.50, 0.05}};
  const SdParams sds[] = {{vdd, 150 * sim::kPs, 0.5},
                          {vdd, 60 * sim::kPs, 0.3},
                          {vdd, 400 * sim::kPs, 0.7}};
  std::vector<DetectorSettings> grid;
  for (const NdParams& nd : nds) {
    for (const SdParams& sd : sds) grid.push_back({nd, sd});
  }
  return grid;
}

/// A fresh scan of `w`: the reference every memoized verdict must equal.
Verdicts fresh_verdicts(const DetectorSettings& s, WaveformView w,
                        util::Logic initial, util::Logic expected) {
  return {NdCell(s.nd).violates(w, initial, expected),
          SdCell(s.sd).violates(w, initial, expected)};
}

/// Judge wire i of `b` under `s` through its slot.
Verdicts judge_wire(const DetectorSettings& s, const TransitionBatch& b,
                    std::size_t i, const mafm::VectorPair& vp) {
  return judge(NdCell(s.nd), SdCell(s.sd), b.wire(i),
               util::to_logic(vp.v1[i]), util::to_logic(vp.v2[i]),
               b.slot(i));
}

bool slot_holds(const VerdictSlot* slot, const DetectorSettings& s) {
  return slot != nullptr && slot->filled && slot->nd_params == s.nd &&
         slot->sd_params == s.sd;
}

TEST(BusStore, SlotVerdictsEqualFreshScansOfDirectSolves) {
  struct Case {
    std::size_t n;
    ModelKind model;
    double l_wire;
  };
  std::vector<Case> cases;
  for (const std::size_t n : {2u, 3u, 8u, 16u, 64u}) {
    cases.push_back({n, ModelKind::RcFullSwing, 0.0});
    // 20 nH underdamps the nominal wires (see InductanceCausesOvershoot).
    cases.push_back({n, ModelKind::RcFullSwing, 20e-9});
    cases.push_back({n, ModelKind::LowSwing, 0.0});
  }
  std::size_t outcomes[2][2] = {};  // [nd|sd][verdict]
  bool rang = false;  // some rising wire of an inductive bus overshot
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << c.n << " " << model_kind_name(c.model)
                 << " l_wire=" << c.l_wire);
    BusParams p = params_n(c.n, 512);
    p.model = c.model;
    p.l_wire = c.l_wire;
    CoupledBus bus(p);
    BusModel ref(p);
    // Stacked defects: a crosstalk defect with extra series resistance on
    // the same wire, and a resistive open at the bus edge.
    const auto stack_defects = [&c](auto& b) {
      b.inject_crosstalk_defect(c.n / 2, 6.0);
      b.add_series_resistance(c.n / 2, 400.0);
      b.add_series_resistance(c.n - 1, 900.0);
    };
    stack_defects(bus);
    stack_defects(ref);

    std::vector<mafm::VectorPair> traffic = ma_pairs(c.n);
    util::Prng rng(0x5107u + c.n);
    for (int k = 0; k < 24; ++k) {
      traffic.push_back({random_vec(rng, c.n), random_vec(rng, c.n)});
    }
    const std::vector<DetectorSettings> grid = detector_grid(p);

    // want[(k * n + i) * grid + g]: a fresh scan of the direct solve.
    std::vector<Verdicts> want(traffic.size() * c.n * grid.size());
    for (std::size_t k = 0; k < traffic.size(); ++k) {
      for (std::size_t i = 0; i < c.n; ++i) {
        const Waveform w = direct_solve(ref, i, traffic[k].v1, traffic[k].v2);
        const bool rising = !traffic[k].v1[i] && traffic[k].v2[i];
        rang = rang || (rising && c.l_wire > 0.0 && w.max_value() > p.vdd);
        for (std::size_t g = 0; g < grid.size(); ++g) {
          const Verdicts v =
              fresh_verdicts(grid[g], w, util::to_logic(traffic[k].v1[i]),
                             util::to_logic(traffic[k].v2[i]));
          want[(k * c.n + i) * grid.size() + g] = v;
          ++outcomes[0][v.nd];
          ++outcomes[1][v.sd];
        }
      }
    }

    // Each param set in turn re-judges the slots the previous one filled,
    // then a second pass is served entirely from the slots.
    std::size_t served = 0;
    for (std::size_t g = 0; g < grid.size(); ++g) {
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 0; k < traffic.size(); ++k) {
          const TransitionBatch b =
              bus.transition_batch(traffic[k].v1, traffic[k].v2);
          for (std::size_t i = 0; i < c.n; ++i) {
            ASSERT_NE(b.slot(i), nullptr);
            const bool hit = slot_holds(b.slot(i), grid[g]);
            if (pass == 1) {
              ASSERT_TRUE(hit) << "pair " << k << " wire " << i;
            }
            served += hit ? 1 : 0;
            const Verdicts got = judge_wire(grid[g], b, i, traffic[k]);
            ASSERT_EQ(got, want[(k * c.n + i) * grid.size() + g])
                << "setting " << g << " pass " << pass << " pair " << k
                << " wire " << i;
            ASSERT_TRUE(slot_holds(b.slot(i), grid[g]));
            ASSERT_EQ(b.slot(i)->verdicts, got);
          }
        }
      }
    }
    EXPECT_GT(served, traffic.size() * c.n * grid.size());
  }
  // The grid is not vacuous: both detectors both pass and fire, and the
  // ringing path was exercised.
  for (const auto& detector : outcomes) {
    EXPECT_GT(detector[0], 0u);
    EXPECT_GT(detector[1], 0u);
  }
  EXPECT_TRUE(rang);
}

TEST(BusStore, VerdictSlotsLiveAndDieWithTheirEntries) {
  const BusParams p = params_n(8, 512);
  const std::vector<DetectorSettings> grid = detector_grid(p);
  const DetectorSettings& a = grid[0];  // the shipped defaults
  const DetectorSettings& b = grid[4];  // tighter ND, shorter SD window
  const mafm::VectorPair vp = mafm::vectors_for(mafm::MaFault::Pg, 8, 4);
  CoupledBus bus(p);
  BusModel ref(p);
  bus.inject_crosstalk_defect(4, 3.0);
  ref.inject_crosstalk_defect(4, 3.0);

  const auto fresh = [&](const DetectorSettings& s, std::size_t i) {
    return fresh_verdicts(s, direct_solve(ref, i, vp.v1, vp.v2),
                          util::to_logic(vp.v1[i]), util::to_logic(vp.v2[i]));
  };
  bool a_and_b_differ = false;
  for (std::size_t i = 0; i < p.n_wires; ++i) {
    if (!(fresh(a, i) == fresh(b, i))) a_and_b_differ = true;
  }
  ASSERT_TRUE(a_and_b_differ) << "a stale slot must be visible";

  // Judge under `s` on `on`: every wire re-judged (the slot held other
  // params) or served, as `served` says, and equal to a fresh scan.
  const auto judge_all = [&](CoupledBus& on, const DetectorSettings& s,
                             bool served) {
    const TransitionBatch tb = on.transition_batch(vp.v1, vp.v2);
    for (std::size_t i = 0; i < p.n_wires; ++i) {
      ASSERT_EQ(slot_holds(tb.slot(i), s), served) << "wire " << i;
      ASSERT_EQ(judge_wire(s, tb, i, vp), fresh(s, i)) << "wire " << i;
      ASSERT_TRUE(slot_holds(tb.slot(i), s)) << "wire " << i;
    }
  };
  const auto expect_unfilled = [&](CoupledBus& on) {
    const TransitionBatch tb = on.transition_batch(vp.v1, vp.v2);
    for (std::size_t i = 0; i < p.n_wires; ++i) {
      ASSERT_NE(tb.slot(i), nullptr);
      EXPECT_FALSE(tb.slot(i)->filled) << "wire " << i;
    }
  };

  expect_unfilled(bus);
  judge_all(bus, a, false);
  judge_all(bus, a, true);
  judge_all(bus, b, false);  // other params: re-judged, not served
  judge_all(bus, a, false);  // and back

  // A clone carries the slots, re-judges under other params, and leaves
  // the source's slots alone.
  CoupledBus copy = bus.clone();
  judge_all(copy, a, true);
  judge_all(copy, b, false);
  judge_all(bus, a, true);

  // Every defect mutator and clear_cache drop the slots with the entries
  // (`ref` follows the mutations, so the re-judged verdicts stay checked).
  const std::vector<void (*)(CoupledBus&, BusModel&)> droppers = {
      [](CoupledBus& x, BusModel& r) {
        x.scale_coupling(0, 2.0);
        r.scale_coupling(0, 2.0);
      },
      [](CoupledBus& x, BusModel& r) {
        x.add_series_resistance(1, 300.0);
        r.add_series_resistance(1, 300.0);
      },
      [](CoupledBus& x, BusModel& r) {
        x.inject_crosstalk_defect(6, 4.0);
        r.inject_crosstalk_defect(6, 4.0);
      },
      [](CoupledBus& x, BusModel& r) {
        x.clear_defects();
        r.clear_defects();
      },
      [](CoupledBus& x, BusModel&) { x.clear_cache(); },
  };
  for (const auto drop : droppers) {
    judge_all(bus, a, true);
    drop(bus, ref);
    expect_unfilled(bus);
    judge_all(bus, a, false);
  }
}

/// What one session decided: the final flags and the DetectorFired
/// records in emission order.
struct SessionVerdicts {
  std::vector<std::string> flags;
  std::vector<std::string> fired;
  bool operator==(const SessionVerdicts&) const = default;
};

struct FiredSink final : obs::Sink {
  std::vector<std::string> fired;
  void on_event(const obs::Event& e) override {
    if (e.kind == obs::EventKind::DetectorFired) {
      fired.push_back(std::string(e.name) + " wire " + std::to_string(e.a) +
                      " bus " + std::to_string(e.b));
    }
  }
};

SessionVerdicts run_soc_session(core::SiSocDevice& soc,
                                core::ObservationMethod m) {
  FiredSink sink;
  core::SiTestSession session(soc);
  session.set_sink(&sink);
  const core::IntegrityReport r = session.run(m);
  session.set_sink(nullptr);
  SessionVerdicts v{{r.nd_final.to_string(), r.sd_final.to_string()},
                    sink.fired};
  for (const core::ReadoutRecord& rr : r.readouts) {
    v.flags.push_back(rr.nd.to_string() + "/" + rr.sd.to_string());
  }
  return v;
}

SessionVerdicts run_multibus_session(core::MultiBusSoc& soc,
                                     core::ObservationMethod m) {
  FiredSink sink;
  core::MultiBusSession session(soc);
  session.set_sink(&sink);
  const core::MultiBusReport r = session.run(m);
  session.set_sink(nullptr);
  SessionVerdicts v{{}, sink.fired};
  for (const core::IntegrityReport& bus : r.buses) {
    v.flags.push_back(bus.nd_final.to_string() + "/" +
                      bus.sd_final.to_string());
  }
  return v;
}

TEST(BusStore, SessionsFlagTheSameOnAWarmBusAndAFreshOne) {
  const auto defects = [](CoupledBus& b) {
    b.inject_crosstalk_defect(2, 6.0);
    b.add_series_resistance(5, 900.0);
  };
  for (const ModelKind model : kAllModelKinds) {
    for (const core::ObservationMethod m :
         {core::ObservationMethod::OnceAtEnd,
          core::ObservationMethod::PerPattern}) {
      SCOPED_TRACE(::testing::Message() << model_kind_name(model) << " method "
                                        << static_cast<int>(m));
      core::SocConfig cfg;
      cfg.n_wires = 8;
      cfg.bus.model = model;
      core::SiSocDevice warm(cfg);
      defects(warm.bus());
      const SessionVerdicts first = run_soc_session(warm, m);
      const std::uint64_t misses = warm.bus().cache_misses();
      const SessionVerdicts second = run_soc_session(warm, m);
      EXPECT_EQ(warm.bus().cache_misses(), misses)
          << "the second pass is all store hits";
      core::SiSocDevice fresh(cfg);
      defects(fresh.bus());
      EXPECT_EQ(second, first);
      EXPECT_EQ(run_soc_session(fresh, m), first);
      EXPECT_FALSE(first.fired.empty()) << "the defects must be flagged";
    }
  }

  core::MultiBusConfig mcfg;
  mcfg.n_buses = 3;
  mcfg.wires_per_bus = 6;
  const auto multibus_defects = [&](core::MultiBusSoc& soc) {
    defects(soc.bus(0));
    soc.bus(2).inject_crosstalk_defect(4, 8.0);
  };
  const core::ObservationMethod m = core::ObservationMethod::OnceAtEnd;
  core::MultiBusSoc warm(mcfg);
  multibus_defects(warm);
  const SessionVerdicts first = run_multibus_session(warm, m);
  const SessionVerdicts second = run_multibus_session(warm, m);
  core::MultiBusSoc fresh(mcfg);
  multibus_defects(fresh);
  EXPECT_EQ(second, first);
  EXPECT_EQ(run_multibus_session(fresh, m), first);
  EXPECT_FALSE(first.fired.empty()) << "the defects must be flagged";
}

}  // namespace
}  // namespace jsi::si
