// Tests for the CoupledBus waveform store: exactness of every lookup entry
// point against the model's solver called directly, hit/miss metering and
// its CacheLookup records, the defect-generation invalidation contract,
// clone warm-carry and independence, the MA warm-up, wide buses, the byte
// budget, and batch pointer lifetimes.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mafm/fault.hpp"
#include "obs/events.hpp"
#include "si/bus.hpp"
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

/// The reference side: wire i solved by the model directly, no store.
Waveform direct_solve(const BusModel& m, std::size_t i,
                      const util::BitVec& prev, const util::BitVec& next) {
  Waveform w(m.params().samples, m.params().sample_dt);
  model_for(m.params().model).solve_wire(m, i, prev, next, w.data());
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
    const std::uint64_t gen = bus.defect_generation();
    mutate(bus);
    EXPECT_GT(bus.defect_generation(), gen);
    EXPECT_EQ(bus.cache_entries(), 0u);
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
  // Long waveforms shrink the entry cap below the distinct keys of one
  // transition: the overflow wires are solved into scratch, not stored.
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

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const TransitionBatch b = bus.transition_batch(prev, next);
    EXPECT_EQ(bus.cache_entries(), cap);
    for (std::size_t i = 0; i < p.n_wires; ++i) {
      ASSERT_TRUE(same_bits(b.wire(i), direct_solve(ref, i, prev, next)))
          << "wire " << i;
    }
  }
  // Round 1 stored the first `cap` wires; round 2 hits exactly those.
  EXPECT_EQ(bus.cache_hits(), cap);
  EXPECT_EQ(bus.cache_misses(), 2 * p.n_wires - cap);

  // The owning entry point solves an unstored wire straight into its
  // result.
  const std::size_t last = p.n_wires - 1;
  EXPECT_TRUE(same_bits(bus.wire_response(last, prev, next),
                        direct_solve(ref, last, prev, next)));
  EXPECT_EQ(bus.cache_entries(), cap);
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

}  // namespace
}  // namespace jsi::si
