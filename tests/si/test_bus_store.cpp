// Tests for the CoupledBus waveform store, keyed by each wire's recipe:
// exactness of every lookup entry point against `render(recipe(...))`
// called directly — the on-demand renders of wire_response() and
// transition() sample for sample, and each batch entry's recipe and
// final sample — across widths, both models, ringing, stacked and
// asymmetric defects, random traffic and clones that inject defects of
// their own; the recipe key itself (every field compared by its bits,
// and wires that differ in one input only kept apart), hit/miss metering
// and its CacheLookup records, entries that survive every defect mutation,
// clone warm-carry and independence, the MA warm-up, wide buses, the
// entry bound (reached by real traffic, and independent of the sample
// count), batch pointer lifetimes, and transition_batch's window table
// (through every state change, and in copies that outlive their source). The
// verdict slots riding on the entries are pinned the same way: every
// judged ND/SD verdict, memoized or fresh, equals a full scan of a
// directly rendered waveform, slots follow their entries' lifetime, and
// sessions flag identically on a warm bus and a fresh one.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

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

/// The reference side: wire i's recipe rendered directly, no store.
Waveform direct_solve(const BusModel& m, std::size_t i,
                      const util::BitVec& prev, const util::BitVec& next) {
  return render(model_for(m.params().model).recipe(m, i, prev, next),
                m.params().samples, m.params().sample_dt);
}

bool same_bits(WaveformView a, WaveformView b) {
  return a.samples() == b.samples() &&
         std::memcmp(a.data(), b.data(), a.samples() * sizeof(double)) == 0;
}

/// A batch entry's final sample is the rendered waveform's last, bit for
/// bit.
bool same_final(const WireEntry& e, WaveformView want) {
  return std::bit_cast<std::uint64_t>(e.final_sample) ==
         std::bit_cast<std::uint64_t>(want.final_value());
}

/// A batch entry carries wire i's recipe on `ref` for prev -> next.
bool has_recipe(const WireEntry& e, const BusModel& ref, std::size_t i,
                const util::BitVec& prev, const util::BitVec& next) {
  return SameRecipe{}(*e.recipe,
                      model_for(ref.params().model).recipe(ref, i, prev, next));
}

/// Two batch entries hold bit-equal recipes and final samples.
bool same_entry(const WireEntry& a, const WireEntry& b) {
  return SameRecipe{}(*a.recipe, *b.recipe) &&
         std::bit_cast<std::uint64_t>(a.final_sample) ==
             std::bit_cast<std::uint64_t>(b.final_sample);
}

/// MA pairs of an n-wire bus plus `extra` seeded random pairs.
std::vector<mafm::VectorPair> ma_and_random_pairs(std::size_t n, int extra,
                                                  std::uint32_t seed) {
  std::vector<mafm::VectorPair> traffic = ma_pairs(n);
  util::Prng rng(seed);
  for (int k = 0; k < extra; ++k) {
    traffic.push_back({random_vec(rng, n), random_vec(rng, n)});
  }
  return traffic;
}

/// Every wire of prev -> next served by `bus` equals the direct solve on
/// `ref`, through all three lookup entry points: the batch entry in its
/// recipe and final sample, the on-demand renders sample for sample.
void expect_exact(const CoupledBus& bus, const BusModel& ref,
                  const util::BitVec& prev, const util::BitVec& next) {
  std::vector<Waveform> want;
  for (std::size_t i = 0; i < bus.n(); ++i) {
    want.push_back(direct_solve(ref, i, prev, next));
  }
  const TransitionBatch b = bus.transition_batch(prev, next);
  for (std::size_t i = 0; i < bus.n(); ++i) {
    ASSERT_TRUE(has_recipe(b.entry(i), ref, i, prev, next))
        << "batch wire " << i;
    ASSERT_TRUE(same_final(b.entry(i), want[i])) << "batch wire " << i;
    ASSERT_TRUE(same_bits(bus.wire_response(i, prev, next), want[i]))
        << "wire_response " << i;
  }
  const std::vector<Waveform> all = bus.transition(prev, next);
  for (std::size_t i = 0; i < bus.n(); ++i) {
    ASSERT_TRUE(same_bits(all[i], want[i])) << "transition wire " << i;
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

/// Judge wire i of `b` (a batch of `bus`) under `s` through its slot.
Verdicts judge_wire(const CoupledBus& bus, const DetectorSettings& s,
                    const TransitionBatch& b, std::size_t i) {
  return bus.judge(NdCell(s.nd), SdCell(s.sd), b.entry(i));
}

bool slot_holds(const VerdictSlot* slot, const DetectorSettings& s) {
  return slot != nullptr && slot->filled && slot->nd_params == s.nd &&
         slot->sd_params == s.sd;
}

TEST(BusStore, EmptyOnConstruction) {
  CoupledBus bus(params_n(8));
  EXPECT_EQ(bus.cache_hits(), 0u);
  EXPECT_EQ(bus.cache_misses(), 0u);
  EXPECT_EQ(bus.cache_entries(), 0u);
  EXPECT_DOUBLE_EQ(bus.cache_hit_rate(), 0.0);
}

TEST(BusStore, RepeatedTransitionHits) {
  CoupledBus bus(params_n(8));
  const BusModel ref(params_n(8));
  util::BitVec prev(8);
  util::BitVec next(8);
  next.set(3, true);

  // Three recipes serve the eight wires: wire 3 rising; wires 2 and 4,
  // equal interior wires each quiet beside it (one aggressor, packed
  // into the first slot whichever side it is on); and wires 0, 1, 5, 6
  // and 7, quiet with no switching neighbour (their level alone).
  bus.transition(prev, next);
  EXPECT_EQ(bus.cache_hits(), 5u);
  EXPECT_EQ(bus.cache_misses(), 3u);
  EXPECT_EQ(bus.cache_entries(), 3u);

  // The other entry points look up the same store: 8 + 1 more hits.
  bus.transition_batch(prev, next);
  bus.wire_response(3, prev, next);
  EXPECT_EQ(bus.cache_hits(), 14u);
  EXPECT_EQ(bus.cache_misses(), 3u);
  EXPECT_EQ(bus.cache_entries(), 3u);

  // The shared entries serve every wire exactly, through every entry
  // point, without a miss.
  expect_exact(bus, ref, prev, next);
  EXPECT_EQ(bus.cache_misses(), 3u);
}

TEST(BusStore, RandomTrafficMatchesDirectSolver) {
  // The key is each wire's recipe; random vector pairs revisit recipes,
  // so hits must serve the same bits a fresh render produces.
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
      << "40 random 10-wire transitions must revisit recipes";
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
      EXPECT_EQ(bus.settled_logic(b.entry(i).final_sample),
                bus.settled_logic(direct_solve(ref, i, prev, next)));
    }
  }
}

TEST(BusStore, EveryMutatorKeepsTheStoreAndServesTheNewState) {
  // An entry is keyed by its electrical inputs, so no mutator drops
  // anything: entries and their verdict slots all stay, and every MA and
  // random transition after each mutation equals a fresh bus carrying the
  // same defects, in entries and in verdicts.
  const auto mutators = std::vector<void (*)(CoupledBus&)>{
      [](CoupledBus& b) { b.scale_coupling(0, 2.0); },
      [](CoupledBus& b) { b.add_series_resistance(1, 100.0); },
      [](CoupledBus& b) { b.inject_crosstalk_defect(3, 5.0); },
      [](CoupledBus& b) { b.clear_defects(); },
  };
  for (const ModelKind model : kAllModelKinds) {
    SCOPED_TRACE(model_kind_name(model));
    BusParams p = params_n(6, 128);
    p.model = model;
    const std::vector<DetectorSettings> grid = detector_grid(p);
    const std::vector<mafm::VectorPair> traffic =
        ma_and_random_pairs(p.n_wires, 8, 0x3E7u);
    CoupledBus bus(p);
    std::size_t applied = 0;
    for (const auto mutate : mutators) {
      SCOPED_TRACE(applied);
      // Fill the store and its slots under the current defects.
      for (const mafm::VectorPair& vp : traffic) {
        const TransitionBatch b = bus.transition_batch(vp.v1, vp.v2);
        for (std::size_t i = 0; i < p.n_wires; ++i) {
          judge_wire(bus, grid[0], b, i);
        }
      }
      const std::size_t entries = bus.cache_entries();
      ASSERT_GT(entries, 0u);
      mutate(bus);
      ++applied;
      EXPECT_EQ(bus.cache_entries(), entries);

      CoupledBus fresh(p);
      for (std::size_t k = 0; k < applied; ++k) mutators[k](fresh);
      for (const mafm::VectorPair& vp : traffic) {
        const TransitionBatch got = bus.transition_batch(vp.v1, vp.v2);
        const TransitionBatch want = fresh.transition_batch(vp.v1, vp.v2);
        for (std::size_t i = 0; i < p.n_wires; ++i) {
          ASSERT_TRUE(same_entry(got.entry(i), want.entry(i)))
              << "wire " << i;
          const Waveform w = direct_solve(fresh.model(), i, vp.v1, vp.v2);
          ASSERT_TRUE(same_final(got.entry(i), w)) << "wire " << i;
          for (const DetectorSettings& s : {grid[0], grid[4]}) {
            const Verdicts v = judge_wire(bus, s, got, i);
            ASSERT_EQ(v, judge_wire(fresh, s, want, i)) << "wire " << i;
            ASSERT_EQ(v, fresh_verdicts(s, w, util::to_logic(vp.v1[i]),
                                        util::to_logic(vp.v2[i])))
                << "wire " << i;
          }
        }
      }
    }
  }
}

TEST(BusStore, DefectServesTheNewElectricalState) {
  BusParams p = params_n(6);
  CoupledBus bus(p);
  util::BitVec prev(6);
  util::BitVec next(6);
  next.set(2, true);

  // Three recipes: wire 2 rising, wires 1 and 3 quiet beside it (equal
  // interior wires), and wires 0, 4 and 5 quiet with no switching
  // neighbour. Three misses, then three and six hits.
  const std::vector<Waveform> clean = bus.transition(prev, next);
  bus.transition(prev, next);
  EXPECT_EQ(bus.cache_hits(), 9u);
  EXPECT_EQ(bus.cache_misses(), 3u);

  bus.inject_crosstalk_defect(2, 6.0);
  // The defect changes the recipe of wire 2 (its R and Miller load) and
  // that of wires 1 and 3 (C_tot, tau_v and the aggressor's C_c and tau),
  // which still share one: two misses. Wires 0, 4 and 5 keep theirs and
  // hit the entry stored before the defect: three hits, and a fourth on
  // wire 3.
  const std::vector<Waveform> defective = bus.transition(prev, next);
  EXPECT_EQ(bus.cache_hits(), 13u);
  EXPECT_EQ(bus.cache_misses(), 5u);
  EXPECT_EQ(bus.cache_entries(), 5u);
  BusModel ref(p);
  ref.inject_crosstalk_defect(2, 6.0);
  bool any_changed = false;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(same_bits(defective[i], direct_solve(ref, i, prev, next)));
    if (!same_bits(defective[i], clean[i])) any_changed = true;
  }
  EXPECT_TRUE(any_changed) << "a severity-6 defect must alter waveforms";

  // Clearing the defects restores the clean recipes, whose entries were
  // never dropped: six hits, no miss, and the clean waveforms bit for bit.
  bus.clear_defects();
  const std::vector<Waveform> restored = bus.transition(prev, next);
  EXPECT_EQ(bus.cache_hits(), 19u);
  EXPECT_EQ(bus.cache_misses(), 5u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(same_bits(restored[i], clean[i])) << "wire " << i;
  }
}

TEST(BusStore, CountersSurviveMutationAndClearCache) {
  CoupledBus bus(params_n(4));
  util::BitVec prev(4);
  util::BitVec next(4);
  next.set(0, true);

  // Three recipes: wire 0 rising, wire 1 quiet beside it, and wires 2
  // and 3 quiet with no switching neighbour. 3 misses + 1 hit, 4 hits.
  bus.transition(prev, next);
  bus.transition(prev, next);
  EXPECT_EQ(bus.cache_hits(), 5u);
  EXPECT_EQ(bus.cache_misses(), 3u);
  EXPECT_EQ(bus.cache_entries(), 3u);

  // A mutation touches neither the counters nor the entries.
  bus.inject_crosstalk_defect(1, 3.0);
  EXPECT_EQ(bus.cache_hits(), 5u);
  EXPECT_EQ(bus.cache_misses(), 3u);
  EXPECT_EQ(bus.cache_entries(), 3u);

  // The defect on wire 1 changes the recipes of wires 0 and 1 (two
  // misses); wires 2 and 3 still have no switching neighbour (two hits).
  bus.transition(prev, next);
  EXPECT_EQ(bus.cache_hits(), 7u);
  EXPECT_EQ(bus.cache_misses(), 5u);
  EXPECT_EQ(bus.cache_entries(), 5u);

  // clear_cache drops the entries and keeps the counters.
  bus.clear_cache();
  EXPECT_EQ(bus.cache_entries(), 0u);
  EXPECT_EQ(bus.cache_hits(), 7u);
  EXPECT_EQ(bus.cache_misses(), 5u);

  // Refill: wires 0, 1 and 2 miss again, wire 3 hits wire 2's entry.
  bus.transition(prev, next);
  EXPECT_EQ(bus.cache_hits(), 8u);
  EXPECT_EQ(bus.cache_misses(), 8u);
}

TEST(BusStore, WarmUpStoresEveryMaWaveform) {
  CoupledBus bus(params_n(8));
  bus.warm_ma_pairs();
  const std::size_t entries = bus.cache_entries();
  EXPECT_GT(entries, 0u);
  // Deduplicated by recipe: far fewer waveforms than 6*n*n wires.
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

  // Fs on victim 5: every wire switches, in three recipes — the falling
  // victim (both neighbours opposite-phase), its rising neighbours 4 and
  // 6 (one opposite-, one same-phase neighbour), and wires 0-3 and 7
  // (rising, no opposite-phase neighbour: tau = R * c_ground each). So
  // the first batch has 3 misses and 5 hits.
  bus.transition_batch(vp.v1, vp.v2);
  ASSERT_EQ(sink.lookups.size(), 1u) << "one record per batch";
  EXPECT_STREQ(sink.lookups[0].name, "si.store");
  EXPECT_EQ(sink.lookups[0].a, 5);
  EXPECT_EQ(sink.lookups[0].b, 3);

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
  // Three recipes (wire 2, wires 1 and 3 beside it, the quiet rest):
  // 3 misses and 3 hits, then 6 hits.
  const std::vector<Waveform> want = bus.transition(prev, next);
  bus.transition(prev, next);
  ASSERT_EQ(bus.cache_entries(), 3u);

  const CoupledBus copy = bus.clone();
  EXPECT_EQ(copy.cache_entries(), bus.cache_entries());
  EXPECT_EQ(copy.cache_hits(), bus.cache_hits());
  EXPECT_EQ(copy.cache_misses(), bus.cache_misses());
  EXPECT_EQ(copy.coupling(2), bus.coupling(2));
  EXPECT_EQ(copy.resistance(2), bus.resistance(2));

  // The carried entries are live: a clone of a warm bus starts warm, and
  // serves the same waveforms.
  CoupledBus warm = bus.clone();
  const TransitionBatch got = warm.transition_batch(prev, next);
  EXPECT_EQ(warm.cache_hits(), bus.cache_hits() + 6);
  EXPECT_EQ(warm.cache_misses(), bus.cache_misses());
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(same_final(got.entry(i), want[i])) << "wire " << i;
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
  // No width limit: keys are per-wire recipes, not packed vectors.
  for (const std::size_t n : {65u, 128u}) {
    SCOPED_TRACE(n);
    const BusParams p = params_n(n, 32);
    CoupledBus bus(p);
    bus.warm_ma_pairs();
    const std::uint64_t hits = bus.cache_hits();
    const std::uint64_t misses = bus.cache_misses();
    ASSERT_GT(bus.cache_entries(), 0u);
    ASSERT_LT(bus.cache_entries(), CoupledBus::kMaxStoreEntries);

    const BusModel ref(p);
    for (const mafm::VectorPair& vp : ma_pairs(n)) {
      const TransitionBatch b = bus.transition_batch(vp.v1, vp.v2);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_TRUE(has_recipe(b.entry(i), ref, i, vp.v1, vp.v2))
            << "wire " << i;
        ASSERT_TRUE(
            same_final(b.entry(i), direct_solve(ref, i, vp.v1, vp.v2)))
            << "wire " << i;
      }
    }
    EXPECT_EQ(bus.cache_misses(), misses);
    EXPECT_EQ(bus.cache_hits(), hits + 6u * n * n);
  }
}

TEST(BusStore, TrafficPastTheBudgetStaysExactAtTheCap) {
  // Real traffic fills the store to kMaxStoreEntries, and the wires past
  // it stay exact. Each round gives every wire a series resistance no
  // other (round, wire) pair has, so each of a round's recipes is new:
  // even wires rise and each odd wire stays quiet between two of them,
  // so the stored and the unstored side each see switching wires and
  // glitches. The cap falls inside the last round's transition.
  const std::size_t n = 60;
  const BusParams p = params_n(n, 16);
  CoupledBus bus(p);
  util::BitVec prev(n);
  util::BitVec next(n);
  for (std::size_t i = 0; i < n; i += 2) next.set(i, true);
  const auto defects = [n](auto& b, std::size_t round) {
    b.clear_defects();
    for (std::size_t w = 0; w < n; ++w) {
      b.add_series_resistance(w, 1.0 + static_cast<double>(round * n + w));
    }
  };
  const std::size_t rounds = CoupledBus::kMaxStoreEntries / n;
  for (std::size_t round = 0; round < rounds; ++round) {
    defects(bus, round);
    bus.transition_batch(prev, next);
  }
  ASSERT_EQ(bus.cache_hits(), 0u) << "every (round, wire) has its own recipe";
  ASSERT_EQ(bus.cache_entries(), rounds * n);

  // The last round: the first wires take what is left of the bound, the
  // rest get entries with no slot, judged from their recipes every time,
  // and are not stored.
  const std::size_t room = CoupledBus::kMaxStoreEntries - rounds * n;
  ASSERT_GT(room, 0u);
  ASSERT_LT(room, n);
  defects(bus, rounds);
  BusModel ref(p);
  defects(ref, rounds);
  const NdCell nd;
  const SdCell sd;
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass);
    const TransitionBatch b = bus.transition_batch(prev, next);
    EXPECT_EQ(bus.cache_entries(), CoupledBus::kMaxStoreEntries);
    for (std::size_t i = 0; i < n; ++i) {
      const Waveform want = direct_solve(ref, i, prev, next);
      ASSERT_TRUE(has_recipe(b.entry(i), ref, i, prev, next)) << "wire " << i;
      ASSERT_TRUE(same_final(b.entry(i), want)) << "wire " << i;
      EXPECT_EQ(b.slot(i) != nullptr, i < room) << "wire " << i;
      const util::Logic init = util::to_logic(prev[i]);
      const util::Logic exp = util::to_logic(next[i]);
      EXPECT_EQ(bus.judge(nd, sd, b.entry(i)),
                (Verdicts{nd.violates(want, init, exp),
                          sd.violates(want, init, exp)}))
          << "wire " << i;
    }
  }
  // The second pass hits exactly the stored wires, through the window
  // table, and every unstored wire misses again.
  EXPECT_EQ(bus.cache_hits(), room);
  EXPECT_EQ(bus.cache_misses(), (rounds + 2) * n - room);

  // The owning entry point renders an unstored wire straight into its
  // result, and stores nothing.
  EXPECT_TRUE(same_bits(bus.wire_response(n - 1, prev, next),
                        direct_solve(ref, n - 1, prev, next)));
  EXPECT_EQ(bus.cache_entries(), CoupledBus::kMaxStoreEntries);
}

TEST(BusStore, LongWaveformsStoreEveryRecipe) {
  // The bound counts entries, and an entry holds no samples, so a bus
  // of long waveforms stores as many recipes as any other: 20 wires of
  // 2^19 samples, each with its own recipe, take 20 entries.
  const BusParams p = params_n(20, std::size_t{1} << 19);
  CoupledBus bus(p);
  BusModel ref(p);
  for (std::size_t w = 0; w < p.n_wires; ++w) {
    const double ohms = 50.0 * static_cast<double>(w + 1);
    bus.add_series_resistance(w, ohms);
    ref.add_series_resistance(w, ohms);
  }
  util::BitVec prev(p.n_wires);
  util::BitVec next(p.n_wires);
  for (std::size_t i = 0; i < p.n_wires; i += 2) next.set(i, true);

  const NdCell nd;
  const SdCell sd;
  const TransitionBatch b = bus.transition_batch(prev, next);
  EXPECT_EQ(bus.cache_entries(), p.n_wires);
  for (std::size_t i = 0; i < p.n_wires; ++i) {
    const Waveform want = direct_solve(ref, i, prev, next);
    ASSERT_TRUE(same_final(b.entry(i), want)) << "wire " << i;
    ASSERT_NE(b.slot(i), nullptr) << "wire " << i;
    const util::Logic init = util::to_logic(prev[i]);
    const util::Logic exp = util::to_logic(next[i]);
    EXPECT_EQ(bus.judge(nd, sd, b.entry(i)),
              (Verdicts{nd.violates(want, init, exp),
                        sd.violates(want, init, exp)}))
        << "wire " << i;
  }
  bus.transition_batch(prev, next);
  EXPECT_EQ(bus.cache_hits(), p.n_wires);
  EXPECT_EQ(bus.cache_misses(), p.n_wires);
}

TEST(BusStore, BatchPointersSurviveLaterMissesOfTheSameTransition) {
  // Early wires hit stored entries while every later wire misses and
  // inserts (rehashing the store many times over): the pointers handed
  // out for the early wires must still read the right samples.
  const std::size_t n = 64;
  const BusParams p = params_n(n, 128);
  CoupledBus bus(p);
  BusModel ref(p);
  // A resistive defect of its own size on every wire gives every wire its
  // own recipe, so no later wire hits an earlier one's entry.
  for (std::size_t w = 0; w < n; ++w) {
    const double ohms = 10.0 * static_cast<double>(w + 1);
    bus.add_series_resistance(w, ohms);
    ref.add_series_resistance(w, ohms);
  }
  util::BitVec prev(n);
  util::BitVec next(n);
  for (std::size_t i = 0; i < n; i += 2) next.set(i, true);

  // Store only the first four wires' recipes.
  for (std::size_t i = 0; i < 4; ++i) bus.wire_response(i, prev, next);
  ASSERT_EQ(bus.cache_entries(), 4u);

  const TransitionBatch b = bus.transition_batch(prev, next);
  EXPECT_EQ(bus.cache_entries(), n);
  EXPECT_EQ(bus.cache_hits(), 4u);
  EXPECT_EQ(bus.cache_misses(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(has_recipe(b.entry(i), ref, i, prev, next)) << "wire " << i;
    ASSERT_TRUE(same_final(b.entry(i), direct_solve(ref, i, prev, next)))
        << "wire " << i;
  }
}

// ---- the recipe key ---------------------------------------------------------

TEST(BusStore, StoreEqualsDirectRendersAcrossWidthsModelsAndDefects) {
  // Store vs direct render, bit for bit, through every lookup entry
  // point: a warmed clean bus, then stacked and asymmetric defects (left
  // C_c != right C_c, so a quiet wire's aggressors are not mirror
  // images), then a clone that injects defects of its own after cloning
  // — which keeps the entries it carried — while its source still serves
  // the source's state.
  const auto stacked = [](auto& b, std::size_t n) {
    b.scale_coupling(0, 2.5);
    b.inject_crosstalk_defect(n / 2, 4.0);
    b.add_series_resistance(n / 2, 300.0);
    if (n > 3) b.scale_coupling(n - 2, 0.4);
  };
  const auto after_clone = [](auto& b, std::size_t n) {
    b.inject_crosstalk_defect(0, 3.0);
    b.add_series_resistance(n - 1, 700.0);
  };
  for (const ModelKind model : kAllModelKinds) {
    for (const double l_wire : {0.0, 20e-9}) {
      // 63, 65 and 130 wires put window codes across BitVec words.
      for (const std::size_t n : {2u, 3u, 5u, 8u, 16u, 63u, 64u, 65u, 130u}) {
        SCOPED_TRACE(::testing::Message() << model_kind_name(model) << " n="
                                          << n << " l=" << l_wire);
        BusParams p = params_n(n, 96);
        p.model = model;
        p.l_wire = l_wire;
        const std::vector<mafm::VectorPair> traffic =
            ma_and_random_pairs(n, 12, 0xD1FFu + static_cast<unsigned>(n));
        CoupledBus bus(p);
        BusModel ref(p);
        bus.warm_ma_pairs();
        for (const mafm::VectorPair& vp : traffic) {
          expect_exact(bus, ref, vp.v1, vp.v2);
        }

        stacked(bus, n);
        stacked(ref, n);
        for (const mafm::VectorPair& vp : traffic) {
          expect_exact(bus, ref, vp.v1, vp.v2);
        }

        CoupledBus copy = bus.clone();
        BusModel copy_ref = ref;
        after_clone(copy, n);
        after_clone(copy_ref, n);
        EXPECT_EQ(copy.cache_entries(), bus.cache_entries());
        const std::uint64_t copy_hits = copy.cache_hits();
        for (const mafm::VectorPair& vp : traffic) {
          expect_exact(copy, copy_ref, vp.v1, vp.v2);
          expect_exact(bus, ref, vp.v1, vp.v2);
        }
        EXPECT_GT(copy.cache_hits(), copy_hits);
      }
    }
  }
}

// ---- the window table -------------------------------------------------------

/// Every wire of batch `b` (for vp.v1 -> vp.v2) carries its recipe on
/// `ref` and the direct render's final sample, and two wires share a
/// verdict slot exactly when their recipes are bit-equal.
void expect_batch_exact(const TransitionBatch& b, const BusModel& ref,
                        const mafm::VectorPair& vp) {
  const InterconnectModel& model = model_for(ref.params().model);
  std::map<RecipeBits, const VerdictSlot*> slot_of;
  std::map<const VerdictSlot*, RecipeBits> recipe_of;
  for (std::size_t i = 0; i < b.n_wires; ++i) {
    ASSERT_TRUE(has_recipe(b.entry(i), ref, i, vp.v1, vp.v2))
        << "batch wire " << i;
    ASSERT_TRUE(same_final(b.entry(i), direct_solve(ref, i, vp.v1, vp.v2)))
        << "batch wire " << i;
    ASSERT_NE(b.slot(i), nullptr) << "wire " << i;
    const RecipeBits r = recipe_bits(model.recipe(ref, i, vp.v1, vp.v2));
    const auto [s, fresh_recipe] = slot_of.emplace(r, b.slot(i));
    ASSERT_EQ(s->second, b.slot(i)) << "wire " << i << " has another slot "
                                       "than an earlier wire of its recipe";
    const auto [q, fresh_slot] = recipe_of.emplace(b.slot(i), r);
    ASSERT_TRUE(q->second == r) << "wire " << i << " shares a slot with an "
                                   "earlier wire of another recipe";
  }
}

TEST(BusStore, WindowTableFollowsEveryStateChange) {
  // transition_batch serves a wire from its window table when it had the
  // same window code before. Interleave traffic with every mutator,
  // clear_defects, clear_cache and a clone that injects defects of its
  // own: after each step every batch wire must equal its direct render,
  // share a slot with exactly the wires of its recipe, and leave the
  // counters where a twin fed the same traffic through transition() —
  // the plain recipe lookup — leaves them.
  const std::size_t n = 70;  // window codes across BitVec words
  for (const ModelKind model : kAllModelKinds) {
    SCOPED_TRACE(model_kind_name(model));
    BusParams p = params_n(n, 48);
    p.model = model;
    const std::vector<mafm::VectorPair> traffic =
        ma_and_random_pairs(n, 24, 0x7AB1Eu);
    CoupledBus bus(p);
    CoupledBus twin(p);
    BusModel ref(p);
    const auto round = [&](const char* step, CoupledBus& b, CoupledBus& t,
                           const BusModel& r) {
      SCOPED_TRACE(step);
      for (const mafm::VectorPair& vp : traffic) {
        expect_batch_exact(b.transition_batch(vp.v1, vp.v2), r, vp);
        t.transition(vp.v1, vp.v2);
        if (::testing::Test::HasFatalFailure()) return;
      }
      EXPECT_EQ(b.cache_hits(), t.cache_hits());
      EXPECT_EQ(b.cache_misses(), t.cache_misses());
    };
    const auto on_all = [&](auto change) {
      change(bus);
      change(twin);
      change(ref);
    };
    round("clean", bus, twin, ref);
    on_all([](auto& b) { b.scale_coupling(n / 2, 3.0); });
    round("scale_coupling", bus, twin, ref);
    on_all([](auto& b) { b.add_series_resistance(n / 3, 450.0); });
    round("add_series_resistance", bus, twin, ref);
    on_all([](auto& b) { b.inject_crosstalk_defect(n - 3, 6.0); });
    round("inject_crosstalk_defect", bus, twin, ref);
    on_all([](auto& b) { b.clear_defects(); });
    round("clear_defects", bus, twin, ref);
    on_all([](auto& b) { b.inject_crosstalk_defect(1, 4.0); });
    round("defect again", bus, twin, ref);
    bus.clear_cache();
    twin.clear_cache();
    ASSERT_EQ(bus.cache_entries(), 0u);
    round("clear_cache", bus, twin, ref);

    // A clone serves its own entries, so judging through its slots leaves
    // every slot of the source unfilled (nothing here judges the source).
    CoupledBus copy = bus.clone();
    CoupledBus copy_twin = twin.clone();
    BusModel copy_ref = ref;
    round("clone", copy, copy_twin, copy_ref);
    const NdCell nd(NdParams{});
    const SdCell sd(SdParams{});
    for (const mafm::VectorPair& vp : traffic) {
      const TransitionBatch b = copy.transition_batch(vp.v1, vp.v2);
      for (std::size_t i = 0; i < n; ++i) {
        copy.judge(nd, sd, b.entry(i));
      }
      const TransitionBatch src = bus.transition_batch(vp.v1, vp.v2);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_FALSE(src.slot(i)->filled) << "the clone judged into the "
                                             "source's slot of wire " << i;
      }
      twin.transition(vp.v1, vp.v2);
      copy_twin.transition(vp.v1, vp.v2);
    }
    const auto after_clone = [](auto& b) {
      b.inject_crosstalk_defect(n / 4, 5.0);
      b.add_series_resistance(n - 1, 700.0);
    };
    after_clone(copy);
    after_clone(copy_twin);
    after_clone(copy_ref);
    round("clone with defects", copy, copy_twin, copy_ref);
    round("source after the clone", bus, twin, ref);
  }
}

TEST(BusStore, ACopyOfAWarmBusOutlivesItsSource) {
  // A copy made by clone(), the copy constructor or copy assignment
  // serves its own entries, never the table of the bus it came from:
  // once that bus is gone (its entries freed, and their memory reused by
  // another bus), every copy still serves exact batches from its store,
  // without a miss. obs_sanitize runs this under ASan.
  const std::size_t n = 65;
  const BusParams p = params_n(n, 64);
  const BusModel ref(p);
  const std::vector<mafm::VectorPair> traffic =
      ma_and_random_pairs(n, 16, 0xC091u);
  std::unique_ptr<CoupledBus> copies[3];
  std::uint64_t misses = 0;
  {
    CoupledBus source(p);
    for (const mafm::VectorPair& vp : traffic) {
      source.transition_batch(vp.v1, vp.v2);
    }
    misses = source.cache_misses();
    copies[0] = std::make_unique<CoupledBus>(source.clone());
    copies[1] = std::make_unique<CoupledBus>(source);
    copies[2] = std::make_unique<CoupledBus>(params_n(3, 8));
    *copies[2] = source;
  }
  CoupledBus other(p);
  other.inject_crosstalk_defect(n / 2, 6.0);
  for (const mafm::VectorPair& vp : traffic) {
    other.transition_batch(vp.v1, vp.v2);
  }
  for (std::size_t c = 0; c < 3; ++c) {
    SCOPED_TRACE(c);
    for (const mafm::VectorPair& vp : traffic) {
      expect_batch_exact(copies[c]->transition_batch(vp.v1, vp.v2), ref, vp);
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(copies[c]->cache_misses(), misses);
  }
}

/// The words in which two recipes differ.
std::vector<std::size_t> differing_words(const WireRecipe& a,
                                         const WireRecipe& b) {
  const RecipeBits x = recipe_bits(a);
  const RecipeBits y = recipe_bits(b);
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (x[k] != y[k]) out.push_back(k);
  }
  return out;
}

/// Word index of the recipe field at byte `offset`.
constexpr std::size_t word_at(std::size_t offset) {
  return offset / sizeof(std::uint64_t);
}

/// Word index of a field (at `offset` in RecipeAggressor) of aggressor
/// `slot`.
constexpr std::size_t aggressor_word(std::size_t slot, std::size_t offset) {
  return word_at(offsetof(WireRecipe, aggressors) +
                 slot * sizeof(RecipeAggressor) + offset);
}

TEST(BusStore, WiresThatDifferInOneInputGetEntriesOfTheirOwn) {
  // Two wires of one transition whose recipes differ in exactly one
  // field, the rest bit-equal (exact binary values, or couplings too
  // small to move any sum they join): a key that ignored that field would
  // serve the first wire's waveform for the second.
  struct Case {
    const char* field;
    std::size_t word;
    BusParams params;
    void (*defects)(CoupledBus&);
    std::vector<std::size_t> prev_high;
    std::vector<std::size_t> next_high;
    std::size_t a;
    std::size_t b;
  };
  BusParams plain = params_n(8, 256);
  BusParams nine = params_n(9, 256);
  // Ringing wires on exact binary values: c_ground = 2u, c_couple = u
  // (u = 2^-44 F) and R = 256 Ohm, so every sum and product below is
  // exact.
  BusParams ringing = params_n(8, 256);
  ringing.l_wire = 20e-9;
  ringing.c_ground = std::ldexp(1.0, -43);
  ringing.c_couple = std::ldexp(1.0, -44);
  ringing.r_driver = 156.0;
  ringing.r_wire = 100.0;
  const std::vector<Case> cases = {
      // Rising between two quiet neighbours vs beside a same-phase one.
      {"tau", word_at(offsetof(WireRecipe, tau)), plain, nullptr, {},
       {1, 4, 5}, 1, 5},
      // A rising edge wire (C_sw = C_tot = 3u) and an interior one with
      // one same-phase neighbour (C_sw = 3u, C_tot = 4u).
      {"c_tot", word_at(offsetof(WireRecipe, c_tot)), ringing, nullptr, {},
       {0, 2, 3}, 0, 2},
      // Rising between two rising neighbours with R = 512 (C_sw = 2u) and
      // between two quiet ones with R = 256 (C_sw = 4u): tau = 1024u and
      // C_tot = 4u for both.
      {"r", word_at(offsetof(WireRecipe, r)), ringing,
       [](CoupledBus& b) { b.add_series_resistance(2, 256.0); }, {},
       {1, 2, 3, 5}, 2, 5},
      // Lone left aggressors through couplings of 1e-20 and 3e-20 C_c.
      {"aggressors[0].cc", aggressor_word(0, offsetof(RecipeAggressor, cc)),
       plain,
       [](CoupledBus& b) {
         b.scale_coupling(1, 1e-20);
         b.scale_coupling(5, 3e-20);
       },
       {}, {1, 5}, 2, 6},
      // Lone left aggressors with a same-phase vs a quiet neighbour.
      {"aggressors[0].tau", aggressor_word(0, offsetof(RecipeAggressor, tau)),
       plain, nullptr, {}, {0, 1, 5}, 2, 6},
      // Lone left aggressors, one rising, one falling.
      {"aggressors[0].direction",
       aggressor_word(0, offsetof(RecipeAggressor, direction)), plain,
       nullptr, {5}, {1}, 2, 6},
      // Equal left aggressors through 1e-20 C_c (their glitch must not
      // swamp the next one); right ones through 1e-20 and 3e-20 C_c.
      {"aggressors[1].cc", aggressor_word(1, offsetof(RecipeAggressor, cc)),
       nine,
       [](CoupledBus& b) {
         b.scale_coupling(1, 1e-20);
         b.scale_coupling(5, 1e-20);
         b.scale_coupling(2, 1e-20);
         b.scale_coupling(6, 3e-20);
       },
       {}, {1, 3, 5, 7}, 2, 6},
      // Right aggressors with a same-phase vs a quiet outer neighbour.
      {"aggressors[1].tau", aggressor_word(1, offsetof(RecipeAggressor, tau)),
       nine, nullptr, {}, {0, 1, 3, 4, 5, 7}, 2, 6},
      // Right aggressors, one rising, one falling.
      {"aggressors[1].direction",
       aggressor_word(1, offsetof(RecipeAggressor, direction)), nine,
       nullptr, {7}, {1, 3, 5}, 2, 6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    CoupledBus bus(c.params);
    if (c.defects) c.defects(bus);
    const std::size_t n = bus.n();
    util::BitVec prev(n);
    util::BitVec next(n);
    for (const std::size_t w : c.prev_high) prev.set(w, true);
    for (const std::size_t w : c.next_high) next.set(w, true);
    const InterconnectModel& im = model_for(c.params.model);
    const WireRecipe ra = im.recipe(bus.model(), c.a, prev, next);
    const WireRecipe rb = im.recipe(bus.model(), c.b, prev, next);
    ASSERT_EQ(differing_words(ra, rb), std::vector<std::size_t>{c.word});
    const Waveform wa = direct_solve(bus.model(), c.a, prev, next);
    const Waveform wb = direct_solve(bus.model(), c.b, prev, next);
    ASSERT_FALSE(same_bits(wa, wb)) << "the field must matter";

    const TransitionBatch batch = bus.transition_batch(prev, next);
    EXPECT_TRUE(SameRecipe{}(*batch.entry(c.a).recipe, ra));
    EXPECT_TRUE(SameRecipe{}(*batch.entry(c.b).recipe, rb));
    EXPECT_TRUE(same_final(batch.entry(c.a), wa));
    EXPECT_TRUE(same_final(batch.entry(c.b), wb));
    EXPECT_NE(batch.slot(c.a), batch.slot(c.b));
  }
}

TEST(BusStore, RecipeKeyComparesEveryFieldByItsBits) {
  WireRecipe base;
  base.prev_level = 1;
  base.v0 = 1.8;
  base.c_tot = 300e-15;
  base.tau = 105e-12;
  base.aggressors[0] = {50e-15, 88e-12, 1.8, -1};
  const RecipeBits bits = recipe_bits(base);
  EXPECT_TRUE(SameRecipe{}(base, base));
  // Changing any one word, set or zero, makes another key.
  for (std::size_t k = 0; k < bits.size(); ++k) {
    SCOPED_TRACE(k);
    RecipeBits flipped = bits;
    flipped[k] ^= 1;
    const WireRecipe other = std::bit_cast<WireRecipe>(flipped);
    EXPECT_FALSE(SameRecipe{}(base, other));
    EXPECT_NE(RecipeHash{}(base), RecipeHash{}(other));
  }
  // Bits, not double ==: -0.0 == 0.0 but they are different keys, and a
  // NaN, which is != itself, still finds its own entry.
  WireRecipe neg = base;
  neg.vf = -0.0;
  EXPECT_FALSE(SameRecipe{}(base, neg));
  WireRecipe nan = base;
  nan.r = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(SameRecipe{}(nan, nan));
  EXPECT_EQ(RecipeHash{}(nan), RecipeHash{}(nan));
}

// ---- verdict slots ----------------------------------------------------------

TEST(BusStore, SlotVerdictsEqualFreshScansOfDirectSolves) {
  struct Case {
    std::size_t n;
    ModelKind model;
    double l_wire;
    bool defects;
  };
  std::vector<Case> cases;
  for (const std::size_t n : {2u, 3u, 8u, 16u, 64u}) {
    cases.push_back({n, ModelKind::RcFullSwing, 0.0, true});
    // 20 nH underdamps the nominal wires (see InductanceCausesOvershoot).
    cases.push_back({n, ModelKind::RcFullSwing, 20e-9, true});
    cases.push_back({n, ModelKind::LowSwing, 0.0, true});
  }
  // A clean 8-wire bus of each model, whose MA traffic shares recipes
  // across victims, so the slots serve many wires per fill.
  cases.push_back({8, ModelKind::RcFullSwing, 0.0, false});
  cases.push_back({8, ModelKind::LowSwing, 0.0, false});
  std::size_t outcomes[2][2] = {};  // [nd|sd][verdict]
  bool rang = false;  // some rising wire of an inductive bus overshot
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << c.n << " " << model_kind_name(c.model)
                 << " l_wire=" << c.l_wire << " defects=" << c.defects);
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
    if (c.defects) {
      stack_defects(bus);
      stack_defects(ref);
    }

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
            const Verdicts got = judge_wire(bus, grid[g], b, i);
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
  const InterconnectModel& im = model_for(p.model);

  const auto fresh = [&](const DetectorSettings& s, std::size_t i) {
    return fresh_verdicts(s, direct_solve(ref, i, vp.v1, vp.v2),
                          util::to_logic(vp.v1[i]), util::to_logic(vp.v2[i]));
  };
  bool a_and_b_differ = false;
  for (std::size_t i = 0; i < p.n_wires; ++i) {
    if (!(fresh(a, i) == fresh(b, i))) a_and_b_differ = true;
  }
  ASSERT_TRUE(a_and_b_differ) << "a stale slot must be visible";

  // One slot per entry, one entry per recipe: `judged` maps each recipe
  // of a bus to the settings its slot was last judged under. Judging
  // wire i under `s` is served exactly when its recipe's slot holds `s`
  // (wires that share a recipe share the slot), and equals a fresh scan
  // either way.
  using Judged = std::map<RecipeBits, const DetectorSettings*>;
  Judged on_bus;
  std::size_t served = 0;
  std::size_t rejudged = 0;
  const auto judge_all = [&](CoupledBus& on, Judged& judged,
                             const DetectorSettings& s) {
    const TransitionBatch tb = on.transition_batch(vp.v1, vp.v2);
    for (std::size_t i = 0; i < p.n_wires; ++i) {
      const RecipeBits key = recipe_bits(im.recipe(ref, i, vp.v1, vp.v2));
      const auto it = judged.find(key);
      const bool want_served = it != judged.end() && it->second == &s;
      ASSERT_EQ(slot_holds(tb.slot(i), s), want_served) << "wire " << i;
      (want_served ? served : rejudged) += 1;
      ASSERT_EQ(judge_wire(on, s, tb, i), fresh(s, i)) << "wire " << i;
      ASSERT_TRUE(slot_holds(tb.slot(i), s)) << "wire " << i;
      judged[key] = &s;
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
  judge_all(bus, on_bus, a);
  judge_all(bus, on_bus, a);
  judge_all(bus, on_bus, b);  // other params: re-judged, not served
  judge_all(bus, on_bus, a);  // and back

  // A clone carries the slots, re-judges under other params, and leaves
  // the source's slots alone.
  CoupledBus copy = bus.clone();
  Judged on_copy = on_bus;
  judge_all(copy, on_copy, a);
  judge_all(copy, on_copy, b);
  judge_all(bus, on_bus, a);

  // No defect mutator drops a slot: entries stay, so a wire whose recipe
  // the mutation left alone is still served, and one whose recipe is new
  // gets a fresh slot (`ref` follows the mutations, so every verdict
  // stays checked). clear_defects brings the clean recipes back, and
  // their slots were never dropped.
  const std::vector<void (*)(CoupledBus&, BusModel&)> mutators = {
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
  };
  const std::size_t served_before = served;
  const std::size_t rejudged_before = rejudged;
  for (const auto mutate : mutators) {
    const std::size_t entries = bus.cache_entries();
    mutate(bus, ref);
    EXPECT_EQ(bus.cache_entries(), entries);
    judge_all(bus, on_bus, a);
    judge_all(bus, on_bus, a);
  }
  EXPECT_GT(rejudged, rejudged_before) << "some mutation made a new recipe";
  EXPECT_GT(served, served_before + mutators.size() * p.n_wires)
      << "some wire kept its slot through a mutation";

  // clear_cache drops every slot with its entry.
  bus.clear_cache();
  on_bus.clear();
  expect_unfilled(bus);
  judge_all(bus, on_bus, a);
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

SessionVerdicts run_multibus_session(core::SiSocDevice& soc,
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

  core::SocConfig mcfg;
  mcfg.n_buses = 3;
  mcfg.n_wires = 6;
  const auto multibus_defects = [&](core::SiSocDevice& soc) {
    defects(soc.bus(0));
    soc.bus(2).inject_crosstalk_defect(4, 8.0);
  };
  const core::ObservationMethod m = core::ObservationMethod::OnceAtEnd;
  core::SiSocDevice warm(mcfg);
  multibus_defects(warm);
  const SessionVerdicts first = run_multibus_session(warm, m);
  const SessionVerdicts second = run_multibus_session(warm, m);
  core::SiSocDevice fresh(mcfg);
  multibus_defects(fresh);
  EXPECT_EQ(second, first);
  EXPECT_EQ(run_multibus_session(fresh, m), first);
  EXPECT_FALSE(first.fired.empty()) << "the defects must be flagged";
}

}  // namespace
}  // namespace jsi::si
