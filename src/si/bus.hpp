#ifndef JSI_SI_BUS_HPP
#define JSI_SI_BUS_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/events.hpp"
#include "si/bus_model.hpp"
#include "si/detectors.hpp"
#include "si/probe.hpp"
#include "si/recipe.hpp"
#include "si/waveform.hpp"
#include "sim/time.hpp"
#include "util/bitvec.hpp"
#include "util/logic.hpp"

namespace jsi::si {

class InterconnectModel;

/// One wire of a TransitionBatch, as the waveform store serves it: the
/// wire's recipe, its waveform's final sample, and the verdict memo of
/// its store entry.
struct WireEntry {
  /// The store's key, or — for a wire that missed a full store — the
  /// bus's own copy of its recipe.
  const WireRecipe* recipe = nullptr;
  /// The waveform's last sample: the value `settled_logic` reads.
  double final_sample = 0.0;
  /// The entry's verdict memo; nullptr for a wire the store did not take.
  VerdictSlot* slot = nullptr;
};

/// One evaluated bus transition: an entry per wire, in bus-owned
/// storage. Non-owning — the batch (and every recipe and slot pointer in
/// it) is valid until the owning `CoupledBus`'s next `transition_batch`
/// call, `clear_cache`, clone or destruction. No wire's samples are
/// rendered: `CoupledBus::judge` decides verdicts from the recipe, and
/// `wire_response()` / `transition()` render on demand.
struct TransitionBatch {
  const WireEntry* entries = nullptr;
  std::size_t n_wires = 0;

  const WireEntry& entry(std::size_t i) const { return entries[i]; }
  VerdictSlot* slot(std::size_t i) const { return entries[i].slot; }
};

/// Analytic coupled-RC(+L) model of the bus between two cores.
///
/// For each bus transition `prev -> next` the model produces the receiving-
/// end voltage waveform of every wire:
///
///  * a **switching** wire follows a single-pole exponential whose time
///    constant includes the Miller-weighted coupling capacitance (factor 0
///    toward a neighbor switching the same way, 1 toward a quiet neighbor,
///    2 toward an opposite-phase neighbor) — this reproduces the Rs/Fs
///    delay push-out of the MA fault model. With `l_wire > 0` an
///    underdamped second-order response adds overshoot/ringing.
///  * a **quiet** wire stays at its rail plus the superposed
///    double-exponential crosstalk glitch injected by each switching
///    neighbor through the pair's coupling capacitor — the Pg/Ng family.
///
/// Manufacturing defects are injected by scaling a pair's coupling
/// capacitance and/or adding series resistance to a wire (resistive open /
/// weak driver), which is exactly the defect class the paper targets:
/// "process variations and manufacturing defects may lead to an unexpected
/// increase in coupling capacitances".
///
/// Internally this is a facade over a `BusModel` (SoA electrical state),
/// the bus's `InterconnectModel`, and one waveform store keyed by each
/// wire's recipe: an entry holds the recipe, its waveform's final sample
/// and a verdict memo, and no samples. Every lookup entry point —
/// `transition_batch()` (the hot path, which renders nothing),
/// `wire_response()` and `transition()` (which render on demand) — goes
/// through that store.
class CoupledBus {
 public:
  explicit CoupledBus(BusParams p);

  /// Deep copy for per-shard use: electrical state, injected defects and
  /// the waveform store (entries with their verdict slots *and* the
  /// hit/miss and fallback counters) are carried over, so a clone of a
  /// warmed bus starts warm and keeps the verdicts already judged — also
  /// through defects injected into the clone afterwards.
  /// The observability sink is deliberately NOT carried over — a clone
  /// lives on another worker thread, and sharing the source's sink would
  /// race; attach a thread-local sink with set_sink() after cloning. The
  /// batch storage, the render scratch and the window table are per-clone
  /// (fresh and empty), so two clones never alias storage.
  CoupledBus clone() const;

  const BusParams& params() const { return model_.params(); }
  std::size_t n() const { return model_.n(); }

  /// The electrical half (params + defect state as SoA arrays).
  const BusModel& model() const { return model_; }

  // ---- defect / process-variation injection -------------------------------
  //
  // The store is keyed by each wire's electrical inputs, so no mutator
  // touches it: an entry stays exact under every defect state. Each
  // mutator forgets the window table, whose codes stand for recipes of
  // the state before it.

  /// Multiply the coupling capacitance of adjacent pair `pair` = (pair,
  /// pair+1) by `factor`. Cumulative.
  void scale_coupling(std::size_t pair, double factor) {
    model_.scale_coupling(pair, factor);
    windows_.forget();
  }

  /// Add series resistance to `wire` (resistive open, weak driver).
  void add_series_resistance(std::size_t wire, double ohms) {
    model_.add_series_resistance(wire, ohms);
    windows_.forget();
  }

  /// Composite crosstalk defect around `wire`: scales both adjacent
  /// couplings by `severity` and weakens the wire's driver proportionally.
  /// `severity` 1.0 is a no-op; ~5+ produces detectable glitches with the
  /// default detector thresholds.
  void inject_crosstalk_defect(std::size_t wire, double severity) {
    model_.inject_crosstalk_defect(wire, severity);
    windows_.forget();
  }

  /// Remove all injected defects.
  void clear_defects() {
    model_.clear_defects();
    windows_.forget();
  }

  // ---- electrical queries --------------------------------------------------

  /// Effective coupling capacitance of adjacent pair `pair` [F].
  double coupling(std::size_t pair) const { return model_.coupling(pair); }

  /// Total series resistance of `wire` including defects [Ohm].
  double resistance(std::size_t wire) const {
    return model_.resistance(wire);
  }

  /// Total capacitance seen by `wire` (ground + both couplings) [F].
  double total_cap(std::size_t wire) const { return model_.total_cap(wire); }

  /// Self time constant R*C of `wire` with current defects [s].
  double self_tau(std::size_t wire) const { return model_.self_tau(wire); }

  /// Defect-free 50% delay of `wire` — the designer's timing expectation
  /// from which the SD cell's skew-immune window is budgeted.
  sim::Time nominal_delay(std::size_t wire) const {
    return model_.nominal_delay(wire);
  }

  // ---- simulation ----------------------------------------------------------

  /// Receiving-end waveform of wire `i` for bus transition `prev -> next`
  /// (bit vectors of width n, bit k = logic level of wire k), rendered
  /// from the recipe the store looks up.
  Waveform wire_response(std::size_t i, const util::BitVec& prev,
                         const util::BitVec& next) const;

  /// All wire waveforms for one bus transition, rendered on demand.
  std::vector<Waveform> transition(const util::BitVec& prev,
                                   const util::BitVec& next) const;

  /// All wires of one bus transition as store entries — recipe, final
  /// sample and verdict slot — rendering nothing (a wire that misses a
  /// full store gets an entry with no slot). See TransitionBatch for
  /// lifetime.
  ///
  /// A store hit costs O(1) per wire here. Wire i's recipe reads only the
  /// bus's electrical state and the driven levels before and after of
  /// wires i-2 .. i+2; those ten bits are the wire's *window code* (a
  /// wire past either edge reads as 0). The bus keeps one table per wire,
  /// indexed by window code, holding the entry the wire's recipe found
  /// the last time it had that code. A table hit counts as the store hit
  /// the recipe lookup would have counted; a table miss builds the recipe
  /// and looks it up, then records the entry (never a full store's
  /// nullptr).
  TransitionBatch transition_batch(const util::BitVec& prev,
                                   const util::BitVec& next) const;

  /// The ND and SD verdicts of batch wire `w` under the cells' params
  /// (NdCell::violates and SdCell::violates on its rendered waveform,
  /// under the recipe's driven levels). Served from the wire's slot when
  /// it was filled under params equal to the cells'; otherwise decided
  /// from the recipe by a WireProbe and recorded in the slot. A verdict
  /// no probe can prove (see WireProbe) is a fallback: the wire is
  /// rendered into the bus's scratch and scanned in full.
  Verdicts judge(const NdCell& nd, const SdCell& sd, const WireEntry& w) const;

  /// Logic value a receiver reads once the waveform settles (the
  /// interconnect model's receiver threshold on the final sample —
  /// vdd/2 for rc_full_swing, the level-converter Vt for low_swing).
  util::Logic settled_logic(double final_sample) const;
  util::Logic settled_logic(WaveformView w) const {
    return settled_logic(w.final_value());
  }

  /// Wire i's recipe for prev -> next, built without a store lookup.
  WireRecipe recipe(std::size_t i, const util::BitVec& prev,
                    const util::BitVec& next) const;

  /// A probe of `r` on this bus's sample grid; `r` must outlive it.
  WireProbe probe(const WireRecipe& r) const {
    return WireProbe(r, params().samples, params().sample_dt);
  }

  /// `r` rendered into the bus's scratch: the fallback for what no probe
  /// decides, counted in probe_fallbacks(). Valid until the next call.
  WaveformView render_fallback(const WireRecipe& r) const;

  // ---- waveform store -------------------------------------------------------
  //
  // One entry per distinct wire recipe (see WireRecipe): the model's
  // `recipe()` gathers a wire's electrical inputs, and the store looks
  // them up by their exact bits. A miss stores the recipe with its
  // waveform's final sample, which a WireProbe computes from the recipe
  // alone; no entry holds samples. Equal wires of one transition, of
  // other transitions and of other defect states therefore share one
  // entry, and no entry ever goes stale. Entries are only dropped by
  // clear_cache, which is what lets a batch point into the store while
  // later wires of the same transition miss. Each entry carries a
  // VerdictSlot that judge() fills, so a recipe is judged once per param
  // set, not once per observation. The store holds at most
  // kMaxStoreEntries entries: a miss that finds it full is not inserted.
  // Hit/miss counters survive clear_cache (they meter the workload, not
  // the store contents) and count wires only.

  /// The most entries one bus's store holds. An entry is its recipe, its
  /// final sample and its verdict slot (about 210 B, 230 B in its hash
  /// node), so a full store takes about 16 MiB whatever the bus's sample
  /// count. The bound keeps a bus that goes through many defect states
  /// bounded and is far above any shipped working set — a
  /// `random_defects` die keeps 54 entries, the n=64 Table 5 sessions 20.
  /// Outside it, and bounded by the bus's shape, sit transition_batch's
  /// storage (n entries, and n recipes for wires that miss a full store),
  /// the last fallback's render scratch (`samples` doubles), and the
  /// window table (an 8 KiB row index from the first batch, plus a row of
  /// n entry pointers per window code met: at most 8 KiB per wire, so
  /// 512 KiB at n=64 and 8 MiB at the parser's 1,024-wire cap).
  static constexpr std::size_t kMaxStoreEntries = std::size_t{1} << 16;

  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_misses() const { return cache_misses_; }

  /// hits / (hits + misses), 0 when nothing was looked up yet.
  double cache_hit_rate() const;

  /// Judgments and probe queries that no probe could decide, so the
  /// wire was rendered and scanned (see render_fallback). Survives
  /// clear_cache and is carried by clones, like the hit/miss counters.
  std::uint64_t probe_fallbacks() const { return probe_fallbacks_; }

  /// Entries currently stored.
  std::size_t cache_entries() const { return store_.size(); }

  /// Drop every store entry, and the window table that points at them
  /// (counters are kept). Deliberately non-const: flushing is a real
  /// state mutation, and per-shard clones must not be able to reset each
  /// other through a const reference.
  void clear_cache();

  /// Push the 6*n MA vector pairs of this bus through the store, so every
  /// entry a G-SITEST session needs is resident. The campaign runner
  /// calls this on the prototype so every per-unit clone starts warm.
  /// Stops early once the store is full.
  void warm_ma_pairs();

  /// Attach an observability sink. Every lookup call (transition_batch,
  /// wire_response, transition) reports one CacheLookup record named
  /// "si.store" after its fill: a = wires served from the store, b = wires
  /// that missed. nullptr (default) disables emission.
  void set_sink(obs::Sink* sink) { sink_ = sink; }

 private:
  /// Per-call lookup tally, emitted as one CacheLookup record.
  struct Tally {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
  };

  void require_vector_widths(const util::BitVec& prev,
                             const util::BitVec& next) const;

  bool store_full() const { return store_.size() >= kMaxStoreEntries; }

  /// What the store keeps of one recipe (its key).
  struct Entry {
    double final_sample = 0.0;
    VerdictSlot verdict;
  };
  using Store = std::unordered_map<WireRecipe, Entry, RecipeHash, SameRecipe>;
  using Stored = Store::value_type;

  /// The store entry of `r`, inserted on a miss; nullptr when the miss
  /// found the store full.
  Stored* find_or_fill(const WireRecipe& r, Tally& t) const;

  /// The final sample of `r`, cross-checked against a render while a
  /// ProbeAudit is installed.
  double final_sample(const WireRecipe& r) const;

  /// Look up wire i's entry (counting it in `t`), then render its
  /// waveform.
  Waveform render_wire(std::size_t i, const util::BitVec& prev,
                       const util::BitVec& next, Tally& t) const;

  /// Count the tally into the bus counters and emit its record.
  void finish_lookup(const Tally& t) const;

  /// transition_batch's per-wire window tables, stored by code: wire i's
  /// entry for window code c at rows[c][i], nullptr until found. A row
  /// of n pointers is allocated the first time its code occurs: a bus
  /// meets few codes (wires far from a pattern's victim share one), so a
  /// batch mostly reads one row from left to right, and the table stays
  /// small beside the data the TAP engine walks. The pointers name this
  /// bus's own store entries, so a copy or a move never takes them
  /// along: the receiving bus starts without a table.
  struct WindowTable {
    std::vector<std::unique_ptr<Stored*[]>> rows;

    WindowTable() = default;
    WindowTable(const WindowTable&) {}
    WindowTable& operator=(const WindowTable&) {
      forget();
      return *this;
    }
    void forget() { rows.clear(); }
  };

  BusModel model_;
  const InterconnectModel* solver_;  // model_for(params().model)

  mutable Store store_;
  mutable std::uint64_t cache_hits_ = 0;
  mutable std::uint64_t cache_misses_ = 0;
  mutable std::uint64_t probe_fallbacks_ = 0;

  // transition_batch storage: the entries it returns, the recipes of
  // wires that missed a full store (wire i at i; sized once, so pointers
  // into it stay put), and the window tables. Beside them, the scratch
  // render_fallback renders into.
  mutable std::vector<WireEntry> batch_;
  mutable std::vector<WireRecipe> unstored_;
  mutable WindowTable windows_;
  mutable Waveform scratch_;

  obs::Sink* sink_ = nullptr;
};

/// True when `bus` is non-null and models exactly `expected` wires — the
/// "may I clone this prototype?" predicate shared by the campaign
/// runner's per-unit bus factory and the scenario builder.
bool matches_width(const CoupledBus* bus, std::size_t expected);

/// Throw std::invalid_argument unless `bus.n() == expected`. The single
/// checked width gate SiSocDevice applies to every bus handed in; the
/// message names the bus's interconnect model kind, e.g.
/// `low_swing bus width 16 != expected 8`.
void require_width(const CoupledBus& bus, std::size_t expected);

}  // namespace jsi::si

#endif  // JSI_SI_BUS_HPP
