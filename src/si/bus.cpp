#include "si/bus.hpp"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "mafm/fault.hpp"
#include "si/model.hpp"

namespace jsi::si {

namespace {

/// Window codes of one wire: two bits (driven level before, after) for
/// each of wires i-2 .. i+2, the reach of wire i's recipe.
constexpr std::size_t kWindowCodes = std::size_t{1} << 10;

}  // namespace

CoupledBus::CoupledBus(BusParams p)
    : model_(p),
      solver_(&model_for(model_.params().model)),
      store_capacity_(kStoreBudgetBytes /
                      (model_.params().samples * sizeof(double) +
                       sizeof(decltype(store_)::value_type))),
      columns_(model_.params()) {}

CoupledBus CoupledBus::clone() const {
  CoupledBus c = *this;
  c.sink_ = nullptr;  // sinks are thread-local; never shared with a clone
  // The last batch's pointers reference *our* storage; a clone starts
  // with no live batch and no scratch of its own yet (nor a window
  // table, which no copy takes along).
  c.batch_ptrs_.clear();
  c.batch_slots_.clear();
  c.overflow_ = {};
  return c;
}

double CoupledBus::cache_hit_rate() const {
  const std::uint64_t lookups = cache_hits_ + cache_misses_;
  return lookups == 0
             ? 0.0
             : static_cast<double>(cache_hits_) / static_cast<double>(lookups);
}

void CoupledBus::clear_cache() {
  store_.clear();
  columns_.clear();
  windows_.forget();
}

void CoupledBus::warm_ma_pairs() {
  const std::size_t n = model_.n();
  for (const mafm::MaFault f : mafm::kAllFaults) {
    for (std::size_t victim = 0; victim < n; ++victim) {
      // Past the budget a miss is only solved into scratch: stop.
      if (store_full()) return;
      const mafm::VectorPair vp = mafm::vectors_for(f, n, victim);
      transition_batch(vp.v1, vp.v2);
    }
  }
}

void CoupledBus::require_vector_widths(const util::BitVec& prev,
                                       const util::BitVec& next) const {
  if (prev.size() != model_.n() || next.size() != model_.n()) {
    throw std::invalid_argument("vector width != bus width");
  }
}

void CoupledBus::solve(const WireRecipe& r, double* out) const {
  // A new column may take only a slot no waveform holds; find_or_fill
  // inserts a stored wire's entry before rendering it.
  columns_.set_limit(store_capacity_ - store_.size());
  render(r, columns_, out);
}

CoupledBus::Entry* CoupledBus::find_or_fill(const WireRecipe& r,
                                            Tally& t) const {
  const auto it = store_.find(r);
  if (it != store_.end()) {
    ++t.hits;
    return &it->second;
  }
  ++t.misses;
  if (store_full()) return nullptr;
  Entry& e = store_.try_emplace(r).first->second;
  e.wave = Waveform(params().samples, params().sample_dt);
  solve(r, e.wave.data());
  return &e;
}

void CoupledBus::finish_lookup(const Tally& t) const {
  cache_hits_ += static_cast<std::uint64_t>(t.hits);
  cache_misses_ += static_cast<std::uint64_t>(t.misses);
  if (!sink_) return;
  obs::Event e;
  e.kind = obs::EventKind::CacheLookup;
  e.name = "si.store";
  e.a = t.hits;
  e.b = t.misses;
  sink_->on_event(e);
}

void CoupledBus::copy_wire(std::size_t i, const util::BitVec& prev,
                           const util::BitVec& next, double* out,
                           Tally& t) const {
  const WireRecipe r = solver_->recipe(model_, i, prev, next);
  if (const Entry* e = find_or_fill(r, t)) {
    std::memcpy(out, e->wave.data(), params().samples * sizeof(double));
  } else {
    solve(r, out);
  }
}

Waveform CoupledBus::wire_response(std::size_t i, const util::BitVec& prev,
                                   const util::BitVec& next) const {
  require_vector_widths(prev, next);
  Waveform w(params().samples, params().sample_dt);
  Tally t;
  copy_wire(i, prev, next, w.data(), t);
  finish_lookup(t);
  return w;
}

std::vector<Waveform> CoupledBus::transition(const util::BitVec& prev,
                                             const util::BitVec& next) const {
  require_vector_widths(prev, next);
  std::vector<Waveform> out;
  out.reserve(model_.n());
  Tally t;
  for (std::size_t i = 0; i < model_.n(); ++i) {
    copy_wire(i, prev, next,
              out.emplace_back(params().samples, params().sample_dt).data(), t);
  }
  finish_lookup(t);
  return out;
}

TransitionBatch CoupledBus::transition_batch(const util::BitVec& prev,
                                             const util::BitVec& next) const {
  require_vector_widths(prev, next);
  const std::size_t n = model_.n();
  const std::size_t samples = params().samples;
  batch_ptrs_.resize(n);
  batch_slots_.resize(n);
  if (windows_.rows.empty()) windows_.rows.resize(kWindowCodes);
  // Wire j's driven levels before and after, as two bits; a wire past
  // either edge reads as 0.
  const auto levels = [&](std::size_t j) -> std::size_t {
    if (j >= n) return 0;
    return (prev[j] ? 1u : 0u) | (next[j] ? 2u : 0u);
  };
  Tally t;
  // Wire i's window code holds wires i-2 .. i+2 from the low bits up, so
  // each step shifts one wire out and the next one in.
  std::size_t code = levels(0) << 6 | levels(1) << 8;
  for (std::size_t i = 0; i < n; ++i) {
    code = code >> 2 | levels(i + 2) << 8;
    std::unique_ptr<Entry*[]>& row = windows_.rows[code];
    if (!row) row = std::make_unique<Entry*[]>(n);
    Entry*& known = row[i];
    if (known != nullptr) {
      ++t.hits;
    } else {
      const WireRecipe r = solver_->recipe(model_, i, prev, next);
      known = find_or_fill(r, t);
      if (known == nullptr) {
        overflow_.resize(n * samples);
        double* dst = overflow_.data() + i * samples;
        solve(r, dst);
        batch_ptrs_[i] = dst;
        batch_slots_[i] = nullptr;
        continue;
      }
    }
    batch_ptrs_[i] = known->wave.data();
    batch_slots_[i] = &known->verdict;
  }
  finish_lookup(t);
  TransitionBatch b;
  b.ptrs = batch_ptrs_.data();
  b.slots = batch_slots_.data();
  b.n_wires = n;
  b.samples = samples;
  b.dt = params().sample_dt;
  return b;
}

util::Logic CoupledBus::settled_logic(WaveformView w) const {
  return util::to_logic(w.final_value() >=
                        solver_->settled_threshold(model_.params()));
}

bool matches_width(const CoupledBus* bus, std::size_t expected) {
  return bus != nullptr && bus->n() == expected;
}

void require_width(const CoupledBus& bus, std::size_t expected) {
  if (bus.n() != expected) {
    std::ostringstream os;
    os << model_kind_name(bus.params().model) << " bus width " << bus.n()
       << " != expected " << expected;
    throw std::invalid_argument(os.str());
  }
}

}  // namespace jsi::si
