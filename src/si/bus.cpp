#include "si/bus.hpp"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "mafm/fault.hpp"
#include "si/model.hpp"

namespace jsi::si {

namespace {

/// Store key of wire `i` under prev -> next (see the store comment in
/// bus.hpp). Out-of-range positions encode as 0, which the solver ignores.
std::uint64_t neighborhood_key(std::size_t n_wires, std::size_t i,
                               const util::BitVec& prev,
                               const util::BitVec& next) {
  // 5-bit local windows [i-2, i+2]; positions beyond the bus encode as 0.
  std::uint64_t pbits = 0;
  std::uint64_t nbits = 0;
  for (int off = -2; off <= 2; ++off) {
    const long long j = static_cast<long long>(i) + off;
    pbits <<= 1;
    nbits <<= 1;
    if (j >= 0 && j < static_cast<long long>(n_wires)) {
      pbits |= prev[static_cast<std::size_t>(j)] ? 1u : 0u;
      nbits |= next[static_cast<std::size_t>(j)] ? 1u : 0u;
    }
  }
  return (static_cast<std::uint64_t>(i) << 10) | (pbits << 5) | nbits;
}

}  // namespace

CoupledBus::CoupledBus(BusParams p)
    : model_(p),
      store_capacity_(kStoreBudgetBytes /
                      (model_.params().samples * sizeof(double) +
                       sizeof(decltype(store_)::value_type))),
      columns_(model_.params()) {}

CoupledBus CoupledBus::clone() const {
  CoupledBus c = *this;
  c.sink_ = nullptr;  // sinks are thread-local; never shared with a clone
  // The last batch's pointers reference *our* storage; a clone starts
  // with no live batch and no scratch of its own yet.
  c.batch_ptrs_.clear();
  c.batch_slots_.clear();
  c.overflow_ = {};
  return c;
}

void CoupledBus::scale_coupling(std::size_t pair, double factor) {
  model_.scale_coupling(pair, factor);
  drop_store();
}

void CoupledBus::add_series_resistance(std::size_t wire, double ohms) {
  model_.add_series_resistance(wire, ohms);
  drop_store();
}

void CoupledBus::inject_crosstalk_defect(std::size_t wire, double severity) {
  model_.inject_crosstalk_defect(wire, severity);
  drop_store();
}

void CoupledBus::clear_defects() {
  model_.clear_defects();
  drop_store();
}

double CoupledBus::cache_hit_rate() const {
  const std::uint64_t lookups = cache_hits_ + cache_misses_;
  return lookups == 0
             ? 0.0
             : static_cast<double>(cache_hits_) / static_cast<double>(lookups);
}

void CoupledBus::clear_cache() { drop_store(); }

void CoupledBus::drop_store() {
  store_.clear();
  columns_.clear();
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

void CoupledBus::solve(std::size_t i, const util::BitVec& prev,
                       const util::BitVec& next, double* out) const {
  // A new column may take only a slot no waveform holds; find_or_fill
  // inserts a stored wire's entry before solving it.
  columns_.set_limit(store_capacity_ - store_.size());
  model_for(params().model).solve_wire(model_, i, prev, next, columns_, out);
}

CoupledBus::Entry* CoupledBus::find_or_fill(std::size_t i,
                                            const util::BitVec& prev,
                                            const util::BitVec& next,
                                            Tally& t) const {
  const std::uint64_t key = neighborhood_key(model_.n(), i, prev, next);
  const auto it = store_.find(key);
  if (it != store_.end()) {
    ++t.hits;
    return &it->second;
  }
  ++t.misses;
  if (store_full()) return nullptr;
  Entry& e = store_.try_emplace(key).first->second;
  e.wave = Waveform(params().samples, params().sample_dt);
  solve(i, prev, next, e.wave.data());
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
  if (const Entry* e = find_or_fill(i, prev, next, t)) {
    std::memcpy(out, e->wave.data(), params().samples * sizeof(double));
  } else {
    solve(i, prev, next, out);
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
  Tally t;
  for (std::size_t i = 0; i < n; ++i) {
    if (Entry* e = find_or_fill(i, prev, next, t)) {
      batch_ptrs_[i] = e->wave.data();
      batch_slots_[i] = &e->verdict;
      continue;
    }
    overflow_.resize(n * samples);
    double* dst = overflow_.data() + i * samples;
    solve(i, prev, next, dst);
    batch_ptrs_[i] = dst;
    batch_slots_[i] = nullptr;
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
  return util::to_logic(
      w.final_value() >=
      model_for(params().model).settled_threshold(model_.params()));
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
