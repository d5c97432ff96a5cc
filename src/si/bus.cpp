#include "si/bus.hpp"

#include <bit>
#include <cstdint>
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
    : model_(p), solver_(&model_for(model_.params().model)) {}

CoupledBus CoupledBus::clone() const {
  CoupledBus c = *this;
  c.sink_ = nullptr;  // sinks are thread-local; never shared with a clone
  // The last batch's entries reference *our* storage; a clone starts
  // with no live batch and no scratch of its own yet (nor a window
  // table, which no copy takes along).
  c.batch_.clear();
  c.unstored_ = {};
  c.scratch_ = {};
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
  windows_.forget();
}

void CoupledBus::warm_ma_pairs() {
  const std::size_t n = model_.n();
  for (const mafm::MaFault f : mafm::kAllFaults) {
    for (std::size_t victim = 0; victim < n; ++victim) {
      // A full store takes no more entries: stop.
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

double CoupledBus::final_sample(const WireRecipe& r) const {
  const double v = probe(r).final_sample();
  if (ProbeAudit* a = probe_audit()) {
    const double want =
        render(r, params().samples, params().sample_dt).final_value();
    audit_answer(*a, "final", std::bit_cast<std::uint64_t>(v) ==
                                  std::bit_cast<std::uint64_t>(want),
                 r);
  }
  return v;
}

CoupledBus::Stored* CoupledBus::find_or_fill(const WireRecipe& r,
                                             Tally& t) const {
  const auto it = store_.find(r);
  if (it != store_.end()) {
    ++t.hits;
    return &*it;
  }
  ++t.misses;
  if (store_full()) return nullptr;
  Stored& e = *store_.try_emplace(r).first;
  e.second.final_sample = final_sample(e.first);
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

Waveform CoupledBus::render_wire(std::size_t i, const util::BitVec& prev,
                                 const util::BitVec& next, Tally& t) const {
  const WireRecipe r = solver_->recipe(model_, i, prev, next);
  find_or_fill(r, t);
  return render(r, params().samples, params().sample_dt);
}

Waveform CoupledBus::wire_response(std::size_t i, const util::BitVec& prev,
                                   const util::BitVec& next) const {
  require_vector_widths(prev, next);
  Tally t;
  Waveform w = render_wire(i, prev, next, t);
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
    out.push_back(render_wire(i, prev, next, t));
  }
  finish_lookup(t);
  return out;
}

TransitionBatch CoupledBus::transition_batch(const util::BitVec& prev,
                                             const util::BitVec& next) const {
  require_vector_widths(prev, next);
  const std::size_t n = model_.n();
  batch_.resize(n);
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
    std::unique_ptr<Stored*[]>& row = windows_.rows[code];
    if (!row) row = std::make_unique<Stored*[]>(n);
    Stored*& known = row[i];
    if (known != nullptr) {
      ++t.hits;
    } else {
      const WireRecipe r = solver_->recipe(model_, i, prev, next);
      known = find_or_fill(r, t);
      if (known == nullptr) {
        unstored_.resize(n);
        unstored_[i] = r;
        batch_[i] = {&unstored_[i], final_sample(unstored_[i]), nullptr};
        continue;
      }
    }
    batch_[i] = {&known->first, known->second.final_sample,
                 &known->second.verdict};
  }
  finish_lookup(t);
  return TransitionBatch{batch_.data(), n};
}

Verdicts CoupledBus::judge(const NdCell& nd, const SdCell& sd,
                           const WireEntry& w) const {
  VerdictSlot* const slot = w.slot;
  if (slot != nullptr && slot->filled && slot->nd_params == nd.params() &&
      slot->sd_params == sd.params()) {
    return slot->verdicts;
  }
  const WireRecipe& r = *w.recipe;
  const WireProbe p = probe(r);
  std::optional<bool> v_nd = p.nd_violates(nd.params());
  std::optional<bool> v_sd = p.sd_violates(sd.params());
  if (!v_nd.has_value() || !v_sd.has_value()) {
    const WaveformView view = render_fallback(r);
    const util::Logic initial = util::to_logic(r.prev_level != 0);
    const util::Logic expected = util::to_logic(r.next_level != 0);
    if (!v_nd.has_value()) v_nd = nd.violates(view, initial, expected);
    if (!v_sd.has_value()) v_sd = sd.violates(view, initial, expected);
  }
  const Verdicts v{*v_nd, *v_sd};
  if (slot != nullptr) *slot = {true, nd.params(), sd.params(), v};
  return v;
}

WireRecipe CoupledBus::recipe(std::size_t i, const util::BitVec& prev,
                              const util::BitVec& next) const {
  require_vector_widths(prev, next);
  if (i >= model_.n()) throw std::out_of_range("wire index past bus width");
  return solver_->recipe(model_, i, prev, next);
}

WaveformView CoupledBus::render_fallback(const WireRecipe& r) const {
  ++probe_fallbacks_;
  if (ProbeAudit* a = probe_audit()) {
    a->fallbacks.fetch_add(1, std::memory_order_relaxed);
  }
  scratch_ = render(r, params().samples, params().sample_dt);
  return scratch_;
}

util::Logic CoupledBus::settled_logic(double final_sample) const {
  return util::to_logic(final_sample >=
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
