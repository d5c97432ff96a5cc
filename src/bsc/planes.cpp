#include "bsc/planes.hpp"

#include <algorithm>
#include <stdexcept>

namespace jsi::bsc {

using util::BitVec;
using util::Logic;

namespace {

constexpr std::size_t kW = 64;

/// `v` with its bit order reversed (bit 0 swaps with bit 63).
std::uint64_t reverse_bits(std::uint64_t v) {
  v = ((v >> 1) & 0x5555555555555555ull) | ((v & 0x5555555555555555ull) << 1);
  v = ((v >> 2) & 0x3333333333333333ull) | ((v & 0x3333333333333333ull) << 2);
  v = ((v >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((v & 0x0F0F0F0F0F0F0F0Full) << 4);
  return __builtin_bswap64(v);
}

/// Word `w` of the first `len` bits of `v` in reverse order: bit k of
/// the reversal is v[len - 1 - k], and 0 for k >= len.
std::uint64_t reversed_word(const BitVec& v, std::size_t len, std::size_t w) {
  return reverse_bits(v.bits_at(static_cast<std::ptrdiff_t>(len) -
                                static_cast<std::ptrdiff_t>(kW * (w + 1))));
}

/// The bits of word `w` that lie in [first, first + count).
std::uint64_t range_word(std::size_t first, std::size_t count, std::size_t w) {
  const std::size_t lo = std::max(first, kW * w);
  const std::size_t hi = std::min(first + count, kW * (w + 1));
  if (lo >= hi) return 0;
  const std::size_t len = hi - lo;
  return (len == kW ? ~0ull : (1ull << len) - 1) << (lo - kW * w);
}

void check_range(std::size_t first, std::size_t count, std::size_t n) {
  if (first > n || count > n - first) {
    throw std::out_of_range("boundary cell range past the chain");
  }
}

}  // namespace

PlaneRegister::PlaneRegister(const std::vector<CellKind>& kinds,
                             const jtag::CellCtl& ctl, si::NdParams nd,
                             si::SdParams sd)
    : ctl_(&ctl),
      nd_sensor_(nd),
      sd_sensor_(sd),
      pg_(kinds.size()),
      ob_(kinds.size()),
      ff1_(kinds.size()),
      ff2_(kinds.size()),
      in_(kinds.size()),
      in_logic_(kinds.size(), Logic::X),
      ff3_(kinds.size()),
      clocked_(kinds.size()),
      nd_(kinds.size()),
      sd_(kinds.size()) {
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    pg_.set(i, kinds[i] == CellKind::Pgbsc);
    ob_.set(i, kinds[i] == CellKind::Obsc);
  }
  reset();
}

CellKind PlaneRegister::kind(std::size_t i) const {
  if (pg_.get(i)) return CellKind::Pgbsc;
  return ob_.get(i) ? CellKind::Obsc : CellKind::Standard;
}

void PlaneRegister::capture() {
  if (!ctl_->si) {
    ff1_ = in_;
    return;
  }
  const BitVec& sel = ctl_->nd_sd ? nd_ : sd_;
  for (std::size_t w = 0; w < ff1_.word_count(); ++w) {
    const std::uint64_t pg = pg_.word(w);
    const std::uint64_t ob = ob_.word(w);
    ff1_.set_word(w, (in_.word(w) & ~(pg | ob)) | (ff1_.word(w) & pg) |
                         (sel.word(w) & ob));
  }
}

bool PlaneRegister::shift(bool tdi) { return ff1_.shift_in(tdi); }

void PlaneRegister::shift_run(const BitVec& in, BitVec& out) {
  const std::size_t n = length();
  const std::size_t len = in.size();
  // TDO bit i is cell n-1-i's old FF1 (i < n), then in[i - n].
  for (std::size_t w = 0; w < out.word_count(); ++w) {
    out.set_word(w, reversed_word(ff1_, n, w) |
                        in.bits_at(static_cast<std::ptrdiff_t>(kW * w) -
                                   static_cast<std::ptrdiff_t>(n)));
  }
  // From the top word down, so the words a shifted word reads are old.
  for (std::size_t w = ff1_.word_count(); w-- > 0;) {
    ff1_.set_word(w, ff1_.bits_at(static_cast<std::ptrdiff_t>(kW * w) -
                                  static_cast<std::ptrdiff_t>(len)) |
                         reversed_word(in, len, w));
  }
}

void PlaneRegister::update() {
  const jtag::CellCtl& c = *ctl_;
  if (!c.si) {
    ff2_ = ff1_;
    ff3_ = pg_;
    clocked_ = pg_;
    return;
  }
  if (!c.gen) {
    // O-SITEST: the PGBSC pattern machinery is clock-gated, so read-out
    // scans leave FF2/FF3 (and the driven bus) untouched.
    for (std::size_t w = 0; w < ff1_.word_count(); ++w) {
      const std::uint64_t pg = pg_.word(w);
      ff2_.set_word(w, (ff1_.word(w) & ~pg) | (ff2_.word(w) & pg));
    }
    clocked_.fill(0, length(), false);
    return;
  }
  for (std::size_t w = 0; w < ff1_.word_count(); ++w) {
    const std::uint64_t pg = pg_.word(w);
    const std::uint64_t f1 = ff1_.word(w);
    const std::uint64_t f3 = ff3_.word(w);
    const std::uint64_t f3_next = ~f3 & pg;
    // FF2 is clocked by Update-DR itself (aggressor, FF1 = 0) or by
    // FF3's rising edge (victim, FF1 = 1).
    const std::uint64_t clk = (~f1 | (~f3 & f3_next)) & pg;
    ff2_.set_word(w, (f1 & ~pg) | ((ff2_.word(w) ^ clk) & pg));
    ff3_.set_word(w, f3_next);
    clocked_.set_word(w, clk);
  }
}

void PlaneRegister::reset() {
  const std::size_t n = length();
  ff1_.fill(0, n, false);
  ff2_.fill(0, n, false);
  clocked_.fill(0, n, false);
  nd_.fill(0, n, false);
  sd_.fill(0, n, false);
  ff3_ = pg_;
}

void PlaneRegister::set_parallel_in(std::size_t first, std::size_t count,
                                    Logic v) {
  check_range(first, count, length());
  in_.fill(first, count, util::to_bool(v));
  std::fill_n(in_logic_.begin() + static_cast<std::ptrdiff_t>(first), count,
              v);
}

void PlaneRegister::set_parallel_in(std::size_t first, const BitVec& levels) {
  check_range(first, levels.size(), length());
  in_.assign(first, levels);
  for (std::size_t k = 0; k < levels.size(); ++k) {
    in_logic_[first + k] = util::to_logic(levels[k]);
  }
}

Logic PlaneRegister::parallel_out(std::size_t i) const {
  if (i >= length()) throw std::out_of_range("boundary cell past the chain");
  return ctl_->mode ? util::to_logic(ff2_[i]) : in_logic_[i];
}

void PlaneRegister::parallel_out(std::size_t first, BitVec& out) const {
  check_range(first, out.size(), length());
  const BitVec& src = ctl_->mode ? ff2_ : in_;
  for (std::size_t w = 0; w < out.word_count(); ++w) {
    out.set_word(w, src.bits_at(static_cast<std::ptrdiff_t>(first + kW * w)));
  }
}

void PlaneRegister::latch(std::size_t first, std::size_t count,
                          si::Verdicts v) {
  check_range(first, count, length());
  if (!ctl_->ce || !(v.nd || v.sd) || count == 0) return;
  for (std::size_t w = first / kW; w * kW < first + count; ++w) {
    const std::uint64_t m = range_word(first, count, w) & ob_.word(w);
    if (v.nd) nd_.set_word(w, nd_.word(w) | m);
    if (v.sd) sd_.set_word(w, sd_.word(w) | m);
  }
}

}  // namespace jsi::bsc
