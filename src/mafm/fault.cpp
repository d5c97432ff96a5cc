#include "mafm/fault.hpp"

#include <bit>
#include <ostream>
#include <stdexcept>

namespace jsi::mafm {

using util::BitVec;

std::string_view fault_name(MaFault f) {
  switch (f) {
    case MaFault::Pg: return "Pg";
    case MaFault::PgBar: return "Pg'";
    case MaFault::Ng: return "Ng";
    case MaFault::NgBar: return "Ng'";
    case MaFault::Rs: return "Rs";
    case MaFault::Fs: return "Fs";
  }
  return "?";
}

VectorPair vectors_for(MaFault f, std::size_t n, std::size_t victim) {
  if (victim >= n) throw std::out_of_range("victim >= n");
  const BitVec zeros = BitVec::zeros(n);
  const BitVec ones = BitVec::ones(n);
  const BitVec hot = BitVec::one_hot(n, victim);   // victim 1, aggressors 0
  const BitVec cold = ~hot;                        // victim 0, aggressors 1
  switch (f) {
    case MaFault::Pg: return {zeros, cold};
    case MaFault::PgBar: return {hot, ones};
    case MaFault::Ng: return {ones, hot};
    case MaFault::NgBar: return {cold, zeros};
    case MaFault::Rs: return {cold, hot};
    case MaFault::Fs: return {hot, cold};
  }
  throw std::invalid_argument("bad fault");
}

namespace {

/// The fault a victim that goes `prev_v` -> `next_v` suffers while every
/// aggressor switches in direction `agg` (+1 rising, -1 falling).
std::optional<MaFault> victim_fault(int agg, bool prev_v, bool next_v) {
  const int dv = (next_v ? 1 : 0) - (prev_v ? 1 : 0);
  if (agg > 0) {  // aggressors rising
    if (dv == 0) return prev_v ? MaFault::PgBar : MaFault::Pg;
    if (dv < 0) return MaFault::Fs;
    return std::nullopt;  // victim rising with aggressors: no MA stress
  }
  // Aggressors falling.
  if (dv == 0) return prev_v ? MaFault::Ng : MaFault::NgBar;
  if (dv > 0) return MaFault::Rs;
  return std::nullopt;
}

void check_pair(const BitVec& prev, const BitVec& next, std::size_t victim) {
  if (next.size() != prev.size()) {
    throw std::invalid_argument("width mismatch");
  }
  if (victim >= prev.size()) throw std::out_of_range("victim >= n");
}

}  // namespace

std::optional<MaFault> classify(const BitVec& prev, const BitVec& next,
                                std::size_t victim) {
  check_pair(prev, next, victim);
  if (prev.size() < 2) return std::nullopt;
  // Every aggressor (every wire but the victim) must rise, or every one
  // must fall: count both a word at a time, the victim's bit masked out.
  std::size_t rises = 0;
  std::size_t falls = 0;
  for (std::size_t w = 0; w < prev.word_count(); ++w) {
    const std::uint64_t keep =
        victim / 64 == w ? ~(1ull << (victim % 64)) : ~0ull;
    const std::uint64_t p = prev.word(w) & keep;
    const std::uint64_t x = next.word(w) & keep;
    rises += static_cast<std::size_t>(std::popcount(~p & x));
    falls += static_cast<std::size_t>(std::popcount(p & ~x));
  }
  const std::size_t aggressors = prev.size() - 1;
  if (rises != aggressors && falls != aggressors) return std::nullopt;
  return victim_fault(rises == aggressors ? 1 : -1, prev[victim],
                      next[victim]);
}

std::optional<MaFault> classify_neighborhood(const BitVec& prev,
                                             const BitVec& next,
                                             std::size_t victim) {
  check_pair(prev, next, victim);
  const std::size_t n = prev.size();
  if (n < 2) return std::nullopt;
  const std::size_t first = victim == 0 ? 0 : victim - 1;
  const std::size_t last = victim + 1 < n ? victim + 1 : n - 1;
  // All aggressors in range must switch the same way.
  int agg = 2;  // 2 = unset
  for (std::size_t i = first; i <= last; ++i) {
    if (i == victim) continue;
    const int d = (next[i] ? 1 : 0) - (prev[i] ? 1 : 0);
    if (agg == 2) {
      agg = d;
    } else if (agg != d) {
      return std::nullopt;
    }
  }
  if (agg == 0 || agg == 2) return std::nullopt;
  return victim_fault(agg, prev[victim], next[victim]);
}

std::ostream& operator<<(std::ostream& os, MaFault f) {
  return os << fault_name(f);
}

}  // namespace jsi::mafm
