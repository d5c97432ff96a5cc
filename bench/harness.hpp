// The timing harness the bench guards share (campaign_scaling,
// obs_overhead_guard, telemetry_overhead_guard):
// environment knobs, wall-clock timing, workloads sized by a wall-time
// budget rather than a unit count, and the min-of-K retry schedule.
//
// Sizing by time keeps each guard's ratio meaningful as the code gets
// faster: a ratio over a fixed unit count loses margin whenever the work
// per unit shrinks beside a fixed serial part (thread start-up, merging,
// file set-up), while a run sized to a budget keeps that part's share.

#ifndef JSI_BENCH_HARNESS_HPP
#define JSI_BENCH_HARNESS_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>

namespace jsi::bench {

using clock_type = std::chrono::steady_clock;

/// A positive number read from environment variable `name`, or
/// `fallback` when it is unset, empty, unparsable or not positive.
inline double env_or(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || !(parsed > 0.0)) return fallback;
  return parsed;
}

/// The unit count at which a run costing `per_unit_s` seconds a unit
/// takes `budget_s`, and never fewer than `min_units`.
inline std::size_t units_for_budget(double budget_s, double per_unit_s,
                                    std::size_t min_units) {
  if (!(per_unit_s > 0.0)) return min_units;
  const double units = std::ceil(budget_s / per_unit_s);
  return std::max(min_units, static_cast<std::size_t>(units));
}

/// The schedule every guard retries on: attempt k (from 1) gets `base`
/// doubled k-1 times, at most 16x, so noise has to persist to fail a
/// guard while a quiet box passes on its first attempt.
inline double attempt_scale(int attempt) {
  return static_cast<double>(1 << std::min(attempt - 1, 4));
}

/// Min-of-K: call `attempt(k)` for k = 1 .. attempts until one returns
/// true (its bar cleared). False when none did.
template <class Attempt>
bool retry(int attempts, Attempt&& attempt) {
  for (int k = 1; k <= attempts; ++k) {
    if (attempt(k)) return true;
  }
  return false;
}

/// The least time of each of two runs, timed alternately so both see the
/// same machine conditions. Wall-clock noise is one-sided (the OS only
/// ever steals time), so the minimum estimates the true cost.
struct MinPair {
  double a_s = 0.0;
  double b_s = 0.0;
  int pairs = 0;
};

/// Alternate `a` and `b` — each returns the seconds it measured itself —
/// until `budget_s` of wall time has passed and at least `min_pairs`
/// pairs ran.
template <class A, class B>
MinPair interleaved_min(double budget_s, int min_pairs, A&& a, B&& b) {
  MinPair m{1e300, 1e300, 0};
  const auto t0 = clock_type::now();
  do {
    m.a_s = std::min(m.a_s, a());
    m.b_s = std::min(m.b_s, b());
    ++m.pairs;
  } while (m.pairs < min_pairs ||
           std::chrono::duration<double>(clock_type::now() - t0).count() <
               budget_s);
  return m;
}

}  // namespace jsi::bench

#endif  // JSI_BENCH_HARNESS_HPP
