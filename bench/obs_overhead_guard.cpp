// Disabled-instrumentation overhead guard.
//
// The obs layer's contract is "zero cost when disabled": every hook is a
// `if (sink_)` branch on a pointer that defaults to nullptr. This guard
// measures the full G-SITEST session with (a) no sink attached and
// (b) an obs::NullSink attached — the one-virtual-call-per-event worst
// case of the *disabled* configuration — and fails (exit 1) if the
// attached run is more than 2% slower than the detached run.
//
// Methodology (bench/harness.hpp): min-of-K. The two runs alternate for
// a wall-time budget (at least 7 pairs), and the least time of each is
// compared; wall-clock noise is one-sided, so the minimum estimates the
// true cost. The comparison retries a few times before failing to ride
// out machine-load spikes on CI boxes, each retry doubling the budget,
// so a temporarily noisy box gets progressively more chances for the
// true minimum to surface before the guard gives up. Sizing by time
// rather than by a repetition count keeps the sample count up as the
// session gets cheaper.
//
// Knobs for hostile CI environments (never needed on a quiet box):
//   JSI_OVERHEAD_BUDGET_PCT  overhead budget in percent (default 2)
//   JSI_OVERHEAD_ATTEMPTS    retry attempts (default 5)

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "core/session.hpp"
#include "harness.hpp"
#include "obs/events.hpp"

namespace {

/// Wall time the first attempt alternates the two runs for [s].
constexpr double kBudgetS = 0.02;

/// Seconds one 16-wire G-SITEST session takes, device set-up excluded.
double run_session_s(jsi::obs::Sink* sink) {
  jsi::core::SocConfig cfg;
  cfg.n_wires = 16;
  jsi::core::SiSocDevice soc(cfg);
  jsi::core::SiTestSession session(soc);
  if (sink != nullptr) session.set_sink(sink);
  const auto t0 = jsi::bench::clock_type::now();
  const auto report = session.run(jsi::core::ObservationMethod::OnceAtEnd);
  const auto t1 = jsi::bench::clock_type::now();
  if (report.total_tcks == 0) std::abort();  // keep the run observable
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const double kMaxOverhead =
      jsi::bench::env_or("JSI_OVERHEAD_BUDGET_PCT", 2.0) / 100.0;
  const int attempts =
      static_cast<int>(jsi::bench::env_or("JSI_OVERHEAD_ATTEMPTS", 5.0));

  jsi::obs::NullSink null_sink;
  // Warm-up: fault in code and allocator pools on both paths.
  run_session_s(nullptr);
  run_session_s(&null_sink);

  double best_ratio = 1e9;
  const bool ok = jsi::bench::retry(attempts, [&](int attempt) {
    const jsi::bench::MinPair m = jsi::bench::interleaved_min(
        kBudgetS * jsi::bench::attempt_scale(attempt), 7,
        [] { return run_session_s(nullptr); },
        [&] { return run_session_s(&null_sink); });
    const double ratio = m.b_s / m.a_s;
    best_ratio = std::min(best_ratio, ratio);
    std::cout << "attempt " << attempt << " (" << m.pairs
              << " pairs): detached " << m.a_s * 1e9 << " ns, null-sink "
              << m.b_s * 1e9 << " ns, ratio " << ratio << "\n";
    return best_ratio <= 1.0 + kMaxOverhead;
  });
  if (ok) {
    std::cout << "OK: instrumentation overhead " << (best_ratio - 1.0) * 100.0
              << "% <= " << kMaxOverhead * 100.0 << "% budget\n";
    return 0;
  }
  std::cout << "FAIL: best ratio " << best_ratio << " exceeds "
            << 1.0 + kMaxOverhead << "\n";
  return 1;
}
