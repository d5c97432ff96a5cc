// Waveform-kernel throughput guard.
//
// The batched path's contract is "MA transitions are (nearly) free":
// once the waveform store holds the 6*n G-SITEST vector pairs' entries,
// the steady-state hot path is n store probes and n verdict-slot reads
// instead of n per-wire renders and full ND/SD scans. This guard
// measures transitions/sec of lookup + judge against direct
// `render(recipe(...))` calls scanned in full
// (bench/kernel_throughput.hpp), and fails (exit 1) when the speedup
// ratio drops below the floor — or, unconditionally, when the parity pin
// breaks: an on-demand render, a batch entry's final sample or a judged
// verdict that differs from the direct render and its scans.
//
// The guard runs once per registered interconnect model: the store is
// model-agnostic, so every model behind the seam must hold the same
// floor. JSI_KERNEL_MODEL restricts the run to one model.
//
// Methodology (bench/harness.hpp): min-of-K attempts, each timing both
// paths for a wall-time budget that doubles per retry, so a CI load
// spike has to persist to fail us; the parity check is deterministic
// and never retried.
//
// Knobs:
//   JSI_KERNEL_RATIO_MIN  speedup floor (default 3.0)
//   JSI_KERNEL_WIRES      bus width measured (default 8)
//   JSI_KERNEL_ATTEMPTS   retry attempts (default 5)
//   JSI_KERNEL_MODEL      model name ("rc_full_swing", "low_swing");
//                         default: every registered model

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "harness.hpp"
#include "kernel_throughput.hpp"

namespace {

/// Wall time each path is timed for on the first attempt [s].
constexpr double kBudgetS = 0.05;

}  // namespace

int main() {
  const double kMinRatio = jsi::bench::env_or("JSI_KERNEL_RATIO_MIN", 3.0);
  const std::size_t n_wires =
      static_cast<std::size_t>(jsi::bench::env_or("JSI_KERNEL_WIRES", 8.0));
  const int attempts =
      static_cast<int>(jsi::bench::env_or("JSI_KERNEL_ATTEMPTS", 5.0));

  std::vector<jsi::si::ModelKind> models;
  if (const char* want = std::getenv("JSI_KERNEL_MODEL");
      want != nullptr && *want != '\0') {
    jsi::si::ModelKind kind;
    if (!jsi::si::model_kind_from_name(want, kind)) {
      std::cerr << "FAIL: JSI_KERNEL_MODEL names unknown interconnect model "
                   "\"" << want << "\"\n";
      return 1;
    }
    models.push_back(kind);
  } else {
    models.assign(std::begin(jsi::si::kAllModelKinds),
                  std::end(jsi::si::kAllModelKinds));
  }

  for (const jsi::si::ModelKind model : models) {
    const char* name = jsi::si::model_kind_name(model);
    if (!jsi::bench::kernel_parity(n_wires, model)) {
      std::cerr << "FAIL: " << name
                << " batched path differs from the direct render and its "
                   "scans (parity broken)\n";
      return 1;
    }

    // Warm-up: fault in code, allocator pools and branch predictors.
    jsi::bench::measure_kernel_throughput(n_wires, kBudgetS / 10, model);

    double best_ratio = 0.0;
    const bool ok = jsi::bench::retry(attempts, [&](int attempt) {
      const jsi::bench::KernelThroughput kt =
          jsi::bench::measure_kernel_throughput(
              n_wires, kBudgetS * jsi::bench::attempt_scale(attempt), model);
      best_ratio = std::max(best_ratio, kt.ratio);
      std::cout << name << " attempt " << attempt << ": batched "
                << kt.batched_tps << " trans/s, scalar " << kt.scalar_tps
                << " trans/s, ratio " << kt.ratio << "x (store "
                << kt.store_entries << " entries, hit rate " << kt.hit_rate
                << ")\n";
      return best_ratio >= kMinRatio;
    });
    if (!ok) {
      std::cerr << "FAIL: " << name << " best batched/scalar ratio "
                << best_ratio << "x < " << kMinRatio << "x floor\n";
      return 1;
    }
    std::cout << "OK: " << name << " batched/scalar ratio " << best_ratio
              << "x >= " << kMinRatio << "x floor\n";
  }
  return 0;
}
