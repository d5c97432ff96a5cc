// Waveform-kernel throughput guard.
//
// The batched path's contract is "MA transitions are (nearly) free":
// once the waveform store holds the 6*n G-SITEST vector pairs' wires,
// the steady-state hot path is n store probes and pointer stores instead
// of n per-wire analytic solves. This guard measures transitions/sec of
// the batched path against direct `render(recipe(...))` calls
// (bench/kernel_throughput.hpp) and fails (exit 1) when the speedup
// ratio drops below the floor — or, unconditionally, when the two paths
// disagree on a single output bit.
//
// The guard runs once per registered interconnect model: the store is
// model-agnostic, so every model behind the seam must hold the same
// floor. JSI_KERNEL_MODEL restricts the run to one model.
//
// Methodology mirrors obs_overhead_guard: best-of-K attempts so a CI
// load spike has to persist to fail us; the parity check is
// deterministic and never retried.
//
// Knobs:
//   JSI_KERNEL_RATIO_MIN  speedup floor (default 3.0)
//   JSI_KERNEL_WIRES      bus width measured (default 8)
//   JSI_KERNEL_REPS       scalar MA sweeps per attempt (default 6)
//   JSI_KERNEL_ATTEMPTS   retry attempts (default 5)
//   JSI_KERNEL_MODEL      model name ("rc_full_swing", "low_swing");
//                         default: every registered model

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "kernel_throughput.hpp"

namespace {

double env_or(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || parsed <= 0.0) return fallback;
  return parsed;
}

}  // namespace

int main() {
  const double kMinRatio = env_or("JSI_KERNEL_RATIO_MIN", 3.0);
  const std::size_t n_wires =
      static_cast<std::size_t>(env_or("JSI_KERNEL_WIRES", 8.0));
  const std::size_t reps =
      static_cast<std::size_t>(env_or("JSI_KERNEL_REPS", 6.0));
  const int attempts = static_cast<int>(env_or("JSI_KERNEL_ATTEMPTS", 5.0));

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

    // Warm-up: fault in code, allocator pools and branch predictors.
    jsi::bench::measure_kernel_throughput(n_wires, 1, model);

    double best_ratio = 0.0;
    bool ok = false;
    for (int attempt = 1; attempt <= attempts; ++attempt) {
      const jsi::bench::KernelThroughput kt =
          jsi::bench::measure_kernel_throughput(n_wires, reps, model);
      if (!kt.parity_ok) {
        std::cerr << "FAIL: " << name
                  << " batched kernel output differs from the scalar "
                     "reference (bit-for-bit parity broken)\n";
        return 1;
      }
      best_ratio = std::max(best_ratio, kt.ratio);
      std::cout << name << " attempt " << attempt << ": batched "
                << kt.batched_tps << " trans/s, scalar " << kt.scalar_tps
                << " trans/s, ratio " << kt.ratio << "x (store "
                << kt.store_entries << " entries, hit rate " << kt.hit_rate
                << ")\n";
      if (best_ratio >= kMinRatio) {
        std::cout << "OK: " << name << " batched/scalar ratio " << best_ratio
                  << "x >= " << kMinRatio << "x floor\n";
        ok = true;
        break;
      }
    }
    if (!ok) {
      std::cerr << "FAIL: " << name << " best batched/scalar ratio "
                << best_ratio << "x < " << kMinRatio << "x floor\n";
      return 1;
    }
  }
  return 0;
}
