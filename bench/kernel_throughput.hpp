// Shared measurement core for the waveform-kernel throughput metric:
// transitions/sec of the batched (store-backed) path versus direct
// `render(recipe(...))` calls over the complete MA pattern workload,
// plus the bit-for-bit parity pin between the two. Used by
// bench/perf_kernel.cpp (dumps the numbers into BENCH_perf_kernel.json)
// and by bench/kernel_ratio_guard.cpp (the CTest ratio assertion).

#ifndef JSI_BENCH_KERNEL_THROUGHPUT_HPP
#define JSI_BENCH_KERNEL_THROUGHPUT_HPP

#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mafm/fault.hpp"
#include "si/bus.hpp"
#include "si/model.hpp"

namespace jsi::bench {

struct KernelThroughput {
  std::size_t n_wires = 0;
  double batched_tps = 0.0;  ///< transitions/sec, warmed waveform store
  double scalar_tps = 0.0;   ///< transitions/sec, raw per-wire heap solver
  double ratio = 0.0;        ///< batched_tps / scalar_tps
  double hit_rate = 0.0;     ///< store wire hit rate of the batched path
  std::size_t store_entries = 0;
  bool parity_ok = false;  ///< batched == scalar bit-for-bit on every sample
};

/// The complete MA pattern workload of an n-wire bus: the 6*n vector
/// pairs the paper's G-SITEST applies (duplicates included, as a real
/// session would re-apply them).
inline std::vector<mafm::VectorPair> ma_workload(std::size_t n_wires) {
  std::vector<mafm::VectorPair> pairs;
  pairs.reserve(6 * n_wires);
  for (const mafm::MaFault f : mafm::kAllFaults) {
    for (std::size_t victim = 0; victim < n_wires; ++victim) {
      pairs.push_back(mafm::vectors_for(f, n_wires, victim));
    }
  }
  return pairs;
}

/// Measure both paths on one bus configuration. `scalar_reps` full MA
/// sweeps are timed on the raw solver; the batched path gets
/// `scalar_reps * 64` sweeps so the (much faster) loop still spans many
/// timer ticks. Throughputs are normalized per transition either way.
/// `model` selects the interconnect kernel under test; every registered
/// model must hold both the parity pin and the ratio floor.
inline KernelThroughput measure_kernel_throughput(
    std::size_t n_wires, std::size_t scalar_reps,
    si::ModelKind model = si::ModelKind::RcFullSwing) {
  using clock_type = std::chrono::steady_clock;
  si::BusParams p;
  p.n_wires = n_wires;
  p.model = model;
  const std::vector<mafm::VectorPair> pairs = ma_workload(n_wires);

  si::CoupledBus batched(p);
  batched.warm_ma_pairs();
  // Reference: the model's solver called directly through a fresh
  // decay-column table — every call does the full per-wire exponential
  // evaluation into fresh heap storage, exactly the pre-batching hot
  // path and what a fresh die pays.
  const si::BusModel scalar(p);
  const si::InterconnectModel& solver = si::model_for(model);
  const auto solve = [&](std::size_t i, const mafm::VectorPair& vp) {
    si::Waveform w(p.samples, p.sample_dt);
    si::DecayColumns columns(p);
    si::render(solver.recipe(scalar, i, vp.v1, vp.v2), columns, w.data());
    return w;
  };

  KernelThroughput out;
  out.n_wires = n_wires;

  // Parity pin: every sample of every wire of every MA transition must
  // match the scalar reference bit-for-bit.
  out.parity_ok = true;
  const std::size_t samples = p.samples;
  for (const mafm::VectorPair& vp : pairs) {
    const si::TransitionBatch b = batched.transition_batch(vp.v1, vp.v2);
    for (std::size_t i = 0; i < n_wires && out.parity_ok; ++i) {
      const si::Waveform ref = solve(i, vp);
      if (std::memcmp(b.wire(i).data(), ref.data(),
                      samples * sizeof(double)) != 0) {
        out.parity_ok = false;
      }
    }
  }

  // Batched timing (steady state: every MA waveform stored).
  double checksum = 0.0;
  const std::size_t batched_reps = scalar_reps * 64;
  const auto b0 = clock_type::now();
  for (std::size_t r = 0; r < batched_reps; ++r) {
    for (const mafm::VectorPair& vp : pairs) {
      const si::TransitionBatch b = batched.transition_batch(vp.v1, vp.v2);
      checksum += b.wire(n_wires / 2).final_value();
    }
  }
  const auto b1 = clock_type::now();

  // Scalar timing.
  for (std::size_t r = 0; r < scalar_reps; ++r) {
    for (const mafm::VectorPair& vp : pairs) {
      for (std::size_t i = 0; i < n_wires; ++i) {
        checksum += solve(i, vp).final_value();
      }
    }
  }
  const auto s1 = clock_type::now();

  const double bsec = std::chrono::duration<double>(b1 - b0).count();
  const double ssec = std::chrono::duration<double>(s1 - b1).count();
  const double btrans = static_cast<double>(batched_reps * pairs.size());
  const double strans = static_cast<double>(scalar_reps * pairs.size());
  out.batched_tps = bsec > 0.0 ? btrans / bsec : 0.0;
  out.scalar_tps = ssec > 0.0 ? strans / ssec : 0.0;
  out.ratio = out.scalar_tps > 0.0 ? out.batched_tps / out.scalar_tps : 0.0;
  out.hit_rate = batched.cache_hit_rate();
  out.store_entries = batched.cache_entries();
  // Keep the checksum observable so the timed loops cannot be elided.
  if (checksum == 0.12345) out.ratio = -out.ratio;
  return out;
}

}  // namespace jsi::bench

#endif  // JSI_BENCH_KERNEL_THROUGHPUT_HPP
