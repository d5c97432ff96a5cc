// Shared measurement core for the waveform-kernel throughput metric:
// transitions/sec of the store-backed path (one batched lookup, then
// CoupledBus::judge on every wire) versus direct `render(recipe(...))`
// calls scanned in full by the ND/SD cells, over the complete MA pattern
// workload, plus the parity pin between the two. Used by
// bench/perf_kernel.cpp (dumps the numbers into BENCH_perf_kernel.json)
// and by bench/kernel_ratio_guard.cpp (the CTest ratio assertion).

#ifndef JSI_BENCH_KERNEL_THROUGHPUT_HPP
#define JSI_BENCH_KERNEL_THROUGHPUT_HPP

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

#include "harness.hpp"
#include "mafm/fault.hpp"
#include "si/bus.hpp"
#include "si/model.hpp"

namespace jsi::bench {

struct KernelThroughput {
  std::size_t n_wires = 0;
  double batched_tps = 0.0;  ///< transitions/sec: lookup + judge, warm store
  double scalar_tps = 0.0;   ///< transitions/sec: direct render + full scan
  double ratio = 0.0;        ///< batched_tps / scalar_tps
  double hit_rate = 0.0;     ///< store wire hit rate of the batched path
  std::size_t store_entries = 0;
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

/// A bus of `n_wires` under `model`, with default electrical params.
inline si::BusParams kernel_params(std::size_t n_wires, si::ModelKind model) {
  si::BusParams p;
  p.n_wires = n_wires;
  p.model = model;
  return p;
}

/// Detector cells at the supply a device gives them (the model's
/// observed swing), with default thresholds.
struct KernelCells {
  si::NdCell nd;
  si::SdCell sd;
};

inline KernelCells default_cells(const si::BusParams& p) {
  const double vdd = si::model_for(p.model).observed_swing(p);
  si::NdParams nd;
  nd.vdd = vdd;
  si::SdParams sd;
  sd.vdd = vdd;
  return {si::NdCell(nd), si::SdCell(sd)};
}

/// The parity grid: the default cells, then 3 ND threshold sets crossed
/// with 3 SD windows and receiver thresholds.
inline std::vector<KernelCells> parity_cells(const si::BusParams& p) {
  const double vdd = si::model_for(p.model).observed_swing(p);
  std::vector<KernelCells> cells = {default_cells(p)};
  const si::NdParams nds[] = {{vdd, 0.45, 0.35, 0.25},
                              {vdd, 0.20, 0.10, 0.0},
                              {vdd, 0.60, 0.50, 0.05}};
  const si::SdParams sds[] = {{vdd, 150 * sim::kPs, 0.5},
                              {vdd, 60 * sim::kPs, 0.3},
                              {vdd, 400 * sim::kPs, 0.7}};
  for (const si::NdParams& nd : nds) {
    for (const si::SdParams& sd : sds) {
      cells.push_back({si::NdCell(nd), si::SdCell(sd)});
    }
  }
  return cells;
}

/// Wire i of vp rendered directly from its recipe through a fresh
/// decay-column table: the reference, and what a fresh die once paid per
/// wire.
inline si::Waveform direct_render(const si::BusModel& m, std::size_t i,
                                  const mafm::VectorPair& vp) {
  const si::BusParams& p = m.params();
  si::Waveform w(p.samples, p.sample_dt);
  si::DecayColumns columns(p);
  si::render(si::model_for(p.model).recipe(m, i, vp.v1, vp.v2), columns,
             w.data());
  return w;
}

/// The parity pin over the full MA workload of one bus configuration:
/// `transition()`'s on-demand samples equal the direct render bit for
/// bit, each batch entry's final sample equals that render's last
/// sample, and each judged verdict equals the cells' full scan of that
/// render, under every setting of parity_cells.
inline bool kernel_parity(std::size_t n_wires, si::ModelKind model) {
  const si::BusParams p = kernel_params(n_wires, model);
  const si::BusModel ref(p);
  si::CoupledBus bus(p);
  const std::vector<KernelCells> cells = parity_cells(p);
  for (const mafm::VectorPair& vp : ma_workload(n_wires)) {
    const std::vector<si::Waveform> on_demand = bus.transition(vp.v1, vp.v2);
    const si::TransitionBatch b = bus.transition_batch(vp.v1, vp.v2);
    for (std::size_t i = 0; i < n_wires; ++i) {
      const si::Waveform want = direct_render(ref, i, vp);
      if (std::memcmp(on_demand[i].data(), want.data(),
                      p.samples * sizeof(double)) != 0 ||
          std::bit_cast<std::uint64_t>(b.entry(i).final_sample) !=
              std::bit_cast<std::uint64_t>(want.final_value())) {
        return false;
      }
      const util::Logic initial = util::to_logic(vp.v1[i]);
      const util::Logic expected = util::to_logic(vp.v2[i]);
      for (const KernelCells& c : cells) {
        const si::Verdicts got = bus.judge(c.nd, c.sd, b.entry(i));
        if (got.nd != c.nd.violates(want, initial, expected) ||
            got.sd != c.sd.violates(want, initial, expected)) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Measure both paths on one bus configuration, each for `seconds` of
/// whole MA sweeps (at least one): the batched side looks every wire up
/// in a warmed store and judges it under the default cells (a slot hit
/// after the first sweep), the scalar side renders every wire directly
/// and scans it in full. Throughputs are per transition either way.
/// `model` selects the interconnect kernel under test.
inline KernelThroughput measure_kernel_throughput(
    std::size_t n_wires, double seconds,
    si::ModelKind model = si::ModelKind::RcFullSwing) {
  const si::BusParams p = kernel_params(n_wires, model);
  const std::vector<mafm::VectorPair> pairs = ma_workload(n_wires);
  const KernelCells cells = default_cells(p);

  si::CoupledBus batched(p);
  batched.warm_ma_pairs();
  const si::BusModel scalar(p);

  KernelThroughput out;
  out.n_wires = n_wires;

  // Runs whole sweeps of `sweep` until `seconds` pass; returns
  // transitions/sec.
  std::uint64_t checksum = 0;
  const auto timed = [&](const auto& sweep) {
    const auto t0 = clock_type::now();
    std::size_t sweeps = 0;
    double elapsed = 0.0;
    do {
      sweep();
      ++sweeps;
      elapsed =
          std::chrono::duration<double>(clock_type::now() - t0).count();
    } while (elapsed < seconds);
    return static_cast<double>(sweeps * pairs.size()) / elapsed;
  };
  out.batched_tps = timed([&] {
    for (const mafm::VectorPair& vp : pairs) {
      const si::TransitionBatch b = batched.transition_batch(vp.v1, vp.v2);
      for (std::size_t i = 0; i < n_wires; ++i) {
        const si::Verdicts v = batched.judge(cells.nd, cells.sd, b.entry(i));
        checksum += (v.nd ? 1u : 0u) + (v.sd ? 2u : 0u);
      }
    }
  });
  out.scalar_tps = timed([&] {
    for (const mafm::VectorPair& vp : pairs) {
      for (std::size_t i = 0; i < n_wires; ++i) {
        const si::Waveform w = direct_render(scalar, i, vp);
        const util::Logic initial = util::to_logic(vp.v1[i]);
        const util::Logic expected = util::to_logic(vp.v2[i]);
        checksum += (cells.nd.violates(w, initial, expected) ? 1u : 0u) +
                    (cells.sd.violates(w, initial, expected) ? 2u : 0u);
      }
    }
  });
  out.ratio = out.scalar_tps > 0.0 ? out.batched_tps / out.scalar_tps : 0.0;
  out.hit_rate = batched.cache_hit_rate();
  out.store_entries = batched.cache_entries();
  // Keep the checksum observable so the timed loops cannot be elided.
  if (checksum == 0x5EED) out.ratio = -out.ratio;
  return out;
}

}  // namespace jsi::bench

#endif  // JSI_BENCH_KERNEL_THROUGHPUT_HPP
