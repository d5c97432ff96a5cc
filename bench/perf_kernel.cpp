// Microbenchmarks (google-benchmark) for the substrates: event kernel,
// bit vectors, TAP shifting, coupled-bus solving, netlist simulation, and
// the full signal-integrity session. After the benchmarks, main records
// the waveform-kernel headline numbers for each interconnect model (the
// store-backed path against direct renders scanned in full) into
// BENCH_perf_kernel.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bsc/netlists.hpp"
#include "core/bist.hpp"
#include "core/session.hpp"
#include "ict/extest_session.hpp"
#include "mafm/fault.hpp"
#include "obs/hub.hpp"
#include "obs/metrics_sink.hpp"
#include "obs/registry.hpp"
#include "rtl/netlist_sim.hpp"
#include "si/bus.hpp"
#include "si/model.hpp"
#include "sim/scheduler.hpp"
#include "util/bitvec.hpp"
#include "util/prng.hpp"

using namespace jsi;

namespace {

/// The complete MA pattern workload of an n-wire bus: the 6*n vector
/// pairs the paper's G-SITEST applies (duplicates included, as a real
/// session would re-apply them).
std::vector<mafm::VectorPair> ma_workload(std::size_t n_wires) {
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
si::BusParams kernel_params(std::size_t n_wires, si::ModelKind model) {
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

KernelCells default_cells(const si::BusParams& p) {
  const double vdd = si::model_for(p.model).observed_swing(p);
  si::NdParams nd;
  nd.vdd = vdd;
  si::SdParams sd;
  sd.vdd = vdd;
  return {si::NdCell(nd), si::SdCell(sd)};
}

/// Wire i of vp rendered directly from its recipe: what a fresh die once
/// paid per wire.
si::Waveform direct_render(const si::BusModel& m, std::size_t i,
                           const mafm::VectorPair& vp) {
  const si::BusParams& p = m.params();
  return si::render(si::model_for(p.model).recipe(m, i, vp.v1, vp.v2),
                    p.samples, p.sample_dt);
}

struct KernelThroughput {
  double batched_tps = 0.0;  ///< transitions/sec: lookup + judge, warm store
  double scalar_tps = 0.0;   ///< transitions/sec: direct render + full scan
  double ratio = 0.0;        ///< batched_tps / scalar_tps
  double hit_rate = 0.0;     ///< store wire hit rate of the batched path
};

/// Both paths over the MA workload of an 8-wire bus under `model`, each
/// for `seconds` of whole sweeps (at least one): the batched side looks
/// every wire up in a warmed store and judges it under the default cells
/// (a slot hit after the first sweep), the scalar side renders every wire
/// directly and scans it in full. Throughputs are per transition either
/// way.
KernelThroughput measure_kernel_throughput(si::ModelKind model,
                                           double seconds) {
  constexpr std::size_t kWires = 8;
  const si::BusParams p = kernel_params(kWires, model);
  const std::vector<mafm::VectorPair> pairs = ma_workload(kWires);
  const KernelCells cells = default_cells(p);
  si::CoupledBus batched(p);
  batched.warm_ma_pairs();
  const si::BusModel scalar(p);

  // Runs whole sweeps of `sweep` until `seconds` pass; returns
  // transitions/sec.
  std::uint64_t checksum = 0;
  const auto timed = [&](const auto& sweep) {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    std::size_t sweeps = 0;
    double elapsed = 0.0;
    do {
      sweep();
      ++sweeps;
      elapsed = std::chrono::duration<double>(clock::now() - t0).count();
    } while (elapsed < seconds);
    return static_cast<double>(sweeps * pairs.size()) / elapsed;
  };
  KernelThroughput out;
  out.batched_tps = timed([&] {
    for (const mafm::VectorPair& vp : pairs) {
      const si::TransitionBatch b = batched.transition_batch(vp.v1, vp.v2);
      for (std::size_t i = 0; i < kWires; ++i) {
        const si::Verdicts v = batched.judge(cells.nd, cells.sd, b.entry(i));
        checksum += (v.nd ? 1u : 0u) + (v.sd ? 2u : 0u);
      }
    }
  });
  out.scalar_tps = timed([&] {
    for (const mafm::VectorPair& vp : pairs) {
      for (std::size_t i = 0; i < kWires; ++i) {
        const si::Waveform w = direct_render(scalar, i, vp);
        const util::Logic initial = util::to_logic(vp.v1[i]);
        const util::Logic expected = util::to_logic(vp.v2[i]);
        checksum += (cells.nd.violates(w, initial, expected) ? 1u : 0u) +
                    (cells.sd.violates(w, initial, expected) ? 2u : 0u);
      }
    }
  });
  out.ratio = out.batched_tps / out.scalar_tps;
  out.hit_rate = batched.cache_hit_rate();
  benchmark::DoNotOptimize(checksum);
  return out;
}

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    for (int i = 0; i < 1024; ++i) {
      s.schedule(static_cast<sim::Time>(i), [] {});
    }
    benchmark::DoNotOptimize(s.run_all());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SchedulerThroughput);

void BM_BitVecShift(benchmark::State& state) {
  util::BitVec v(static_cast<std::size_t>(state.range(0)), false);
  bool bit = true;
  for (auto _ : state) {
    bit = v.shift_in(bit);
    benchmark::DoNotOptimize(bit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitVecShift)->Arg(64)->Arg(1024)->Arg(16384);

// One full SAMPLE/PRELOAD scan through the 2n+m-cell boundary register,
// no sink attached. Items are TCKs: the scan body plus its overhead.
void BM_TapDrScan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::SocConfig cfg;
  cfg.n_wires = n;
  core::SiSocDevice soc(cfg);
  jtag::TapMaster master(soc.tap());
  master.reset_to_idle();
  master.scan_ir(util::BitVec::from_u64(
      soc.tap().opcode(core::SiSocDevice::kSample), cfg.ir_width));
  const util::BitVec bits(soc.chain_length(), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(master.scan_dr(bits));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(bits.size() +
                                jtag::TapMaster::kDrScanOverhead));
}
BENCHMARK(BM_TapDrScan)->Arg(8)->Arg(32)->Arg(64);

void BM_BusTransition(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  si::BusParams p;
  p.n_wires = n;
  si::CoupledBus bus(p);
  const auto a = util::BitVec::zeros(n);
  auto b = util::BitVec::ones(n);
  b.set(n / 2, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.transition(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["hit_rate"] = bus.cache_hit_rate();
}
BENCHMARK(BM_BusTransition)->Arg(8)->Arg(32);

void BM_BusTransitionUncached(benchmark::State& state) {
  // Baseline for the waveform store: the same workload as
  // BM_BusTransition rendered by direct model calls, so the raw analytic
  // solver is metered on every wire.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  si::BusParams p;
  p.n_wires = n;
  const si::BusModel m(p);
  const si::InterconnectModel& solver = si::model_for(p.model);
  const auto a = util::BitVec::zeros(n);
  auto b = util::BitVec::ones(n);
  b.set(n / 2, false);
  for (auto _ : state) {
    std::vector<si::Waveform> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(si::render(solver.recipe(m, i, a, b), p.samples,
                               p.sample_dt));
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BusTransitionUncached)->Arg(8)->Arg(32);

// The store-backed hot path: the full MA workload served from a warmed
// waveform store, on a bus with `defects` crosstalk defects of severity
// 6 spread over it (wide_bus_n64 injects three). Items are transitions.
// Compare against BM_BusTransitionUncached for the raw batched-vs-scalar
// gap.
void batched_ma_workload(benchmark::State& state, std::size_t defects) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  si::BusParams p;
  p.n_wires = n;
  si::CoupledBus bus(p);
  for (std::size_t d = 1; d <= defects; ++d) {
    bus.inject_crosstalk_defect(d * n / (defects + 1), 6.0);
  }
  bus.warm_ma_pairs();
  const auto pairs = ma_workload(n);
  double acc = 0.0;
  for (auto _ : state) {
    for (const mafm::VectorPair& vp : pairs) {
      const si::TransitionBatch b = bus.transition_batch(vp.v1, vp.v2);
      acc += b.entry(n / 2).final_sample;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
  state.counters["hit_rate"] = bus.cache_hit_rate();
}

void BM_BusTransitionBatched(benchmark::State& state) {
  batched_ma_workload(state, 0);
}
BENCHMARK(BM_BusTransitionBatched)->Arg(8)->Arg(32)->Arg(64);

void BM_BusTransitionBatchedDefects(benchmark::State& state) {
  batched_ma_workload(state, 3);
}
BENCHMARK(BM_BusTransitionBatchedDefects)->Arg(8)->Arg(32)->Arg(64);

// A cold bus's first judgment of each wire: per iteration a fresh bus
// (range(1) picks the model: 0 rc_full_swing, 1 low_swing) takes the full
// MA workload through transition_batch and judges every wire under the
// default cells, as a fresh die's G-SITEST session does. Items are
// judgments; each new recipe is decided from its few samples (a
// fallback would render it, and `fallbacks` would read above 0).
void BM_JudgeFresh(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const si::BusParams p =
      kernel_params(n, si::kAllModelKinds[state.range(1)]);
  const KernelCells cells = default_cells(p);
  const auto pairs = ma_workload(n);
  std::uint64_t flagged = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t entries = 0;
  for (auto _ : state) {
    si::CoupledBus bus(p);
    for (const mafm::VectorPair& vp : pairs) {
      const si::TransitionBatch b = bus.transition_batch(vp.v1, vp.v2);
      for (std::size_t i = 0; i < n; ++i) {
        const si::Verdicts v = bus.judge(cells.nd, cells.sd, b.entry(i));
        flagged += (v.nd || v.sd) ? 1u : 0u;
      }
    }
    fallbacks += bus.probe_fallbacks();
    entries += bus.cache_entries();
  }
  benchmark::DoNotOptimize(flagged);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size() * n));
  state.counters["fallbacks"] = static_cast<double>(fallbacks);
  state.counters["entries"] =
      static_cast<double>(entries) / static_cast<double>(state.iterations());
  state.SetLabel(si::model_kind_name(p.model));
}
BENCHMARK(BM_JudgeFresh)->ArgsProduct({{8, 32, 64}, {0, 1}});

void BM_NetlistSimPgbsc(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    rtl::Netlist nl = bsc::build_pgbsc_netlist();
    rtl::NetlistSim sim(sched, nl);
    sim.set_input("si", util::Logic::L1);
    for (int u = 0; u < 16; ++u) {
      sim.set_input("update_dr", util::Logic::L1);
      sim.settle();
      sim.set_input("update_dr", util::Logic::L0);
      sim.settle();
    }
    benchmark::DoNotOptimize(sim.value("q2"));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_NetlistSimPgbsc);

void BM_FullSiSession(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (auto _ : state) {
    core::SocConfig cfg;
    cfg.n_wires = n;
    core::SiSocDevice soc(cfg);
    soc.bus().inject_crosstalk_defect(n / 2, 6.0);
    core::SiTestSession session(soc);
    benchmark::DoNotOptimize(
        session.run(core::ObservationMethod::OnceAtEnd));
    hits += soc.bus().cache_hits();
    misses += soc.bus().cache_misses();
  }
  if (hits + misses > 0) {
    state.counters["hit_rate"] =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
}
BENCHMARK(BM_FullSiSession)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_FullSiSessionWarmBus(benchmark::State& state) {
  // The hit path of BM_FullSiSession: every timed session is a second
  // session on the same bus, so each wire is a store hit whose verdict
  // slot already holds the cells' ND/SD verdicts.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  core::SocConfig cfg;
  cfg.n_wires = n;
  core::SiSocDevice soc(cfg);
  soc.bus().inject_crosstalk_defect(n / 2, 6.0);
  core::SiTestSession session(soc);
  session.run(core::ObservationMethod::OnceAtEnd);
  const std::uint64_t hits0 = soc.bus().cache_hits();
  const std::uint64_t misses0 = soc.bus().cache_misses();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.run(core::ObservationMethod::OnceAtEnd));
  }
  const std::uint64_t hits = soc.bus().cache_hits() - hits0;
  const std::uint64_t misses = soc.bus().cache_misses() - misses0;
  if (hits + misses > 0) {
    state.counters["hit_rate"] =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
}
BENCHMARK(BM_FullSiSessionWarmBus)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_FullSiSessionObserved(benchmark::State& state) {
  // BM_FullSiSession with the full obs::Hub attached (per-TCK edge
  // tracing, metrics folding, ring buffer). Compare against the n=8/32
  // rows above to price the *enabled* instrumentation; the <2%
  // disabled-path guarantee is asserted by obs_overhead_guard.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::uint64_t tcks = 0;
  for (auto _ : state) {
    core::SocConfig cfg;
    cfg.n_wires = n;
    core::SiSocDevice soc(cfg);
    soc.bus().inject_crosstalk_defect(n / 2, 6.0);
    core::SiTestSession session(soc);
    obs::Hub hub;
    session.set_sink(&hub);
    benchmark::DoNotOptimize(
        session.run(core::ObservationMethod::OnceAtEnd));
    tcks += hub.registry().counter_value("tck.total");
  }
  state.counters["tcks_per_run"] = benchmark::Counter(
      static_cast<double>(tcks) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_FullSiSessionObserved)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// One wide_bus_n64 pass worth of TAP edges as a TapMaster reports them:
// the 114,552 edges its metrics.json books (102,644 shift, 2,371 capture,
// 2,371 update, 7,166 navigation), laid out as 2,371 scans of navigation
// and capture edges, one scan-body burst of the shift edges, and an
// update edge. 11,908 edges arrive one on_event call each, the other
// 102,644 in 2,371 on_shift_run calls.
struct EdgeStep {
  obs::Event edge;     // the edge, or a burst's first edge
  util::BitVec body;   // empty for a single edge; else the burst's TDI
};

std::vector<EdgeStep> wide_bus_edge_steps() {
  constexpr std::size_t kScans = 2'371;
  constexpr std::size_t kShift = 102'644;
  constexpr std::size_t kOther = 7'166;
  std::vector<EdgeStep> steps;
  std::uint64_t tck = 0;
  const auto edge = [&](obs::TckPhase phase, const char* state, bool tms,
                        bool tdi) {
    obs::Event e;
    e.kind = obs::EventKind::StateEdge;
    e.phase = phase;
    e.tck = ++tck;
    e.name = state;
    e.a = tms ? 1 : 0;
    e.b = tdi ? 1 : 0;
    return e;
  };
  for (std::size_t s = 0; s < kScans; ++s) {
    const std::size_t other = kOther / kScans + (s < kOther % kScans ? 1 : 0);
    const std::size_t shift = kShift / kScans + (s < kShift % kScans ? 1 : 0);
    for (std::size_t k = 0; k < other; ++k) {
      steps.push_back({edge(obs::TckPhase::Other, "SelectDrScan", true, false),
                       {}});
    }
    steps.push_back({edge(obs::TckPhase::Capture, "CaptureDr", false, false),
                     {}});
    util::BitVec body(shift);
    for (std::size_t k = 0; k < shift; ++k) body.set(k, ((tck + k) & 1) != 0);
    steps.push_back({edge(obs::TckPhase::Shift, "ShiftDr", shift == 1, body[0]),
                     body});
    tck += shift - 1;
    steps.push_back({edge(obs::TckPhase::Update, "UpdateDr", true, false), {}});
  }
  return steps;
}

// What observing the TAP costs per edge, through the Sink* a TapMaster
// calls. Items are edges. Arg 0: the hub every campaign worker runs
// without keep_events (metrics fold, no tracer ring); 1: a hub keeping
// the default 65,536-record ring, as with keep_events, which expands
// every burst into stamped records; 2: a bare MetricsSink; 3: a
// NullSink. Each iteration starts from a reset, as each campaign unit
// does.
void BM_HubStateEdges(benchmark::State& state) {
  const std::vector<EdgeStep> steps = wide_bus_edge_steps();
  std::uint64_t edges = 0;
  for (const EdgeStep& s : steps) edges += s.body.empty() ? 1 : s.body.size();
  obs::TracerConfig tc;
  if (state.range(0) == 0) tc.capacity = 0;
  obs::Hub hub(tc);
  obs::Registry reg;
  obs::MetricsSink bare(reg);
  obs::NullSink null;
  obs::Sink* sinks[] = {&hub, &hub, &bare, &null};
  obs::Sink* sink = sinks[state.range(0)];
  for (auto _ : state) {
    hub.reset();
    reg.reset();
    for (const EdgeStep& s : steps) {
      if (s.body.empty()) {
        sink->on_event(s.edge);
      } else {
        sink->on_shift_run(s.edge, s.body);
      }
    }
    benchmark::ClobberMemory();
  }
  const std::uint64_t tcks = hub.registry().counter_value("tck.total") +
                             reg.counter_value("tck.total");
  if (state.range(0) != 3 && tcks != edges) {
    state.SkipWithError("tck.total != edges fed");
  }
  if (state.range(0) == 1 &&
      hub.tracer().recorded() != edges * state.iterations()) {
    state.SkipWithError("ring kept fewer records than edges fed");
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges));
  static const char* const kLabels[] = {"campaign_hub", "hub_ring",
                                        "metrics_sink", "null_sink"};
  state.SetLabel(kLabels[state.range(0)]);
}
BENCHMARK(BM_HubStateEdges)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_ParallelVictimSession(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::SocConfig cfg;
    cfg.n_wires = n;
    core::SiSocDevice soc(cfg);
    core::SiTestSession session(soc);
    benchmark::DoNotOptimize(
        session.run_parallel(core::ObservationMethod::OnceAtEnd, 2));
  }
}
BENCHMARK(BM_ParallelVictimSession)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_MultiBusSession(benchmark::State& state) {
  const std::size_t buses = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::SocConfig cfg;
    cfg.n_buses = buses;
    cfg.n_wires = 8;
    core::SiSocDevice soc(cfg);
    core::MultiBusSession session(soc);
    benchmark::DoNotOptimize(
        session.run(core::ObservationMethod::OnceAtEnd));
  }
}
BENCHMARK(BM_MultiBusSession)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_BistCompileAndRun(benchmark::State& state) {
  for (auto _ : state) {
    core::SocConfig cfg;
    cfg.n_wires = 8;
    core::SiSocDevice soc(cfg);
    core::SiBistController bist(soc);
    benchmark::DoNotOptimize(bist.run());
  }
}
BENCHMARK(BM_BistCompileAndRun)->Unit(benchmark::kMillisecond);

void BM_ExtestBoardSession(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ict::BoardNets board(n);
    ict::ExtestInterconnectSession session(board);
    benchmark::DoNotOptimize(
        session.run(ict::Algorithm::TrueComplementCounting));
  }
}
BENCHMARK(BM_ExtestBoardSession)->Arg(16)->Arg(64);

// One instrumented pass of every session kind, folding TCK-phase and
// waveform-store metrics into the global registry for the BENCH_perf_kernel.json
// dump (see main below).
void collect_session_metrics() {
  obs::MetricsSink sink(obs::global_registry());
  {
    core::SocConfig cfg;
    cfg.n_wires = 16;
    core::SiSocDevice soc(cfg);
    core::SiTestSession session(soc);
    session.set_sink(&sink);
    session.run(core::ObservationMethod::OnceAtEnd);
  }
  {
    core::SocConfig cfg;
    cfg.n_wires = 16;
    core::SiSocDevice soc(cfg);
    core::SiTestSession session(soc);
    session.set_sink(&sink);
    session.run_parallel(core::ObservationMethod::OnceAtEnd, 2);
  }
  {
    core::SocConfig cfg;
    cfg.n_wires = 16;
    cfg.enhanced = false;
    core::SiSocDevice soc(cfg);
    core::ConventionalSession session(soc);
    session.set_sink(&sink);
    session.run(core::ObservationMethod::OnceAtEnd);
  }
  {
    core::SocConfig cfg;
    cfg.n_buses = 2;
    cfg.n_wires = 8;
    core::SiSocDevice soc(cfg);
    core::MultiBusSession session(soc);
    session.set_sink(&sink);
    session.run(core::ObservationMethod::OnceAtEnd);
  }
  {
    ict::BoardNets board(16);
    ict::ExtestInterconnectSession session(board);
    session.set_sink(&sink);
    session.run(ict::Algorithm::CountingSequence);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  collect_session_metrics();
  // Headline kernel numbers for BENCH_perf_kernel.json, once per
  // registered interconnect model (0.2 s per side): MA-workload
  // transitions/sec on the batched path (lookup + judge) vs direct render
  // + full scan, and the store hit rate the measurement observed. The
  // parity of the two paths is pinned by test_si.
  obs::Registry& reg = obs::global_registry();
  for (si::ModelKind kind : si::kAllModelKinds) {
    const KernelThroughput kt = measure_kernel_throughput(kind, 0.2);
    const std::string name = si::model_kind_name(kind);
    const std::string prefix = "kernel.transitions_per_sec." + name;
    reg.gauge(prefix + ".batched").set(kt.batched_tps);
    reg.gauge(prefix + ".scalar").set(kt.scalar_tps);
    reg.gauge("kernel." + name + ".batched_vs_scalar_ratio").set(kt.ratio);
    reg.gauge("kernel." + name + ".store_hit_rate").set(kt.hit_rate);
    std::cout << "kernel[" << name << "]: batched " << kt.batched_tps
              << " trans/s, scalar " << kt.scalar_tps << " trans/s, ratio "
              << kt.ratio << "x, store hit rate " << kt.hit_rate << "\n";
  }
  const std::string path = obs::jsi_metrics_dump("perf_kernel");
  if (!path.empty()) std::cout << "metrics: " << path << "\n";
  return 0;
}
