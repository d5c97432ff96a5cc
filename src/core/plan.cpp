#include "core/plan.hpp"

#include <stdexcept>

#include "core/soc.hpp"
#include "jtag/master.hpp"
#include "mafm/schedule.hpp"

namespace jsi::core {

using util::BitVec;

std::size_t TestPlan::obsc_scan_index(std::size_t bus, std::size_t wire) const {
  const std::size_t cell = n_buses * wires_per_bus + bus * wires_per_bus + wire;
  return chain_length - 1 - cell;
}

PlanCost dry_run_cost(const TestPlan& plan) {
  using jtag::TapMaster;
  PlanCost c;
  const std::uint64_t ir_scan = plan.ir_width + TapMaster::kIrScanOverhead;
  for (const TapOp& op : plan.ops) {
    switch (op.kind) {
      case TapOpKind::Reset:
        c.generation_tcks += TapMaster::kResetToIdleTcks;
        break;
      case TapOpKind::LoadIr:
        c.generation_tcks += ir_scan;
        ++c.ir_loads;
        break;
      case TapOpKind::ScanIr:
        c.generation_tcks += op.bits.size() + TapMaster::kIrScanOverhead;
        ++c.ir_loads;
        break;
      case TapOpKind::ScanDr:
        c.generation_tcks += op.bits.size() + TapMaster::kDrScanOverhead;
        ++c.dr_scans;
        if (op.record) c.recorded_patterns += plan.n_buses;
        break;
      case TapOpKind::UpdateDr:
        c.generation_tcks += TapMaster::kUpdatePulseTcks;
        ++c.update_pulses;
        if (op.record) c.recorded_patterns += plan.n_buses;
        break;
      case TapOpKind::Readout:
        c.observation_tcks +=
            ir_scan +
            2 * (plan.chain_length + TapMaster::kDrScanOverhead) +
            (op.resume_gen ? ir_scan : 0);
        ++c.readouts;
        break;
    }
  }
  c.total_tcks = c.generation_tcks + c.observation_tcks;
  return c;
}

namespace {

TapOp reset_op() {
  TapOp op;
  op.kind = TapOpKind::Reset;
  return op;
}

TapOp load_ir_op(const char* name) {
  TapOp op;
  op.kind = TapOpKind::LoadIr;
  op.ir = name;
  return op;
}

TapOp scan_dr_op(BitVec bits) {
  TapOp op;
  op.kind = TapOpKind::ScanDr;
  op.bits = std::move(bits);
  return op;
}

TapOp recorded_scan(BitVec bits, std::size_t victim, int block, bool rotate) {
  TapOp op = scan_dr_op(std::move(bits));
  op.record = true;
  op.victim = victim;
  op.block = block;
  op.rotate = rotate;
  return op;
}

TapOp recorded_update(std::size_t victim, int block) {
  TapOp op;
  op.kind = TapOpKind::UpdateDr;
  op.record = true;
  op.victim = victim;
  op.block = block;
  return op;
}

TapOp readout_op(std::size_t restore_victim, bool resume_gen, int block) {
  TapOp op;
  op.kind = TapOpKind::Readout;
  op.restore_victim = restore_victim;
  op.resume_gen = resume_gen;
  op.block = block;
  return op;
}

TestPlan make_header(std::size_t buses, std::size_t n, std::size_t m,
                     std::size_t ir_width, ObservationMethod method) {
  TestPlan plan;
  plan.ir_width = ir_width;
  plan.chain_length = 2 * buses * n + m;
  plan.n_buses = buses;
  plan.wires_per_bus = n;
  plan.method = method;
  return plan;
}

/// The Fig 12 flow over `buses` equal blocks of `n` sending cells: two
/// initial-value blocks of SAMPLE preload + G-SITEST + victim-select
/// scan + per-victim 3-updates-and-rotate, with method-dependent O-SITEST
/// read-outs. The select scan puts one hot bit in every bus's block, so
/// the shared rotate loop advances every bus's victim at once. Method 3's
/// per-pattern read-outs restore one bus's victim select; the multi-bus
/// planner refuses it.
TestPlan plan_fig12(std::size_t buses, std::size_t n, std::size_t m,
                    std::size_t ir_width, ObservationMethod method) {
  TestPlan plan = make_header(buses, n, m, ir_width, method);
  const std::size_t len = plan.chain_length;
  const bool per_pattern = method == ObservationMethod::PerPattern;
  auto& ops = plan.ops;

  ops.push_back(reset_op());
  for (int block = 0; block < 2; ++block) {
    ops.push_back(load_ir_op(SiSocDevice::kSample));
    ops.push_back(scan_dr_op(BitVec(len, block != 0)));
    ops.push_back(load_ir_op(SiSocDevice::kGSitest));

    // Victim-select scan over the sending region: lands a hot bit on wire
    // 0 of every bus block, and its trailing Update-DR fires the first
    // pattern.
    BitVec select(buses * n, false);
    for (std::size_t b = 0; b < buses; ++b) {
      select.set(buses * n - 1 - b * n, true);
    }
    ops.push_back(recorded_scan(std::move(select), 0, block, false));
    if (per_pattern) ops.push_back(readout_op(0, /*resume_gen=*/true, block));

    for (std::size_t v = 0; v < n; ++v) {
      for (int i = 0; i < 3; ++i) {
        ops.push_back(recorded_update(v, block));
        if (per_pattern) {
          ops.push_back(readout_op(v, /*resume_gen=*/true, block));
        }
      }
      // Rotate the victim: a one-bit scan; its Update-DR fires the next
      // victim's first pattern (or the block's closing transition).
      const bool last = v + 1 == n;
      const std::size_t next_victim = last ? TapOp::kNoVictim : v + 1;
      ops.push_back(recorded_scan(BitVec(1, false), next_victim, block, true));
      if (per_pattern) {
        ops.push_back(readout_op(next_victim, /*resume_gen=*/!last, block));
      }
    }
    if (method == ObservationMethod::PerInitValue) {
      ops.push_back(readout_op(TapOp::kNoVictim, false, block));
    }
  }
  if (method == ObservationMethod::OnceAtEnd) {
    ops.push_back(readout_op(TapOp::kNoVictim, false, 1));
  }
  return plan;
}

}  // namespace

TestPlan plan_enhanced_session(std::size_t n, std::size_t m,
                               std::size_t ir_width,
                               ObservationMethod method) {
  return plan_fig12(1, n, m, ir_width, method);
}

TestPlan plan_parallel_victims(std::size_t n, std::size_t m,
                               std::size_t ir_width, ObservationMethod method,
                               std::size_t guard) {
  if (method == ObservationMethod::PerPattern) {
    throw std::invalid_argument(
        "per-pattern read-out needs the single-victim flow");
  }
  const auto rounds = mafm::parallel_victim_rounds(n, guard);
  TestPlan plan = make_header(1, n, m, ir_width, method);
  const std::size_t len = plan.chain_length;
  auto& ops = plan.ops;

  ops.push_back(reset_op());
  for (int block = 0; block < 2; ++block) {
    ops.push_back(load_ir_op(SiSocDevice::kSample));
    ops.push_back(scan_dr_op(BitVec(len, block != 0)));
    ops.push_back(load_ir_op(SiSocDevice::kGSitest));

    // Multi-hot victim-select scan: round-0 victims all selected at once.
    BitVec select(n, false);
    for (std::size_t v : rounds.front()) select.set(n - 1 - v, true);
    ops.push_back(recorded_scan(std::move(select), TapOp::kNoVictim, block,
                                false));

    for (std::size_t round = 0; round < rounds.size(); ++round) {
      for (int i = 0; i < 3; ++i) {
        ops.push_back(recorded_update(TapOp::kNoVictim, block));
      }
      ops.push_back(
          recorded_scan(BitVec(1, false), TapOp::kNoVictim, block, true));
    }
    if (method == ObservationMethod::PerInitValue) {
      ops.push_back(readout_op(TapOp::kNoVictim, false, block));
    }
  }
  if (method == ObservationMethod::OnceAtEnd) {
    ops.push_back(readout_op(TapOp::kNoVictim, false, 1));
  }
  return plan;
}

TestPlan plan_conventional_session(std::size_t n, std::size_t m,
                                   std::size_t ir_width,
                                   ObservationMethod method) {
  TestPlan plan = make_header(1, n, m, ir_width, method);
  const std::size_t len = plan.chain_length;
  auto& ops = plan.ops;

  ops.push_back(reset_op());
  // G-SITEST supplies Mode=1 + CE=1; with standard sending cells the
  // pattern machinery is absent, so this acts as a "sensor-enabled EXTEST".
  ops.push_back(load_ir_op(SiSocDevice::kGSitest));

  for (std::size_t v = 0; v < n; ++v) {
    const auto seq = mafm::conventional_victim_sequence(n, v);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      BitVec bits(len, false);
      for (std::size_t j = 0; j < n; ++j) {
        bits.set(len - 1 - j, seq[i][j]);  // lands on sending cell j
      }
      ops.push_back(recorded_scan(std::move(bits), v, 0, false));
      if (method == ObservationMethod::PerPattern) {
        const bool last = v + 1 == n && i + 1 == seq.size();
        ops.push_back(readout_op(TapOp::kNoVictim, !last, 0));
      }
    }
    if (method == ObservationMethod::PerInitValue) {
      // Conventional flow has no initial-value blocks; the closest
      // equivalent granularity is one read-out per victim.
      const bool last = v + 1 == n;
      ops.push_back(readout_op(TapOp::kNoVictim, !last, 0));
    }
  }
  if (method == ObservationMethod::OnceAtEnd) {
    ops.push_back(readout_op(TapOp::kNoVictim, false, 0));
  }
  return plan;
}

TestPlan plan_multibus_session(std::size_t buses, std::size_t wires_per_bus,
                               std::size_t m, std::size_t ir_width,
                               ObservationMethod method) {
  if (method == ObservationMethod::PerPattern) {
    throw std::invalid_argument(
        "per-pattern read-out is provided by the single-bus SiTestSession; "
        "the parallel session supports methods 1 and 2");
  }
  return plan_fig12(buses, wires_per_bus, m, ir_width, method);
}

}  // namespace jsi::core
