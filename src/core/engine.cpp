#include "core/engine.hpp"

#include <stdexcept>

#include "core/soc.hpp"
#include "mafm/fault.hpp"

namespace jsi::core {

using util::BitVec;

SiSocDevice& TestPlanEngine::device(const char* what) const {
  if (!soc_) {
    throw std::logic_error(std::string("plan op needs a device: ") + what);
  }
  return *soc_;
}

void TestPlanEngine::emit(obs::EventKind kind, const char* name,
                          std::int64_t a, std::int64_t b,
                          std::uint64_t value) const {
  obs::Event e;
  e.kind = kind;
  e.tck = master_->tck();
  e.name = name;
  e.a = a;
  e.b = b;
  e.value = value;
  sink_->on_event(e);
}

void TestPlanEngine::load_instruction(const TestPlan& plan, const char* name) {
  const std::uint64_t code = device("LoadIr").tap().opcode(name);
  master_->scan_ir(BitVec::from_u64(code, plan.ir_width));
}

void TestPlanEngine::record_patterns(const TestPlan& plan, EngineResult& r,
                                     const std::vector<BitVec>& before,
                                     const TapOp& op) const {
  const std::size_t n = plan.wires_per_bus;
  // Sessions store "no victim" as n; the IR's width-independent sentinel
  // is normalized here so reports stay byte-identical to the pre-engine
  // implementations.
  const std::size_t victim = op.victim == TapOp::kNoVictim ? n : op.victim;
  for (std::size_t b = 0; b < plan.n_buses; ++b) {
    AppliedPattern p;
    p.before = before[b];
    p.after = device("record").driven_pins(b);
    p.victim = victim;
    p.init_block = op.block;
    p.from_rotate_scan = op.rotate;
    if (victim < n) p.fault = mafm::classify(p.before, p.after, victim);
    r.reports[b].patterns.push_back(std::move(p));
  }
}

void TestPlanEngine::run_readout(const TestPlan& plan, EngineResult& r,
                                 const TapOp& op) {
  const std::uint64_t t0 = master_->tck();
  const std::size_t n = plan.wires_per_bus;
  const std::size_t len = plan.chain_length;

  load_instruction(plan, SiSocDevice::kOSitest);
  // Pass 1: ND flip-flops (ND/SD select initializes to ND on decode).
  const BitVec out_nd = master_->scan_dr(BitVec(len, false));
  // Pass 2: SD flip-flops (select complemented by pass 1's Update-DR).
  // The bits shifted in restore the victim-select one-hot so generation
  // can resume exactly where it stopped (observation Method 3).
  BitVec restore(len, false);
  if (op.restore_victim < n) restore.set(len - 1 - op.restore_victim, true);
  const BitVec out_sd = master_->scan_dr(restore);

  for (std::size_t b = 0; b < plan.n_buses; ++b) {
    ReadoutRecord rec;
    rec.nd = BitVec(n, false);
    rec.sd = BitVec(n, false);
    for (std::size_t w = 0; w < n; ++w) {
      const std::size_t idx = plan.obsc_scan_index(b, w);
      rec.nd.set(w, out_nd[idx]);
      rec.sd.set(w, out_sd[idx]);
    }
    rec.pattern_index = r.reports[b].patterns.size();
    rec.init_block = op.block;
    r.reports[b].readouts.push_back(rec);
  }

  if (op.resume_gen) load_instruction(plan, SiSocDevice::kGSitest);
  r.observation_tcks += master_->tck() - t0;
}

EngineResult TestPlanEngine::execute(const TestPlan& plan) {
  EngineResult r;
  r.reports.resize(plan.n_buses);
  for (auto& rep : r.reports) {
    rep.n = plan.wires_per_bus;
    rep.method = plan.method;
    rep.nd_final = BitVec(plan.wires_per_bus, false);
    rep.sd_final = BitVec(plan.wires_per_bus, false);
  }

  const std::uint64_t t_start = master_->tck();
  if (sink_) {
    emit(obs::EventKind::PlanBegin, "plan",
         static_cast<std::int64_t>(plan.ops.size()),
         static_cast<std::int64_t>(plan.n_buses), 0);
  }
  std::vector<BitVec> before;
  for (std::size_t oi = 0; oi < plan.ops.size(); ++oi) {
    const TapOp& op = plan.ops[oi];
    std::uint64_t t_op = 0;
    if (sink_) {
      t_op = master_->tck();
      emit(obs::EventKind::TapOpBegin, tap_op_kind_name(op.kind),
           static_cast<std::int64_t>(oi),
           op.kind == TapOpKind::Readout ? 1 : 0, 0);
    }
    switch (op.kind) {
      case TapOpKind::Reset:
        master_->reset_to_idle();
        break;
      case TapOpKind::LoadIr:
        load_instruction(plan, op.ir.c_str());
        break;
      case TapOpKind::ScanIr:
        master_->scan_ir(op.bits);
        break;
      case TapOpKind::ScanDr: {
        if (op.record) {
          before.clear();
          for (std::size_t b = 0; b < plan.n_buses; ++b) {
            before.push_back(device("record").driven_pins(b));
          }
        }
        const BitVec out = master_->scan_dr(op.bits);
        if (op.capture) r.captures.push_back(out);
        if (op.record) record_patterns(plan, r, before, op);
        break;
      }
      case TapOpKind::UpdateDr: {
        if (op.record) {
          before.clear();
          for (std::size_t b = 0; b < plan.n_buses; ++b) {
            before.push_back(device("record").driven_pins(b));
          }
        }
        master_->pulse_update_dr();
        if (op.record) record_patterns(plan, r, before, op);
        break;
      }
      case TapOpKind::Readout:
        run_readout(plan, r, op);
        break;
    }
    if (sink_) {
      emit(obs::EventKind::TapOpEnd, tap_op_kind_name(op.kind),
           static_cast<std::int64_t>(oi),
           op.kind == TapOpKind::Readout ? 1 : 0, master_->tck() - t_op);
    }
  }

  if (soc_) {
    for (std::size_t b = 0; b < plan.n_buses; ++b) {
      r.reports[b].nd_final = soc_->nd_flags(b);
      r.reports[b].sd_final = soc_->sd_flags(b);
    }
  }
  r.total_tcks = master_->tck() - t_start;
  r.generation_tcks = r.total_tcks - r.observation_tcks;
  if (sink_) {
    emit(obs::EventKind::PlanEnd, "plan",
         static_cast<std::int64_t>(r.generation_tcks),
         static_cast<std::int64_t>(r.observation_tcks), r.total_tcks);
  }
  return r;
}

}  // namespace jsi::core
