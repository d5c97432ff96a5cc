#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>

#include "core/checkpoint.hpp"
#include "scenario/build.hpp"
#include "scenario/parse.hpp"
#include "scenario/sweep.hpp"

namespace jsi::e2e {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- LayerSink -------------------------------------------------------------

struct LayerSink::Slot {
  std::int64_t last = 0;
  bool in_session = false;
  bool planned = false;
  bool in_plan = false;
  bool in_op = false;
  bool in_si = false;
  std::int64_t session_t0 = 0;
  std::int64_t plan_t0 = 0;
  std::int64_t op_t0 = 0;
  std::int64_t si_t0 = 0;
  std::int64_t last_end = -1;
  std::int64_t op_si = 0;             ///< transition time inside the open op
  std::int64_t session_children = 0;  ///< op spans + transitions outside ops
  std::int64_t plan_children0 = 0;    ///< session_children at PlanBegin
  // First and last StateEdge of a session without a plan, with
  // session_children at each: the window its TAP driver was clocking.
  std::int64_t edge_t0 = -1;
  std::int64_t edge_t1 = 0;
  std::int64_t edge_children0 = 0;
  std::int64_t edge_children1 = 0;
  Totals t;
};

namespace {

/// Epochs are unique across sink instances, so a thread's cached slot can
/// never be mistaken for a slot of another sink or an earlier run.
std::atomic<std::uint64_t> g_next_epoch{1};

struct ThreadCache {
  std::uint64_t epoch = 0;
  void* slot = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

LayerSink::LayerSink() = default;
LayerSink::~LayerSink() = default;

void LayerSink::begin_run() {
  std::lock_guard<std::mutex> lk(mu_);
  slots_.clear();
  epoch_ = g_next_epoch.fetch_add(1);
}

LayerSink::Slot& LayerSink::slot() {
  if (t_cache.epoch == epoch_) return *static_cast<Slot*>(t_cache.slot);
  std::lock_guard<std::mutex> lk(mu_);
  slots_.push_back(std::make_unique<Slot>());
  t_cache.epoch = epoch_;
  t_cache.slot = slots_.back().get();
  return *slots_.back();
}

void LayerSink::on_event(const obs::Event& e) {
  using obs::EventKind;
  const std::int64_t now = now_ns();
  Slot& s = slot();
  Totals& t = s.t;

  if (s.in_si) {
    const std::int64_t gap = now - s.last;
    if (e.kind == EventKind::CacheLookup) {
      t.si_solve_ns += gap;
      s.last = now;
      return;
    }
    t.si_detect_ns += gap;
    if (e.kind == EventKind::DetectorFired) {
      s.last = now;
      return;
    }
    const std::int64_t span = now - s.si_t0;
    (s.in_op ? s.op_si : s.session_children) += span;
    s.in_si = false;
  }

  switch (e.kind) {
    case EventKind::SessionBegin:
      if (s.in_session) ++t.nest_errors;
      if (s.last_end >= 0) t.unit_gap_ns += now - s.last_end;
      s.in_session = true;
      s.planned = false;
      s.in_plan = false;
      s.in_op = false;
      s.session_t0 = now;
      s.session_children = 0;
      s.edge_t0 = -1;
      break;
    case EventKind::PlanBegin:
      if (!s.in_session || s.in_plan) ++t.nest_errors;
      s.planned = true;
      s.in_plan = true;
      s.plan_t0 = now;
      s.plan_children0 = s.session_children;
      break;
    case EventKind::PlanEnd: {
      if (!s.in_plan || s.in_op) {
        ++t.nest_errors;
        break;
      }
      const std::int64_t self =
          (now - s.plan_t0) - (s.session_children - s.plan_children0);
      if (self < 0) ++t.nest_errors;
      else t.engine_ns += static_cast<std::uint64_t>(self);
      s.in_plan = false;
      break;
    }
    case EventKind::TapOpBegin:
      if (!s.in_session || s.in_op) ++t.nest_errors;
      s.in_op = true;
      s.op_t0 = now;
      s.op_si = 0;
      ++t.ops;
      break;
    case EventKind::TapOpEnd: {
      if (!s.in_op) {
        ++t.nest_errors;
        break;
      }
      const std::int64_t span = now - s.op_t0;
      const std::int64_t self = span - s.op_si;
      if (self < 0) ++t.nest_errors;
      else t.jtag_ns += static_cast<std::uint64_t>(self);
      s.session_children += span;
      s.in_op = false;
      break;
    }
    case EventKind::SessionEnd: {
      if (!s.in_session || s.in_op || s.in_plan) ++t.nest_errors;
      if (s.in_session) {
        const std::int64_t span = now - s.session_t0;
        if (span < s.session_children) ++t.nest_errors;
        if (!s.planned && s.edge_t0 >= 0) {
          const std::int64_t self = (s.edge_t1 - s.edge_t0) -
                                    (s.edge_children1 - s.edge_children0);
          if (self < 0) ++t.nest_errors;
          else t.jtag_ns += static_cast<std::uint64_t>(self);
        }
        t.session_ns += static_cast<std::uint64_t>(span);
        ++t.sessions;
      }
      s.in_session = false;
      s.in_plan = false;
      s.in_op = false;
      s.last_end = now;
      break;
    }
    case EventKind::BusTransition:
      if (!s.in_session) ++t.nest_errors;
      s.in_si = true;
      s.si_t0 = now;
      ++t.transitions;
      break;
    case EventKind::StateEdge:
      ++t.edges;
      if (s.in_session && !s.planned) {
        if (s.edge_t0 < 0) {
          s.edge_t0 = now;
          s.edge_children0 = s.session_children;
        }
        s.edge_t1 = now;
        s.edge_children1 = s.session_children;
      }
      break;
    default:
      break;
  }
  s.last = now;
}

LayerSink::Totals LayerSink::totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  Totals sum;
  for (const auto& p : slots_) {
    const Totals& t = p->t;
    sum.session_ns += t.session_ns;
    sum.si_solve_ns += t.si_solve_ns;
    sum.si_detect_ns += t.si_detect_ns;
    sum.jtag_ns += t.jtag_ns;
    sum.engine_ns += t.engine_ns;
    sum.unit_gap_ns += t.unit_gap_ns;
    sum.sessions += t.sessions;
    sum.ops += t.ops;
    sum.transitions += t.transitions;
    sum.edges += t.edges;
    // A slot left mid-session or mid-transition never closed its span.
    sum.nest_errors += t.nest_errors + (p->in_session || p->in_si ? 1 : 0);
    sum.worker_busy_ns.push_back(t.session_ns);
    sum.worker_last_end.push_back(p->last_end);
  }
  return sum;
}

double LayerSink::coverage(const Totals& t) {
  if (t.session_ns == 0) return 0.0;
  return static_cast<double>(t.si_solve_ns + t.si_detect_ns + t.jtag_ns +
                             t.engine_ns) /
         static_cast<double>(t.session_ns);
}

// ---- LayerBooks ------------------------------------------------------------

void LayerBooks::add(const LayerBooks& o) {
  parse_ns += o.parse_ns;
  build_ns += o.build_ns;
  run_ns += o.run_ns;
  render_ns += o.render_ns;
  write_ns += o.write_ns;
  materialize_ns += o.materialize_ns;
  materialized += o.materialized;
  chunk_size = std::max(chunk_size, o.chunk_size);
  chunks += o.chunks;
  busy_ns += o.busy_ns;
  busy_capacity_ns += o.busy_capacity_ns;
  busy_min_frac = std::min(busy_min_frac, o.busy_min_frac);
  tail_ns += o.tail_ns;
  merge_ns += o.merge_ns;
  ckpt_records += o.ckpt_records;
  ckpt_bytes += o.ckpt_bytes;
  layers.session_ns += o.layers.session_ns;
  layers.si_solve_ns += o.layers.si_solve_ns;
  layers.si_detect_ns += o.layers.si_detect_ns;
  layers.jtag_ns += o.layers.jtag_ns;
  layers.engine_ns += o.layers.engine_ns;
  layers.unit_gap_ns += o.layers.unit_gap_ns;
  layers.sessions += o.layers.sessions;
  layers.ops += o.layers.ops;
  layers.transitions += o.layers.transitions;
  layers.edges += o.layers.edges;
  layers.nest_errors += o.layers.nest_errors;
  table_hits += o.table_hits;
  table_misses += o.table_misses;
  memo_hits += o.memo_hits;
  memo_misses += o.memo_misses;
  nd_fired += o.nd_fired;
  sd_fired += o.sd_fired;
  units += o.units;
  violations += o.violations;
  failures += o.failures;
  total_tcks += o.total_tcks;
  wall_ns += o.wall_ns;
}

std::vector<Metric> LayerBooks::metrics() const {
  const auto ms = [](double ns) { return ns / 1e6; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const LayerSink::Totals& l = layers;
  const auto session = static_cast<double>(l.session_ns);
  const auto transitions = static_cast<double>(l.transitions);
  const auto solve = static_cast<double>(l.si_solve_ns);
  const auto detect = static_cast<double>(l.si_detect_ns);
  const auto jtag = static_cast<double>(l.jtag_ns);
  return {
      {"scenario.parse_ms", ms(parse_ns), "ms"},
      {"scenario.build_ms", ms(build_ns), "ms"},
      {"scenario.render_ms", ms(render_ns), "ms"},
      {"scenario.write_ms", ms(write_ns), "ms"},
      {"scenario.unit_materialize_us",
       ratio(materialize_ns, materialized) / 1e3, "us"},
      {"core.campaign.run_ms", ms(run_ns), "ms"},
      {"core.campaign.chunk_size", chunk_size, "units"},
      {"core.campaign.chunks", chunks, "count"},
      {"core.campaign.worker_busy_mean_frac", ratio(busy_ns, busy_capacity_ns),
       "fraction"},
      {"core.campaign.worker_busy_min_frac", busy_min_frac, "fraction"},
      {"core.campaign.tail_ms", ms(tail_ns), "ms"},
      {"core.unit_gap_ms", ms(static_cast<double>(l.unit_gap_ns)), "ms"},
      {"core.merge_ms", ms(merge_ns), "ms"},
      {"core.checkpoint.records", ckpt_records, "count"},
      {"core.checkpoint.bytes", ckpt_bytes, "bytes"},
      {"core.engine.ops", static_cast<double>(l.ops), "count"},
      {"core.engine.plan_ms", ms(static_cast<double>(l.engine_ns)), "ms"},
      {"jtag.tcks", static_cast<double>(l.edges), "TCK"},
      {"jtag.self_ms", ms(jtag), "ms"},
      {"jtag.ns_per_tck", ratio(jtag, static_cast<double>(l.edges)), "ns/TCK"},
      {"si.transitions", transitions, "count"},
      {"si.table_hit_rate", ratio(table_hits, table_hits + table_misses),
       "fraction"},
      {"si.table_misses", table_misses, "count"},
      {"si.memo_hit_rate", ratio(memo_hits, memo_hits + memo_misses),
       "fraction"},
      {"si.memo_misses", memo_misses, "count"},
      {"si.solve_ms", ms(solve), "ms"},
      {"si.solve_ns_per_transition", ratio(solve, transitions),
       "ns/transition"},
      {"si.solve_share", ratio(solve, session), "fraction"},
      {"si.detect_ms", ms(detect), "ms"},
      {"si.detect_ns_per_transition", ratio(detect, transitions),
       "ns/transition"},
      {"si.detect_share", ratio(detect, session), "fraction"},
      {"bsc.nd_fired", nd_fired, "count"},
      {"bsc.sd_fired", sd_fired, "count"},
      {"sim.units", units, "units"},
      {"sim.violations", violations, "count"},
      {"sim.total_tcks", total_tcks, "TCK"},
      {"sim.yield", ratio(units - violations - failures, units), "fraction"},
  };
}

// ---- the two run paths -----------------------------------------------------

CampaignRun plain_run(const std::string& text, const std::string& checkpoint,
                      const std::string& out_dir) {
  CampaignRun r;
  const Clock::time_point t0 = Clock::now();
  const scenario::ScenarioSpec spec = scenario::parse_scenario(text);
  scenario::RunOptions ro;
  ro.checkpoint_path = checkpoint;
  r.outcome = scenario::run_scenario(spec, ro);
  scenario::write_artifacts(out_dir, r.outcome);
  r.wall_s = seconds_since(t0);
  return r;
}

TracedRun traced_run(const std::string& text, const std::string& checkpoint,
                     const std::string& out_dir, LayerSink& sink) {
  TracedRun r;
  LayerBooks& b = r.books;

  const std::int64_t t0 = now_ns();
  const scenario::ScenarioSpec spec = scenario::parse_scenario(text);
  const std::int64_t t1 = now_ns();
  scenario::BuildOptions bo;
  bo.checkpoint_path = checkpoint;
  scenario::ScenarioCampaign campaign = scenario::build_campaign(spec, bo);
  const std::int64_t t2 = now_ns();
  campaign.runner().set_live_sink(&sink);
  sink.begin_run();
  const std::int64_t t3 = now_ns();
  core::CampaignResult result = campaign.run();
  const std::int64_t t4 = now_ns();
  scenario::ScenarioOutcome& out = r.outcome;
  out.result = std::move(result);
  out.report_text = out.result.to_text();
  out.metrics_json = out.result.metrics.to_json() + "\n";
  out.events_jsonl = scenario::render_events_jsonl(out.result);
  if (spec.sweep && out.result.complete) {
    out.yield_json = scenario::render_yield_json(spec, out.result);
  }
  const std::int64_t t5 = now_ns();
  scenario::write_artifacts(out_dir, out);
  const std::int64_t t6 = now_ns();

  b.parse_ns = static_cast<double>(t1 - t0);
  b.build_ns = static_cast<double>(t2 - t1);
  b.run_ns = static_cast<double>(t4 - t3);
  b.render_ns = static_cast<double>(t5 - t4);
  b.write_ns = static_cast<double>(t6 - t5);
  b.wall_ns = static_cast<double>(t6 - t0);

  const core::CampaignRunner& runner = campaign.runner();
  const std::size_t chunk = runner.effective_chunk_size();
  b.chunk_size = static_cast<double>(chunk);
  b.chunks = static_cast<double>((runner.size() + chunk - 1) / chunk);

  b.layers = sink.totals();
  const LayerSink::Totals& l = b.layers;
  const std::size_t workers = std::max<std::size_t>(out.result.shards_used, 1);
  b.busy_capacity_ns = b.run_ns * static_cast<double>(workers);
  b.busy_min_frac = l.worker_busy_ns.size() < workers ? 0.0 : 1.0;
  for (const std::uint64_t busy : l.worker_busy_ns) {
    b.busy_ns += static_cast<double>(busy);
    b.busy_min_frac =
        std::min(b.busy_min_frac, static_cast<double>(busy) / b.run_ns);
  }
  std::int64_t first_idle = t4;
  std::int64_t last_idle = t3;
  for (const std::int64_t end : l.worker_last_end) {
    if (end < 0) continue;
    first_idle = std::min(first_idle, end);
    last_idle = std::max(last_idle, end);
  }
  b.tail_ns = static_cast<double>(t4 - first_idle);
  b.merge_ns = static_cast<double>(t4 - last_idle);

  if (!checkpoint.empty()) {
    b.ckpt_records =
        static_cast<double>(core::load_checkpoint(checkpoint).records.size());
    b.ckpt_bytes = static_cast<double>(std::filesystem::file_size(checkpoint));
  }

  const obs::Registry& m = out.result.metrics;
  b.table_hits = static_cast<double>(m.counter_value("bus.table_hits"));
  b.table_misses = static_cast<double>(m.counter_value("bus.table_misses"));
  b.memo_hits = static_cast<double>(m.counter_value("bus.cache_hits"));
  b.memo_misses = static_cast<double>(m.counter_value("bus.cache_misses"));
  b.nd_fired = static_cast<double>(m.counter_value("detector.nd_fired"));
  b.sd_fired = static_cast<double>(m.counter_value("detector.sd_fired"));
  b.units = static_cast<double>(out.result.units_run);
  b.violations = static_cast<double>(out.result.violations);
  b.failures = static_cast<double>(out.result.failures);
  b.total_tcks = static_cast<double>(out.result.total_tcks);

  // Unit materialization is timed on a sample after the run, so it does
  // not perturb the run's own spans.
  if (spec.sweep) {
    const scenario::SweepUnitSource source(spec);
    const std::size_t n = source.count();
    const std::size_t samples = std::min<std::size_t>(n, 32);
    const std::int64_t m0 = now_ns();
    for (std::size_t k = 0; k < samples; ++k) {
      // Out-of-line call into the library: cannot be optimized away.
      source.unit(k * n / samples);
    }
    b.materialize_ns = static_cast<double>(now_ns() - m0);
    b.materialized = static_cast<double>(samples);
  }
  return r;
}

}  // namespace jsi::e2e
