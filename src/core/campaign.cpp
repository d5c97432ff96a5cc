#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/checkpoint.hpp"

namespace jsi::core {

namespace {

/// Shared prologue of every canned builder: derive the config's
/// effective electrical parameters, seed each of the unit's buses from
/// the campaign prototype (clone when the params match, fresh
/// otherwise) and apply the unit's defect injections.
std::vector<si::CoupledBus> unit_buses(CampaignContext& ctx,
                                       const SocConfig& c,
                                       const CampaignRunner::BusSetup& defects) {
  // Tag which interconnect kernel serves this unit so merged BENCH /
  // metrics JSONs distinguish model populations. Only booked for
  // non-default models: rc_full_swing artifacts stay byte-exact.
  if (c.bus.model != si::ModelKind::RcFullSwing) {
    ctx.hub().registry()
        .counter(std::string("bus.model.") + si::model_kind_name(c.bus.model))
        .inc();
  }
  const si::BusParams bp = effective_bus_params(c);
  std::vector<si::CoupledBus> buses;
  buses.reserve(c.n_buses);
  for (std::size_t b = 0; b < c.n_buses; ++b) {
    buses.push_back(ctx.make_bus(bp));
    if (defects) defects(b, buses.back());
  }
  return buses;
}

}  // namespace

UnitOutcome summarize(const IntegrityReport& rep) {
  UnitOutcome o;
  o.total_tcks = rep.total_tcks;
  o.generation_tcks = rep.generation_tcks;
  o.observation_tcks = rep.observation_tcks;
  o.violation = rep.any_violation();
  std::ostringstream os;
  os << "nd=" << rep.nd_final.to_string() << " sd=" << rep.sd_final.to_string();
  o.summary = os.str();
  return o;
}

UnitOutcome summarize(const SiBistController::Result& res) {
  UnitOutcome o;
  o.total_tcks = res.tcks;
  o.violation = !res.pass;
  std::ostringstream os;
  os << (res.pass ? "pass" : "fail") << " nd=" << res.nd.to_string()
     << " sd=" << res.sd.to_string();
  o.summary = os.str();
  return o;
}

UnitOutcome summarize(const MultiBusReport& rep) {
  UnitOutcome o;
  o.total_tcks = rep.total_tcks;
  o.generation_tcks = rep.generation_tcks;
  o.observation_tcks = rep.observation_tcks;
  o.violation = rep.any_violation();
  std::ostringstream os;
  for (std::size_t b = 0; b < rep.buses.size(); ++b) {
    if (b) os << " ";
    os << "b" << b << "[nd=" << rep.buses[b].nd_final.to_string()
       << " sd=" << rep.buses[b].sd_final.to_string() << "]";
  }
  o.summary = os.str();
  return o;
}

std::string CampaignResult::to_text() const {
  std::ostringstream os;
  if (aggregated) {
    // Aggregate campaigns fold outcomes as they stream; the canonical
    // report keeps the totals plus one line per retained failure (each
    // still addressed by its stable work-unit index). Deterministic for
    // the same reason the per-unit form is: everything printed is a
    // chunk-ordered fold of per-unit facts.
    os << "campaign: " << units_run << " units (aggregated), " << violations
       << " violations, " << failures << " failures\n";
    os << "tcks: total=" << total_tcks << " generation=" << generation_tcks
       << " observation=" << observation_tcks << "\n";
    for (const UnitOutcome& u : failed) {
      os << "[" << u.index << "] " << u.name << ": FAIL " << u.summary
         << " tcks=" << u.total_tcks << " (gen=" << u.generation_tcks
         << " obs=" << u.observation_tcks << ")\n";
    }
    return os.str();
  }
  os << "campaign: " << units.size() << " units, " << violations
     << " violations, " << failures << " failures\n";
  os << "tcks: total=" << total_tcks << " generation=" << generation_tcks
     << " observation=" << observation_tcks << "\n";
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitOutcome& u = units[i];
    os << "[" << i << "] " << u.name << ": "
       << (u.failed ? "FAIL" : (u.violation ? "violation" : "clean")) << " "
       << u.summary << " tcks=" << u.total_tcks
       << " (gen=" << u.generation_tcks << " obs=" << u.observation_tcks
       << ")\n";
  }
  return os.str();
}

CampaignRunner::CampaignRunner(CampaignConfig cfg) : cfg_(std::move(cfg)) {}

void CampaignRunner::set_prototype_bus(const si::CoupledBus* prototype) {
  prototype_ = prototype;
}

void CampaignRunner::set_live_sink(obs::Sink* sink) { live_sink_ = sink; }

void CampaignRunner::add(CampaignUnit unit) {
  units_.push_back(std::move(unit));
}

void CampaignRunner::set_source(const UnitSource* source) { source_ = source; }

std::size_t CampaignRunner::effective_chunk_size() const {
  if (cfg_.chunk_size != 0) return cfg_.chunk_size;
  // Auto rule: per-unit chunks when outcomes are retained (the historic
  // merge grouping, byte-exact with pre-chunking releases); in aggregate
  // mode ceil(units / 64) clamped to [1, 64], so a sweep has at most 64
  // near-equal chunks and no worker idles through a short last round.
  // Depends only on the unit count — never on the shard count — so
  // checkpoints resume, and --workers ranges align, at any shard count.
  if (!cfg_.aggregate_outcomes) return 1;
  return std::clamp<std::size_t>((size() + 63) / 64, 1, 64);
}

void CampaignRunner::add_enhanced(std::string name, SocConfig cfg,
                                  ObservationMethod method, BusSetup defects) {
  CampaignUnit u;
  u.name = std::move(name);
  u.run = [cfg = std::move(cfg), method,
           defects = std::move(defects)](CampaignContext& ctx) {
    SocConfig c = cfg;
    c.enhanced = true;
    SiSocDevice soc(c, unit_buses(ctx, c, defects));
    SiTestSession session(soc);
    session.set_sink(&ctx.hub());
    return summarize(session.run(method));
  };
  add(std::move(u));
}

void CampaignRunner::add_parallel(std::string name, SocConfig cfg,
                                  ObservationMethod method, std::size_t guard,
                                  BusSetup defects) {
  CampaignUnit u;
  u.name = std::move(name);
  u.run = [cfg = std::move(cfg), method, guard,
           defects = std::move(defects)](CampaignContext& ctx) {
    SocConfig c = cfg;
    c.enhanced = true;
    SiSocDevice soc(c, unit_buses(ctx, c, defects));
    SiTestSession session(soc);
    session.set_sink(&ctx.hub());
    return summarize(session.run_parallel(method, guard));
  };
  add(std::move(u));
}

void CampaignRunner::add_conventional(std::string name, SocConfig cfg,
                                      ObservationMethod method,
                                      BusSetup defects) {
  CampaignUnit u;
  u.name = std::move(name);
  u.run = [cfg = std::move(cfg), method,
           defects = std::move(defects)](CampaignContext& ctx) {
    SocConfig c = cfg;
    c.enhanced = false;
    SiSocDevice soc(c, unit_buses(ctx, c, defects));
    ConventionalSession session(soc);
    session.set_sink(&ctx.hub());
    return summarize(session.run(method));
  };
  add(std::move(u));
}

void CampaignRunner::add_multibus(std::string name, SocConfig cfg,
                                  ObservationMethod method, BusSetup defects) {
  CampaignUnit u;
  u.name = std::move(name);
  u.run = [cfg = std::move(cfg), method,
           defects = std::move(defects)](CampaignContext& ctx) {
    SocConfig c = cfg;
    c.enhanced = true;
    SiSocDevice soc(c, unit_buses(ctx, c, defects));
    MultiBusSession session(soc);
    session.set_sink(&ctx.hub());
    return summarize(session.run(method));
  };
  add(std::move(u));
}

void CampaignRunner::add_bist(std::string name, SocConfig cfg,
                              BusSetup defects) {
  CampaignUnit u;
  u.name = std::move(name);
  u.run = [cfg = std::move(cfg),
           defects = std::move(defects)](CampaignContext& ctx) {
    SocConfig c = cfg;
    c.enhanced = true;
    SiSocDevice soc(c, unit_buses(ctx, c, defects));
    SiBistController ctl(soc);
    ctl.set_sink(&ctx.hub());
    return summarize(ctl.run());
  };
  add(std::move(u));
}

CampaignResult CampaignRunner::run() {
  if (source_ != nullptr && !units_.empty()) {
    throw std::invalid_argument(
        "campaign: set_source and add are mutually exclusive");
  }
  if (cfg_.keep_events && cfg_.aggregate_outcomes) {
    throw std::invalid_argument(
        "campaign: keep_events is incompatible with aggregate_outcomes");
  }
  if (cfg_.keep_events && !cfg_.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "campaign: keep_events is incompatible with checkpointing");
  }
  if (cfg_.resume && cfg_.checkpoint_path.empty()) {
    throw std::invalid_argument("campaign: resume needs a checkpoint_path");
  }

  const std::size_t n = size();
  const std::size_t chunk_size = effective_chunk_size();
  const std::size_t n_chunks = (n + chunk_size - 1) / chunk_size;

  std::size_t range_end = cfg_.range_end == 0 ? n : cfg_.range_end;
  if (cfg_.range_begin > range_end || range_end > n) {
    throw std::invalid_argument("campaign: work-unit range out of bounds");
  }
  if (cfg_.range_begin % chunk_size != 0 ||
      (range_end % chunk_size != 0 && range_end != n)) {
    throw std::invalid_argument(
        "campaign: work-unit range must fall on chunk boundaries");
  }
  const std::size_t begin_chunk = cfg_.range_begin / chunk_size;
  const std::size_t end_chunk = (range_end + chunk_size - 1) / chunk_size;

  // One slot per chunk. A chunk is either pre-filled from a loaded
  // checkpoint or produced by exactly one worker; the streaming fold
  // below consumes slots strictly in chunk order.
  std::vector<std::optional<ChunkRecord>> records(n_chunks);
  std::vector<char> loaded(n_chunks, 0);

  CheckpointWriter ckpt;
  if (!cfg_.checkpoint_path.empty()) {
    CheckpointHeader header;
    header.fingerprint = cfg_.fingerprint;
    header.units = n;
    header.chunk_size = chunk_size;
    header.aggregate = cfg_.aggregate_outcomes;

    bool resuming = false;
    if (cfg_.resume && std::ifstream(cfg_.checkpoint_path).good()) {
      CheckpointData data = load_checkpoint(cfg_.checkpoint_path);
      if (data.header.fingerprint != header.fingerprint) {
        throw CheckpointMismatchError(
            "campaign: checkpoint fingerprint mismatch (the checkpoint was "
            "written for a different campaign)");
      }
      if (data.header.units != header.units ||
          data.header.chunk_size != header.chunk_size ||
          data.header.aggregate != header.aggregate) {
        throw CheckpointMismatchError(
            "campaign: checkpoint layout mismatch (units/chunk_size/aggregate "
            "differ from this campaign's configuration)");
      }
      // load_checkpoint checked every record against the header's layout,
      // which the check above made equal to ours: each record books
      // exactly its own chunk.
      for (ChunkRecord& rec : data.records) {
        loaded[rec.chunk] = 1;
        records[rec.chunk] = std::move(rec);
      }
      resuming = true;
    }
    ckpt.open(cfg_.checkpoint_path, header, resuming);
  }

  // Work remaining this call: non-loaded chunks inside the range.
  std::size_t runnable_chunks = 0;
  std::size_t runnable_units = 0;
  for (std::size_t c = begin_chunk; c < end_chunk; ++c) {
    if (loaded[c]) continue;
    ++runnable_chunks;
    runnable_units += std::min(n, (c + 1) * chunk_size) - c * chunk_size;
  }

  std::size_t shards = cfg_.shards;
  if (shards == 0) {
    shards = std::thread::hardware_concurrency();
    if (shards == 0) shards = 1;
  }
  if (shards > runnable_chunks) shards = runnable_chunks;
  if (shards == 0) shards = 1;

  std::atomic<std::size_t> next_chunk{begin_chunk};
  std::atomic<std::size_t> fresh_claimed{0};

  // The streaming fold. Chunk records merge into the result in strict
  // chunk order the moment the frontier chunk completes, then free —
  // memory stays bounded by chunks in flight, not campaign size. Chunk
  // order == work-unit order, so the merged registry's FP summation
  // grouping is a pure function of (n, chunk_size) and the outcome list
  // lands in work-unit order: byte-identity across shard counts, worker
  // processes, and resume follows.
  CampaignResult r;
  r.aggregated = cfg_.aggregate_outcomes;
  std::mutex publish_mu;
  // A range-restricted call folds only its own chunks (chunks outside
  // the range belong to other worker processes); the result is then
  // marked incomplete below, whatever the fold reached.
  std::size_t frontier = begin_chunk;
  auto drain = [&]() {  // publish_mu must be held (or workers joined)
    while (frontier < end_chunk && records[frontier].has_value()) {
      ChunkRecord& rec = *records[frontier];
      r.metrics.merge(rec.registry);
      r.units_run += rec.agg.units;
      r.total_tcks += rec.agg.total_tcks;
      r.generation_tcks += rec.agg.generation_tcks;
      r.observation_tcks += rec.agg.observation_tcks;
      r.violations += static_cast<std::size_t>(rec.agg.violations);
      r.failures += static_cast<std::size_t>(rec.agg.failures);
      std::vector<UnitOutcome>& dst =
          cfg_.aggregate_outcomes ? r.failed : r.units;
      for (UnitOutcome& o : rec.outcomes) dst.push_back(std::move(o));
      records[frontier].reset();
      ++frontier;
    }
  };
  drain();  // resumed chunks may already form a complete prefix

  // Per-unit event streams (determinism-test fodder) keep the historic
  // one-slot-per-unit layout; only allocated when requested.
  std::vector<std::vector<obs::Event>> events(cfg_.keep_events ? n : 0);

  // Live telemetry rides strictly beside the deterministic machinery:
  // workers publish progress into lock-free per-worker slots, a sampler
  // thread folds the slots into JSONL heartbeats. Nothing below reads
  // telemetry state back into the chunk records, which is the whole
  // byte-identity-with-telemetry argument.
  obs::Telemetry telemetry(cfg_.telemetry, shards, runnable_units);
  telemetry.start();

  // Only keep_events reads a worker hub's tracer ring; without it the
  // hubs keep and reserve none.
  obs::TracerConfig trace = cfg_.trace;
  if (!cfg_.keep_events) trace.capacity = 0;

  auto worker = [&](std::size_t worker_id) {
    // The hub is built inside the worker: one observer per thread, never
    // shared. Only the optional live sink crosses threads.
    obs::Hub hub(trace);
    hub.set_strict(cfg_.strict_metrics);
    if (live_sink_ != nullptr) hub.add_sink(live_sink_);

    using tele_clock = std::chrono::steady_clock;
    obs::WorkerProgress* tp = telemetry.worker_slot(worker_id);
    tele_clock::time_point last = tp ? tele_clock::now()
                                     : tele_clock::time_point{};

    for (;;) {
      // Cooperative cancel: checked between chunk claims, so a cancelled
      // campaign stops at the next chunk boundary — in-flight chunks
      // finish (and checkpoint) normally.
      if (cfg_.cancel != nullptr &&
          cfg_.cancel->load(std::memory_order_relaxed)) {
        break;
      }
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= end_chunk) break;
      if (loaded[c]) continue;  // resumed; its record is already in place
      if (cfg_.max_chunks != 0 &&
          fresh_claimed.fetch_add(1, std::memory_order_relaxed) >=
              cfg_.max_chunks) {
        // Incremental-step budget exhausted (approximate under race):
        // stop claiming, leaving the rest for a later resumed call.
        break;
      }

      ChunkRecord rec;
      rec.chunk = c;
      const std::size_t lo = c * chunk_size;
      const std::size_t hi = std::min(n, lo + chunk_size);
      for (std::size_t i = lo; i < hi; ++i) {
        // Materialize the unit here, inside the worker: for a lazy
        // source this is the only place unit i ever exists.
        const CampaignUnit* unit = nullptr;
        CampaignUnit materialized;
        if (source_ != nullptr) {
          materialized = source_->unit(i);
          unit = &materialized;
        } else {
          unit = &units_[i];
        }

        hub.reset();
        tele_clock::time_point t0{};
        if (tp != nullptr) {
          t0 = tele_clock::now();
          tp->add_idle(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - last)
                  .count()));
          tp->begin_unit(unit->name.c_str());
        }
        CampaignContext ctx(hub, worker_id, i, prototype_);
        UnitOutcome out;
        try {
          out = unit->run(ctx);
        } catch (const std::exception& e) {
          out = UnitOutcome{};
          out.failed = true;
          out.summary = std::string("error: ") + e.what();
        }
        out.name = unit->name;
        out.index = i;

        // Fold the unit into the chunk record in unit order.
        const obs::Registry& reg = hub.registry();
        rec.registry.merge(reg);
        ++rec.agg.units;
        rec.agg.total_tcks += out.total_tcks;
        rec.agg.generation_tcks += out.generation_tcks;
        rec.agg.observation_tcks += out.observation_tcks;
        if (out.violation) ++rec.agg.violations;
        if (out.failed) ++rec.agg.failures;
        if (cfg_.keep_events) events[i] = hub.tracer().events();
        if (tp != nullptr) {
          const tele_clock::time_point t1 = tele_clock::now();
          obs::UnitDelta d;
          d.busy_ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count());
          d.transitions = reg.counter_value("bus.transitions");
          d.tcks = reg.counter_value("tck.total");
          d.cache_hits = reg.counter_value("bus.cache_hits");
          d.cache_misses = reg.counter_value("bus.cache_misses");
          tp->end_unit(d);
          last = t1;
        }
        if (!cfg_.aggregate_outcomes || out.failed) {
          rec.outcomes.push_back(std::move(out));
        }
      }

      // Publish: checkpoint the completed chunk, slot it, advance the
      // streaming fold over any now-consecutive frontier. The record's
      // line is formatted before the lock; only its write is under it.
      const std::string line =
          ckpt.is_open() ? chunk_record_line(rec) : std::string();
      {
        std::lock_guard<std::mutex> lk(publish_mu);
        if (ckpt.is_open()) ckpt.append_line(line);
        records[c] = std::move(rec);
        drain();
      }
    }
  };

  if (shards == 1 || runnable_chunks <= 1) {
    worker(0);
    shards = 1;
  } else {
    std::vector<std::thread> pool;
    pool.reserve(shards);
    for (std::size_t w = 0; w < shards; ++w) pool.emplace_back(worker, w);
    for (std::thread& t : pool) t.join();
  }
  telemetry.stop();

  drain();  // no lock needed: workers are done
  r.complete = cfg_.range_begin == 0 && range_end == n && frontier == n_chunks;
  r.cancelled =
      cfg_.cancel != nullptr && cfg_.cancel->load(std::memory_order_relaxed);
  r.shards_used = shards;
  if (telemetry.enabled()) r.telemetry = telemetry.sample();
  if (cfg_.keep_events) r.events = std::move(events);
  return r;
}

}  // namespace jsi::core
