#include "scenario/run.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "obs/profile.hpp"
#include "obs/tracer.hpp"
#include "scenario/build.hpp"
#include "scenario/serialize.hpp"
#include "scenario/sweep.hpp"
#include "util/json.hpp"

namespace jsi::scenario {

namespace {

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw std::runtime_error("cannot open " + path.string() + " for writing");
  }
  os << text;
  if (!os) throw std::runtime_error("failed writing " + path.string());
}

ScenarioOutcome render_outcome(const ScenarioSpec& spec,
                               core::CampaignResult result,
                               const RunOptions& opt) {
  ScenarioOutcome out;
  out.result = std::move(result);
  out.report_text = out.result.to_text();
  out.metrics_json = out.result.metrics.to_json() + "\n";
  out.events_jsonl = render_events_jsonl(out.result);
  if (opt.profile) out.profile_text = render_profile(spec, out.result);
  if (spec.sweep && out.result.complete) {
    out.yield_json = render_yield_json(spec, out.result);
  }
  return out;
}

std::string part_path(const std::string& checkpoint, std::size_t worker) {
  return checkpoint + ".part" + std::to_string(worker);
}

/// Multi-process execution: fork workers over disjoint chunk-aligned
/// index ranges, each appending its chunk records to its own checkpoint
/// part file; then concatenate the parts (chunk order == worker order,
/// since ranges are assigned in index order) and fold the merged
/// checkpoint through an in-process resume pass. The fold consumes
/// records through the same chunk-ordered drain an uninterrupted run
/// uses and the records round-trip doubles bit-exactly, so the final
/// artifacts are byte-identical to any other worker/shard count.
ScenarioOutcome run_multiprocess(const ScenarioSpec& spec,
                                 const RunOptions& opt) {
  if (spec.campaign.keep_events) {
    throw std::invalid_argument(
        "multi-process run: keep_events is incompatible with --workers");
  }
  if (opt.max_chunks != 0) {
    throw std::invalid_argument(
        "multi-process run: --max-chunks is incompatible with --workers");
  }

  // Plan the split against an unexecuted campaign: unit count and the
  // chunk width run() will schedule with.
  std::size_t n = 0;
  std::size_t chunk = 0;
  bool aggregate = false;
  {
    BuildOptions probe_opt;
    probe_opt.shards = 1;
    ScenarioCampaign probe = build_campaign(spec, probe_opt);
    n = probe.runner().size();
    chunk = probe.runner().effective_chunk_size();
    aggregate = probe.runner().config().aggregate_outcomes;
  }
  const std::size_t n_chunks = chunk == 0 ? 0 : (n + chunk - 1) / chunk;
  if (n_chunks == 0) {
    // Nothing to distribute; run in-process.
    RunOptions inproc = opt;
    inproc.workers = 0;
    return run_scenario(spec, inproc);
  }
  const std::size_t workers = std::min(opt.workers, n_chunks);

  std::string ckpt = opt.checkpoint_path;
  const bool temp_ckpt = ckpt.empty();
  if (temp_ckpt) {
    ckpt = (std::filesystem::temp_directory_path() /
            ("jsi_sweep_" + std::to_string(::getpid()) + ".checkpoint"))
               .string();
  }

  // Fork the workers. Each child runs its range with telemetry and
  // progress off (heartbeats from N processes would interleave) and
  // exits 0 on success; its partial aggregates live entirely in its
  // part file, so nothing crosses the process boundary but bytes.
  std::vector<pid_t> pids;
  std::size_t next_chunk = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t share =
        n_chunks / workers + (w < n_chunks % workers ? 1 : 0);
    const std::size_t begin = next_chunk * chunk;
    const std::size_t end = std::min((next_chunk + share) * chunk, n);
    next_chunk += share;

    const std::string part = part_path(ckpt, w);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("multi-process run: fork failed");
    if (pid == 0) {
      int status = 1;
      try {
        BuildOptions bo;
        bo.shards = opt.shards;
        bo.checkpoint_path = part;
        bo.resume = opt.resume && std::filesystem::exists(part);
        bo.range_begin = begin;
        bo.range_end = end;
        ScenarioCampaign campaign = build_campaign(spec, bo);
        campaign.run();
        status = 0;
      } catch (...) {
      }
      ::_exit(status);
    }
    pids.push_back(pid);
  }

  bool failed = false;
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid ||
        !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      failed = true;
    }
  }
  if (failed) {
    throw std::runtime_error(
        "multi-process run: a worker process failed; its checkpoint part "
        "files were kept for inspection");
  }

  // Assemble the merged checkpoint: one header plus every part's durable
  // records, in worker (== chunk) order. merge_checkpoint_parts copies
  // only newline-terminated lines — a part's torn tail (a worker killed
  // mid-append) is dropped, never re-terminated into a line that would
  // make the fold's loader stop early and discard every later part's
  // records; the dropped chunk simply re-runs in the fold below.
  {
    core::CheckpointHeader header;
    header.fingerprint = core::fingerprint_text(serialize(spec));
    header.units = n;
    header.chunk_size = chunk;
    header.aggregate = aggregate;
    std::vector<std::string> parts;
    for (std::size_t w = 0; w < workers; ++w) parts.push_back(part_path(ckpt, w));
    core::merge_checkpoint_parts(ckpt, header, parts);
  }

  // Fold the merged checkpoint in-process. Every chunk is already in the
  // file, so this is a pure merge pass (no units execute); it also
  // transparently re-runs any chunk a worker failed to record.
  RunOptions fold = opt;
  fold.workers = 0;
  fold.checkpoint_path = ckpt;
  fold.resume = true;
  ScenarioOutcome out = run_scenario(spec, fold);

  std::error_code ec;
  for (std::size_t w = 0; w < workers; ++w) {
    std::filesystem::remove(part_path(ckpt, w), ec);
  }
  if (temp_ckpt) std::filesystem::remove(ckpt, ec);
  return out;
}

}  // namespace

ScenarioOutcome run_scenario(const ScenarioSpec& spec, const RunOptions& opt) {
  if (opt.workers > 1) {
    if (opt.cancel != nullptr) {
      throw std::invalid_argument(
          "multi-process run: cancel is incompatible with --workers");
    }
    return run_multiprocess(spec, opt);
  }
  BuildOptions bo;
  bo.shards = opt.shards;
  bo.telemetry = opt.telemetry;
  bo.progress = opt.progress;
  bo.checkpoint_path = opt.checkpoint_path;
  bo.resume = opt.resume;
  bo.max_chunks = opt.max_chunks;
  bo.cancel = opt.cancel;
  bo.telemetry_sink = opt.telemetry_sink;
  ScenarioCampaign campaign = build_campaign(spec, bo);
  return render_outcome(spec, campaign.run(), opt);
}

std::string render_events_jsonl(const core::CampaignResult& result) {
  if (result.events.empty()) return {};
  std::ostringstream os;
  for (std::size_t u = 0; u < result.events.size(); ++u) {
    os << "{\"kind\":\"UnitBegin\",\"unit\":" << u << ",\"name\":";
    util::json::write_escaped_string(
        os, u < result.units.size() ? result.units[u].name : std::string());
    os << "}\n";
    for (const obs::Event& e : result.events[u]) {
      obs::write_event_jsonl(os, e);
    }
  }
  return os.str();
}

std::string render_profile(const ScenarioSpec& spec,
                           const core::CampaignResult& result) {
  // obs knows nothing about core, so bridge the outcome list into the
  // neutral shape profile_report consumes.
  std::vector<obs::ProfileUnit> units;
  units.reserve(result.units.size());
  for (const core::UnitOutcome& u : result.units) {
    obs::ProfileUnit p;
    p.name = u.name;
    p.total_tcks = u.total_tcks;
    p.generation_tcks = u.generation_tcks;
    p.observation_tcks = u.observation_tcks;
    p.violation = u.violation;
    p.failed = u.failed;
    units.push_back(std::move(p));
  }
  obs::ProfileTotals totals;
  totals.units = result.units_run;
  totals.violations = result.violations;
  totals.failures = result.failures;
  totals.total_tcks = result.total_tcks;
  totals.generation_tcks = result.generation_tcks;
  totals.observation_tcks = result.observation_tcks;
  obs::ProfileOptions po;
  po.tck_period_ps = spec.obs.tck_period_ps;
  return obs::profile_report(
      totals, units, result.metrics,
      result.telemetry ? &*result.telemetry : nullptr, po);
}

std::string render_yield_json(const ScenarioSpec& spec,
                              const core::CampaignResult& result) {
  if (!spec.sweep) return {};
  namespace json = jsi::util::json;
  // Re-derive the grid from the spec (cheap: no units materialize) and
  // read the merged sweep.* counters — no per-unit state involved.
  const SweepUnitSource source(spec);
  const obs::Registry& m = result.metrics;

  const auto count_json = [](std::uint64_t v) {
    return json::Value::make_number(static_cast<double>(v));
  };
  const auto point_books = [&](const std::string& prefix, json::Value& v) {
    const std::uint64_t units = m.counter_value(prefix + ".units");
    const std::uint64_t violations = m.counter_value(prefix + ".violations");
    const std::uint64_t failures = m.counter_value(prefix + ".failures");
    v.add("units", count_json(units));
    v.add("violations", count_json(violations));
    v.add("failures", count_json(failures));
    const double yield =
        units == 0 ? 0.0
                   : static_cast<double>(units - violations - failures) /
                         static_cast<double>(units);
    v.add("yield", json::Value::make_number(yield));
    if (!spec.sweep->spec_limits) return;
    // Ground truth of the completed dies: escape rate over bad dies,
    // overkill rate over good ones, sensitivity over bad wires (1 when
    // there are none to catch).
    const auto truth = [&](const char* name) {
      return m.counter_value(prefix + ".truth." + name);
    };
    const std::uint64_t bad = truth("bad");
    const std::uint64_t escapes = truth("escapes");
    const std::uint64_t overkill = truth("overkill");
    const std::uint64_t good = units - failures - bad;
    const std::uint64_t positives = truth("wire_tp") + truth("wire_fn");
    const auto ratio = [](std::uint64_t num, std::uint64_t den, double none) {
      return json::Value::make_number(
          den == 0 ? none
                   : static_cast<double>(num) / static_cast<double>(den));
    };
    json::Value t = json::Value::make_object();
    t.add("bad", count_json(bad));
    t.add("escapes", count_json(escapes));
    t.add("overkill", count_json(overkill));
    t.add("escape_rate", ratio(escapes, bad, 0.0));
    t.add("overkill_rate", ratio(overkill, good, 0.0));
    t.add("wire_sensitivity", ratio(truth("wire_tp"), positives, 1.0));
    v.add("truth", std::move(t));
  };

  json::Value v = json::Value::make_object();
  v.add("schema", json::Value::make_string("jsi.yield.v1"));
  v.add("scenario", json::Value::make_string(spec.name));
  v.add("samples", count_json(source.samples()));
  v.add("grid_points", count_json(source.grid_points()));
  v.add("units", count_json(source.count()));

  json::Value population = json::Value::make_object();
  point_books("sweep", population);
  v.add("population", std::move(population));

  json::Value grid = json::Value::make_array();
  for (std::size_t g = 0; g < source.grid_points(); ++g) {
    const SweepUnitSource::GridPoint& p = source.grid_point(g);
    json::Value e = json::Value::make_object();
    e.add("id", count_json(p.id));
    if (p.nd_vhthr_frac) {
      e.add("nd_vhthr_frac", json::Value::make_number(*p.nd_vhthr_frac));
    }
    if (p.sd_budget_ps) e.add("sd_budget_ps", count_json(*p.sd_budget_ps));
    point_books(SweepUnitSource::grid_prefix(g), e);
    grid.push(std::move(e));
  }
  v.add("grid", std::move(grid));

  return json::to_text(v, 2) + "\n";
}

void write_artifacts(const std::string& dir, const ScenarioOutcome& outcome) {
  const std::filesystem::path root(dir);
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    throw std::runtime_error("cannot create " + root.string() + ": " +
                             ec.message());
  }
  write_file(root / "report.txt", outcome.report_text);
  write_file(root / "metrics.json", outcome.metrics_json);
  if (!outcome.events_jsonl.empty()) {
    write_file(root / "events.jsonl", outcome.events_jsonl);
  }
  if (!outcome.profile_text.empty()) {
    write_file(root / "profile.txt", outcome.profile_text);
  }
  if (!outcome.yield_json.empty()) {
    write_file(root / "yield.json", outcome.yield_json);
  }
}

}  // namespace jsi::scenario
