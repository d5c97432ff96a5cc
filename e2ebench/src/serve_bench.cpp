// The serve_closed workload: an in-process serve::Server (unix socket,
// pool of 2) under a closed loop of 2 client connections. Each client
// submits a job from the seeded catalog with "shards":1, waits for its
// terminal state on a `subscribe` stream (not by status polling, which
// would quantise latency), fetches `result`, checks the report against an
// in-process run_scenario of the same text, then submits the next, until
// the run's fixed number of jobs has been submitted. The jobs run in
// segments; between two, the clients park and the host-speed probe runs
// (probe.hpp), and each segment's times are scaled by the probes around it.
// Each segment also has its own resident-set peak; the run reports the
// median segment.

#include <malloc.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "gate.hpp"
#include "probe.hpp"
#include "scenario/parse.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/prng.hpp"
#include "workloads.hpp"

namespace jsi::e2e {

namespace json = util::json;

std::vector<Metric> ServeLayer::metrics() const {
  return {{"serve.submit_rtt_ms_p50", submit_rtt_ms_p50, "ms"},
          {"serve.queue_wait_ms_p50", queue_wait_ms_p50, "ms"},
          {"serve.run_ms_p50", run_ms_p50, "ms"},
          {"serve.result_rtt_ms_p50", result_rtt_ms_p50, "ms"},
          {"serve.result_bytes_mean", result_bytes_mean, "bytes"},
          {"serve.status_all_bytes", status_all_bytes, "bytes"}};
}

namespace {

constexpr std::size_t kPool = 2;
constexpr std::size_t kClients = 2;
/// Closed-loop jobs per second of --seconds: about the daemon's rate on a
/// 4-vCPU x86-64 box, so a run lasts about --seconds there.
constexpr std::size_t kJobsPerSecond = 30;
/// A run that has not finished its jobs by then fails its gate.
constexpr double kLoopCapS = 120.0;
/// Probe points of a run: the jobs run in this many segments.
constexpr std::size_t kSegments = 10;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

json::Value verb(const char* name) {
  json::Value v = json::Value::make_object();
  v.add("verb", json::Value::make_string(name));
  return v;
}

json::Value job_verb(const char* name, std::uint64_t id) {
  json::Value v = verb(name);
  v.add("job", json::Value::make_number(static_cast<double>(id)));
  return v;
}

/// Samples one client thread collects.
struct ClientBooks {
  std::uint64_t units = 0;  ///< campaign units of the completed jobs
  std::uint64_t tcks = 0;   ///< simulated TCKs of the completed jobs
  std::vector<double> latency_ms;
  std::vector<std::size_t> segment;  ///< of each latency_ms sample
  std::vector<double> submit_rtt_ms;
  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  std::vector<double> result_rtt_ms;
  double result_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< rejected submits + failed/cancelled jobs
  std::vector<std::string> errors;  ///< wrong output (gate failures)
};

struct Reference {
  std::string text;
  std::string report;
  std::uint64_t units = 0;
  std::uint64_t tcks = 0;
};

/// Hands the run's jobs out segment by segment: a client asking for a job
/// past the open segment's end parks until the next segment opens.
class JobGate {
 public:
  JobGate(std::size_t jobs, std::size_t clients)
      : jobs_(jobs), clients_(clients) {}

  /// Called by a client before each job: the job's segment, or nullopt
  /// once every job has been handed out or the gate is closed.
  std::optional<std::size_t> next() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (started_ >= jobs_ || closed_) return std::nullopt;
      if (started_ < end_) {
        ++started_;
        return segment_;
      }
      ++parked_;
      cv_.notify_all();
      const std::size_t parked_in = segment_;
      cv_.wait(lk, [&] { return segment_ != parked_in || closed_; });
    }
  }

  /// Called once by every client thread on its way out, however it ends.
  void leave() {
    std::lock_guard<std::mutex> lk(mu_);
    ++left_;
    cv_.notify_all();
  }

  /// Opens segment `s`, which ends before job `end`, and waits until every
  /// client has parked at its end or left.
  void run_segment(std::size_t s, std::size_t end) {
    std::unique_lock<std::mutex> lk(mu_);
    segment_ = s;
    end_ = end;
    parked_ = 0;
    cv_.notify_all();
    cv_.wait(lk, [&] { return parked_ + left_ >= clients_; });
  }

  void close() {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const std::size_t jobs_;
  const std::size_t clients_;
  std::size_t segment_ = static_cast<std::size_t>(-1);  ///< none open yet
  std::size_t end_ = 0;
  std::size_t started_ = 0;
  std::size_t parked_ = 0;
  std::size_t left_ = 0;
  bool closed_ = false;
};

/// One closed-loop client: submit, follow the job on the stream
/// connection, fetch the result, repeat while the gate hands out jobs.
void client_loop(const std::string& sock, const std::vector<Reference>& refs,
                 std::uint64_t seed, JobGate& gate, ClientBooks& b) {
  serve::Client ctl = serve::Client::connect_unix(sock);
  serve::Client stream = serve::Client::connect_unix(sock);
  // Each client walks the catalog in its own seeded order, so the job mix
  // of a run is the catalog's, whatever the seed.
  std::vector<std::size_t> order(refs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Prng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }

  for (std::size_t k = 0;; ++k) {
    const std::optional<std::size_t> segment = gate.next();
    if (!segment) break;
    const Reference& ref = refs[order[k % order.size()]];
    ++b.attempted;
    json::Value submit = verb("submit");
    submit.add("scenario_text", json::Value::make_string(ref.text));
    submit.add("shards", json::Value::make_number(1));

    const Clock::time_point t_send = Clock::now();
    const json::Value sub = ctl.request(submit);
    const Clock::time_point t_queued = Clock::now();
    const json::Value* id = serve::find_member(sub, "job");
    if (id == nullptr || !id->is_number()) {
      ++b.failed;
      continue;
    }
    const auto job = static_cast<std::uint64_t>(id->number);

    // The stream replays the job's backlog, then follows it live.
    const json::Value ack = stream.request(job_verb("subscribe", job));
    if (!serve::bool_or(ack, "ok", false)) {
      throw std::runtime_error("subscribe refused: " +
                               serve::string_or(ack, "message", "?"));
    }
    Clock::time_point t_running = t_queued;
    std::string state;
    while (state != "done" && state != "failed" && state != "cancelled") {
      const std::optional<std::string> frame = stream.read_frame();
      if (!frame) throw std::runtime_error("job stream closed");
      std::string err;
      const std::optional<json::Value> rec = serve::parse_message(*frame, &err);
      if (!rec) throw std::runtime_error("bad stream record: " + err);
      state = serve::string_or(*rec, "state", "");
      if (state == "running") t_running = Clock::now();
    }
    const Clock::time_point t_done = Clock::now();
    if (state != "done") {
      ++b.failed;
      continue;
    }

    const json::Value res = ctl.request(job_verb("result", job));
    const Clock::time_point t_result = Clock::now();
    const json::Value* report = serve::find_member(res, "report");
    if (report == nullptr || report->str != ref.report) {
      b.errors.push_back("job " + std::to_string(job) +
                         ": report differs from in-process run_scenario");
      continue;
    }
    b.latency_ms.push_back(ms_between(t_send, t_result));
    b.segment.push_back(*segment);
    b.submit_rtt_ms.push_back(ms_between(t_send, t_queued));
    b.queue_wait_ms.push_back(ms_between(t_queued, t_running));
    b.run_ms.push_back(ms_between(t_running, t_done));
    b.result_rtt_ms.push_back(ms_between(t_done, t_result));
    b.result_bytes += static_cast<double>(json::to_text(res).size());
    b.units += ref.units;
    b.tcks += ref.tcks;
  }
}

/// Returns the heap's free memory to the OS, which glibc otherwise keeps in
/// amounts that depend on thread timing, and restarts the process's
/// resident-set high-water mark, so that the next peak_rss_mib() is the
/// peak of what follows. False when the mark cannot be restarted.
bool restart_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

/// Start a daemon, wait until it answers, then drain it: the set-up cost.
double time_server_start(const std::string& sock) {
  serve::ServerConfig cfg;
  cfg.unix_path = sock;
  cfg.pool = kPool;
  const Clock::time_point t0 = Clock::now();
  serve::Server server(cfg);
  server.start();
  std::thread loop([&] { server.serve(); });
  double secs = 0;
  try {
    serve::Client c = serve::Client::connect_unix(sock);
    c.request(verb("status"));
    secs = seconds_since(t0);
  } catch (...) {
    server.request_drain();
    loop.join();
    throw;
  }
  server.request_drain();
  loop.join();
  return secs;
}

}  // namespace

RunResult run_serve_workload(const Options& opt) {
  RunResult out;
  const std::vector<std::string> catalog = serve_catalog(opt.seed, opt.tiny);
  const std::string dir = kWorkDir + "/serve_closed";
  std::filesystem::create_directories(dir);
  const std::string sock = dir + "/daemon.sock";

  // References: every catalog job in-process at 1 shard (the same text a
  // client submits), checked against the closed-form TCK costs.
  std::vector<Reference> refs;
  std::string all_reports;
  std::uint64_t units = 0, violations = 0, tcks = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const CampaignRun r = plain_run(catalog[i], "", dir + "/reference");
    const scenario::ScenarioSpec spec = scenario::parse_scenario(catalog[i]);
    check_tcks(spec, r.outcome.result, "catalog job " + spec.name, out);
    const core::CampaignResult& res = r.outcome.result;
    refs.push_back({catalog[i], r.outcome.report_text, res.units_run,
                    res.total_tcks});
    all_reports += r.outcome.report_text;
    units += res.units_run;
    violations += res.violations;
    tcks += res.total_tcks;
  }
  check_pin(opt, digest(all_reports), "", units, violations, tcks, out);

  // The traced pass must reproduce every reference report.
  LayerSink sink;
  const auto catalog_pass = [&](bool traced, LayerBooks* books) {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < refs.size(); ++i) {
      if (!traced) {
        plain_run(refs[i].text, "", dir + "/plain");
        continue;
      }
      const TracedRun t = traced_run(refs[i].text, "", dir + "/traced", sink);
      out.check(t.outcome.report_text == refs[i].report,
                "traced catalog job " + std::to_string(i) +
                    " differs from the untraced run");
      out.check(t.books.layers.nest_errors == 0, "span nesting violations");
      if (books != nullptr) books->add(t.books);
    }
    return seconds_since(t0);
  };
  LayerBooks first_pass;
  catalog_pass(true, &first_pass);
  const double coverage = LayerSink::coverage(first_pass.layers);
  out.check(coverage >= 0.9, "layer split covers only " +
                                 std::to_string(coverage) +
                                 " of traced session time");

  // Set-up: daemon start until it answers, median of several, each scaled
  // by the wake-up probe after it: the time is thread start-up and
  // wake-ups, which the floating-point probe does not stand for.
  const std::vector<double> setups = repeat_setup(
      [&] {
        const double host_s = time_server_start(sock);
        return host_s * kWakeRefS / wake_probe();
      },
      opt.tiny);

  // The closed loop.
  serve::ServerConfig cfg;
  cfg.unix_path = sock;
  cfg.pool = kPool;
  serve::Server server(cfg);
  server.start();
  std::thread loop([&] { server.serve(); });

  // A fixed number of jobs, set by --seconds and never by how fast the
  // daemon is: finished jobs are never evicted, so peak_rss_mib and
  // serve.status_all_bytes then measure the memory of a fixed job mix.
  // At least 200, so that more than 10 latencies lie beyond p95.
  const std::size_t jobs =
      opt.tiny ? 8
               : std::max<std::size_t>(
                     200, kJobsPerSecond * static_cast<std::size_t>(opt.seconds));
  HostClock clock(kPool);
  JobGate gate(jobs, kClients);
  std::vector<ClientBooks> books(kClients);
  std::vector<std::string> client_errors(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        client_loop(sock, refs, opt.seed * 31 + c, gate, books[c]);
      } catch (const std::exception& e) {
        client_errors[c] = e.what();
      }
      gate.leave();
    });
  }
  const std::size_t segments = std::min(kSegments, jobs);
  std::vector<double> scale;     // per segment: host to reference seconds
  std::vector<double> peak_mib;  // per segment: resident-set peak
  double host_elapsed = 0;
  double elapsed = 0;  // reference seconds
  const Clock::time_point start = Clock::now();
  for (std::size_t s = 0; s < segments && seconds_since(start) < kLoopCapS;
       ++s) {
    out.check(restart_peak_rss(), "cannot restart the peak RSS mark");
    const Clock::time_point t0 = Clock::now();
    gate.run_segment(s, jobs * (s + 1) / segments);
    const double host_s = seconds_since(t0);
    peak_mib.push_back(peak_rss_mib());
    scale.push_back(clock.next_scale());
    host_elapsed += host_s;
    elapsed += host_s * scale.back();
  }
  gate.close();
  for (std::thread& t : clients) t.join();

  double status_bytes = 0;
  try {
    serve::Client c = serve::Client::connect_unix(sock);
    status_bytes =
        static_cast<double>(json::to_text(c.request(verb("status"))).size());
  } catch (const std::exception& e) {
    out.check(false, std::string("status request failed: ") + e.what());
  }
  server.request_drain();
  loop.join();

  ClientBooks all;
  for (std::size_t c = 0; c < kClients; ++c) {
    out.check(client_errors[c].empty(), "client " + std::to_string(c) +
                                            ": " + client_errors[c]);
    const ClientBooks& b = books[c];
    const auto append = [](std::vector<double>& dst,
                           const std::vector<double>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    for (std::size_t i = 0; i < b.latency_ms.size(); ++i) {
      all.latency_ms.push_back(b.latency_ms[i] * scale.at(b.segment[i]));
    }
    append(all.submit_rtt_ms, b.submit_rtt_ms);
    append(all.queue_wait_ms, b.queue_wait_ms);
    append(all.run_ms, b.run_ms);
    append(all.result_rtt_ms, b.result_rtt_ms);
    all.units += b.units;
    all.tcks += b.tcks;
    all.result_bytes += b.result_bytes;
    all.attempted += b.attempted;
    all.failed += b.failed;
    for (const std::string& e : b.errors) out.check(false, e);
  }
  const double completed = static_cast<double>(all.latency_ms.size());
  out.attempted = all.attempted;
  out.failed = all.failed;
  const obs::Registry snap = server.metrics_snapshot();
  out.check(all.failed == 0, std::to_string(all.failed) +
                                 " jobs failed or were rejected");
  out.check(snap.counter_value("serve.jobs_completed") == all.attempted,
            "daemon completed " +
                std::to_string(snap.counter_value("serve.jobs_completed")) +
                " of " + std::to_string(all.attempted) + " submitted jobs");
  out.check(all.latency_ms.size() == jobs,
            "only " + std::to_string(all.latency_ms.size()) + " of " +
                std::to_string(jobs) + " jobs finished");

  out.info = {{"jobs", completed, "count"},
              {"host_jobs_per_s", completed / host_elapsed, "jobs/s"},
              {"probe_ms_p50", median(clock.samples()) * 1e3, "ms"},
              {"error_rate",
               all.attempted == 0 ? 0.0
                                  : static_cast<double>(all.failed) /
                                        static_cast<double>(all.attempted),
               "fraction"},
              {"layer_coverage", coverage, "fraction"}};

  if (!opt.trace) {
    out.add("setup_s", median(setups), "s");
    out.add("units_per_s", static_cast<double>(all.units) / elapsed, "units/s");
    out.add("sim_tcks_per_s", static_cast<double>(all.tcks) / elapsed, "TCK/s");
    out.add("peak_rss_mib", median(peak_mib), "MiB");
    out.add("jobs_per_s", completed / elapsed, "jobs/s");
    out.add("job_latency_p50_ms", quantile(all.latency_ms, 0.5), "ms");
    out.add("job_latency_p95_ms", quantile(all.latency_ms, 0.95), "ms");
    return out;
  }

  // Traced run: the campaign layers of the same jobs, measured in-process
  // over catalog passes (the daemon runs exactly these calls per job),
  // alternating untraced and traced passes for the overhead.
  std::vector<std::vector<Metric>> layer_runs;
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  for (int p = 0; p < (opt.tiny ? 1 : 5); ++p) {
    plain_walls.push_back(catalog_pass(false, nullptr));
    LayerBooks pass;
    traced_walls.push_back(catalog_pass(true, &pass));
    layer_runs.push_back(pass.metrics());
  }
  out.metrics = median_metrics(layer_runs);
  ServeLayer s;
  s.submit_rtt_ms_p50 = quantile(all.submit_rtt_ms, 0.5);
  s.queue_wait_ms_p50 = quantile(all.queue_wait_ms, 0.5);
  s.run_ms_p50 = quantile(all.run_ms, 0.5);
  s.result_rtt_ms_p50 = quantile(all.result_rtt_ms, 0.5);
  s.result_bytes_mean = completed > 0 ? all.result_bytes / completed : 0.0;
  s.status_all_bytes = status_bytes;
  for (Metric& m : s.metrics()) out.metrics.push_back(std::move(m));
  out.add("obs.trace_overhead_frac",
          median(traced_walls) / median(plain_walls) - 1.0, "fraction");
  return out;
}

}  // namespace jsi::e2e
