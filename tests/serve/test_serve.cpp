// Behavior suite for the `jsi serve` campaign daemon, driven in-process:
// a Server on an ephemeral loopback port (plus one unix-socket case)
// with the poll loop on a background thread and serve::Client as the
// wire driver. Pins the parity contract (socket-submitted jobs render
// byte-identical artifacts to the local run_scenario()/`jsi run` path),
// FIFO admission with typed queue_full back-pressure, cooperative
// cancel, live record streaming, malformed-frame rejection, daemon
// survival across client disconnects, and graceful drain. Runs under the
// campaign_sanitize TSan sub-build: the poll loop, the worker pool and
// the telemetry bridge all cross threads here.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/parse.hpp"
#include "scenario/run.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace jsi;
using namespace jsi::serve;
namespace json = jsi::util::json;

namespace {

std::string scenario_text() {
  static const std::string text = [] {
    std::ifstream is(
        std::string(JSI_SCENARIO_DIR) + "/campaign_8bit.scenario.json",
        std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  }();
  return text;
}

/// Blocks pool workers inside test_job_gate until release() — the
/// deterministic handle on "a job is Running right now".
class Gate {
 public:
  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return open_; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

class Daemon {
 public:
  explicit Daemon(ServerConfig cfg, Gate* gate = nullptr) : gate_(gate) {
    if (cfg.unix_path.empty()) cfg.use_tcp = true;
    server_ = std::make_unique<Server>(std::move(cfg));
    server_->start();
    loop_ = std::thread([this] { server_->serve(); });
  }

  ~Daemon() { stop(); }

  void stop() {
    // Release any test gate first: a drain waits for running jobs, and a
    // failed assertion must not leave a gated worker deadlocking it.
    if (gate_ != nullptr) gate_->release();
    if (loop_.joinable()) {
      server_->request_drain();
      loop_.join();
    }
  }

  Server& server() { return *server_; }

  Client client() const {
    return server_->port() != 0
               ? Client::connect_tcp(server_->port())
               : Client::connect_unix(unix_path_);
  }

  void set_unix_path(std::string p) { unix_path_ = std::move(p); }

  /// Spin until job `id` reaches `state` (bounded; fails the test on
  /// timeout).
  void await_state(std::uint64_t id, JobState state) {
    for (int spin = 0; spin < 10000; ++spin) {
      const auto info = server_->job_info(id);
      if (info && info->state == state) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "job " << id << " never reached " << to_string(state);
  }

 private:
  Gate* gate_ = nullptr;
  std::unique_ptr<Server> server_;
  std::thread loop_;
  std::string unix_path_;
};

json::Value make_submit(bool stream = false) {
  json::Value v = json::Value::make_object();
  v.add("verb", json::Value::make_string("submit"));
  v.add("scenario_text", json::Value::make_string(scenario_text()));
  if (stream) v.add("stream", json::Value::make_bool(true));
  return v;
}

json::Value make_job_request(const std::string& verb, std::uint64_t job) {
  json::Value v = json::Value::make_object();
  v.add("verb", json::Value::make_string(verb));
  v.add("job", json::Value::make_number(static_cast<double>(job)));
  return v;
}

bool ok(const json::Value& resp) {
  const json::Value* m = find_member(resp, "ok");
  return m != nullptr && m->is_bool() && m->boolean;
}

std::uint64_t job_id(const json::Value& resp) {
  const auto id = u64_or_nothing(resp, "job");
  EXPECT_TRUE(id.has_value());
  return id.value_or(0);
}

std::uint64_t wait_terminal(Client& c, std::uint64_t id) {
  for (int spin = 0; spin < 10000; ++spin) {
    const json::Value st = c.request(make_job_request("status", id));
    EXPECT_TRUE(ok(st));
    const std::string state = string_or(st, "state", "");
    if (state == "done" || state == "failed" || state == "cancelled") {
      return id;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "job " << id << " never finished";
  return id;
}

// -- parity ------------------------------------------------------------------

TEST(Serve, SubmittedJobRendersByteIdenticalArtifacts) {
  // The ground truth: the library path `jsi run` wraps.
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario(scenario_text());
  const scenario::ScenarioOutcome local = scenario::run_scenario(spec, {});

  Daemon d({});
  Client c = d.client();
  const json::Value sub = c.request(make_submit());
  ASSERT_TRUE(ok(sub));
  const std::uint64_t id = job_id(sub);
  wait_terminal(c, id);

  const json::Value res = c.request(make_job_request("result", id));
  ASSERT_TRUE(ok(res));
  EXPECT_EQ(string_or(res, "state", ""), "done");
  EXPECT_EQ(string_or(res, "report", ""), local.report_text);
  EXPECT_EQ(string_or(res, "metrics", ""), local.metrics_json);
  EXPECT_EQ(string_or(res, "events", ""), local.events_jsonl);
  EXPECT_EQ(string_or(res, "yield", ""), local.yield_json);
  EXPECT_EQ(u64_or_nothing(res, "units"), local.result.units_run);
}

TEST(Serve, ConcurrentClientsAllGetByteIdenticalArtifacts) {
  const scenario::ScenarioSpec spec =
      scenario::parse_scenario(scenario_text());
  const scenario::ScenarioOutcome local = scenario::run_scenario(spec, {});

  ServerConfig cfg;
  cfg.pool = 2;
  Daemon d(cfg);

  constexpr int kClients = 4;
  std::vector<std::string> reports(kClients);
  std::vector<std::string> metrics(kClients);
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int k = 0; k < kClients; ++k) {
    clients.emplace_back([&, k] {
      Client c = d.client();
      const json::Value sub = c.request(make_submit());
      if (!ok(sub)) {
        ++failures;
        return;
      }
      const std::uint64_t id = job_id(sub);
      wait_terminal(c, id);
      const json::Value res = c.request(make_job_request("result", id));
      if (!ok(res)) {
        ++failures;
        return;
      }
      reports[k] = string_or(res, "report", "");
      metrics[k] = string_or(res, "metrics", "");
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (int k = 0; k < kClients; ++k) {
    EXPECT_EQ(reports[k], local.report_text) << "client " << k;
    EXPECT_EQ(metrics[k], local.metrics_json) << "client " << k;
  }
}

// -- admission and back-pressure ---------------------------------------------

TEST(Serve, QueueFullYieldsTypedBackpressureError) {
  Gate gate;
  ServerConfig cfg;
  cfg.pool = 1;
  cfg.max_queue = 1;
  cfg.test_job_gate = [&](std::uint64_t) { gate.wait(); };
  Daemon d(cfg, &gate);
  Client c = d.client();

  // A occupies the single worker (held at the gate), B the single queue
  // slot; C must bounce with the typed error, not block or grow memory.
  const std::uint64_t a = job_id(c.request(make_submit()));
  d.await_state(a, JobState::Running);
  const json::Value b = c.request(make_submit());
  ASSERT_TRUE(ok(b));
  const json::Value rejected = c.request(make_submit());
  EXPECT_FALSE(ok(rejected));
  EXPECT_EQ(string_or(rejected, "error", ""), "queue_full");

  gate.release();
  wait_terminal(c, a);
  wait_terminal(c, job_id(b));
  EXPECT_GE(d.server().metrics_snapshot().counter_value(
                "serve.rejected_queue_full"),
            1u);
}

TEST(Serve, StatusAndResultOnUnknownJobAreTypedErrors) {
  Daemon d({});
  Client c = d.client();
  const json::Value st = c.request(make_job_request("status", 999));
  EXPECT_FALSE(ok(st));
  EXPECT_EQ(string_or(st, "error", ""), "unknown_job");
  const json::Value res = c.request(make_job_request("result", 999));
  EXPECT_FALSE(ok(res));
  EXPECT_EQ(string_or(res, "error", ""), "unknown_job");
}

TEST(Serve, ResultOnARunningJobSaysNotFinished) {
  Gate gate;
  ServerConfig cfg;
  cfg.test_job_gate = [&](std::uint64_t) { gate.wait(); };
  Daemon d(cfg, &gate);
  Client c = d.client();
  const std::uint64_t id = job_id(c.request(make_submit()));
  d.await_state(id, JobState::Running);
  const json::Value res = c.request(make_job_request("result", id));
  EXPECT_FALSE(ok(res));
  EXPECT_EQ(string_or(res, "error", ""), "not_finished");
  gate.release();
  wait_terminal(c, id);
}

TEST(Serve, InvalidScenarioTextIsRejectedTyped) {
  Daemon d({});
  Client c = d.client();
  json::Value v = json::Value::make_object();
  v.add("verb", json::Value::make_string("submit"));
  v.add("scenario_text", json::Value::make_string("{\"not\":\"a scenario\"}"));
  const json::Value resp = c.request(v);
  EXPECT_FALSE(ok(resp));
  EXPECT_EQ(string_or(resp, "error", ""), "invalid_scenario");
}

TEST(Serve, OversizedScenarioIsRejectedBeforeItAllocates) {
  // Three million wires would exhaust memory at build time; the parse cap
  // turns it into a typed rejection that never reaches the queue.
  Daemon d({});
  Client c = d.client();
  json::Value v = json::Value::make_object();
  v.add("verb", json::Value::make_string("submit"));
  v.add("scenario_text",
        json::Value::make_string(
            R"({"name":"big","topology":{"kind":"soc","n_wires":3000000},)"
            R"("sessions":[{"kind":"enhanced"}]})"));
  const json::Value resp = c.request(v);
  EXPECT_FALSE(ok(resp));
  EXPECT_EQ(string_or(resp, "error", ""), "invalid_scenario");
  EXPECT_EQ(string_or(resp, "message", ""),
            "topology.n_wires: must be <= 1024");
}

TEST(Serve, OversizedTraceCapacityIsRejectedAndTheDaemonStaysUp) {
  // Every campaign worker's hub reserves trace_capacity 56-byte records on
  // its own thread, so 10^15 of them on a multi-shard, multi-session
  // scenario would abort the whole daemon with std::bad_alloc. The parse
  // cap rejects the job before it is queued, and the daemon answers on.
  Daemon d({});
  Client c = d.client();
  std::string text = scenario_text();  // four sessions on four shards
  const std::string shipped = "\"trace_capacity\": 65536";
  const std::size_t at = text.find(shipped);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, shipped.size(), "\"trace_capacity\": 1000000000000000");
  json::Value v = json::Value::make_object();
  v.add("verb", json::Value::make_string("submit"));
  v.add("scenario_text", json::Value::make_string(text));
  const json::Value resp = c.request(v);
  EXPECT_FALSE(ok(resp));
  EXPECT_EQ(string_or(resp, "error", ""), "invalid_scenario");
  EXPECT_EQ(string_or(resp, "message", ""),
            "obs.trace_capacity: must be <= 1048576");

  json::Value status = json::Value::make_object();
  status.add("verb", json::Value::make_string("status"));
  EXPECT_TRUE(ok(c.request(status)));
  const json::Value admitted = c.request(make_submit());
  ASSERT_TRUE(ok(admitted)) << json::to_text(admitted);
  EXPECT_EQ(job_id(admitted), 1u) << "nothing was queued before it";
}

TEST(Serve, ShardsPastTheCapAreRejectedBeforeQueueing) {
  // One std::thread per shard: an uncapped "shards" could fail to start
  // its pool part-way, and that ends the daemon for every client.
  Daemon d({});
  Client c = d.client();
  json::Value over = make_submit();
  over.add("shards", json::Value::make_number(257));
  const json::Value resp = c.request(over);
  EXPECT_FALSE(ok(resp));
  EXPECT_EQ(string_or(resp, "error", ""), "bad_request");
  EXPECT_EQ(string_or(resp, "message", ""), "campaign.shards: must be <= 256");

  // The same cap inside the scenario text is the parser's diagnostic.
  json::Value in_spec = json::Value::make_object();
  in_spec.add("verb", json::Value::make_string("submit"));
  in_spec.add("scenario_text",
              json::Value::make_string(
                  R"({"name":"wide","topology":{"kind":"soc"},)"
                  R"("sessions":[{"kind":"bist"}],"campaign":{"shards":300}})"));
  const json::Value resp2 = c.request(in_spec);
  EXPECT_FALSE(ok(resp2));
  EXPECT_EQ(string_or(resp2, "error", ""), "invalid_scenario");
  EXPECT_EQ(string_or(resp2, "message", ""),
            "campaign.shards: must be <= 256");

  // Nothing was queued: the first admitted job is job 1, and it runs.
  json::Value at_cap = make_submit();
  at_cap.add("shards", json::Value::make_number(256));
  const json::Value admitted = c.request(at_cap);
  ASSERT_TRUE(ok(admitted)) << json::to_text(admitted);
  EXPECT_EQ(job_id(admitted), 1u);
  wait_terminal(c, job_id(admitted));
  EXPECT_EQ(string_or(c.request(make_job_request("status", 1)), "state", ""),
            "done");
}

// -- cancel ------------------------------------------------------------------

TEST(Serve, CancelQueuedJobRemovesItFromTheQueue) {
  Gate gate;
  ServerConfig cfg;
  cfg.pool = 1;
  cfg.test_job_gate = [&](std::uint64_t) { gate.wait(); };
  Daemon d(cfg, &gate);
  Client c = d.client();
  const std::uint64_t a = job_id(c.request(make_submit()));
  d.await_state(a, JobState::Running);
  const std::uint64_t b = job_id(c.request(make_submit()));

  const json::Value cancel = c.request(make_job_request("cancel", b));
  ASSERT_TRUE(ok(cancel));
  EXPECT_EQ(string_or(cancel, "state", ""), "cancelled");
  const json::Value res = c.request(make_job_request("result", b));
  EXPECT_FALSE(ok(res));
  EXPECT_EQ(string_or(res, "error", ""), "job_cancelled");

  gate.release();
  wait_terminal(c, a);  // the runner was never disturbed
  const json::Value ares = c.request(make_job_request("result", a));
  EXPECT_TRUE(ok(ares));
}

TEST(Serve, CancelMidCampaignEndsTheJobCancelled) {
  Gate gate;
  ServerConfig cfg;
  cfg.test_job_gate = [&](std::uint64_t) { gate.wait(); };
  Daemon d(cfg, &gate);
  Client c = d.client();
  const std::uint64_t id = job_id(c.request(make_submit()));
  d.await_state(id, JobState::Running);
  // The worker is Running but held before its campaign starts; cancel
  // now, then release — the runner observes the flag at its first chunk
  // claim and stops without folding a unit.
  const json::Value cancel = c.request(make_job_request("cancel", id));
  ASSERT_TRUE(ok(cancel));
  gate.release();
  d.await_state(id, JobState::Cancelled);
  const json::Value res = c.request(make_job_request("result", id));
  EXPECT_FALSE(ok(res));
  EXPECT_EQ(string_or(res, "error", ""), "job_cancelled");
  EXPECT_EQ(
      d.server().metrics_snapshot().counter_value("serve.jobs_cancelled"),
      1u);
}

TEST(Serve, CancelIsIdempotentOnFinishedJobs) {
  Daemon d({});
  Client c = d.client();
  const std::uint64_t id = job_id(c.request(make_submit()));
  wait_terminal(c, id);
  const json::Value cancel = c.request(make_job_request("cancel", id));
  ASSERT_TRUE(ok(cancel));
  EXPECT_EQ(string_or(cancel, "state", ""), "done");
}

// -- streaming ---------------------------------------------------------------

TEST(Serve, SubscribeReplaysStateRecordsThroughTerminal) {
  Daemon d({});
  Client c = d.client();
  json::Value sub_req = make_submit(/*stream=*/true);
  const std::uint64_t id = job_id(c.request(sub_req));
  const json::Value sub = c.request(make_job_request("subscribe", id));
  ASSERT_TRUE(ok(sub));

  // The connection is now a record stream: queued → running → done, with
  // any telemetry heartbeats interleaved. Read until the terminal state.
  std::vector<std::string> states;
  for (int frames = 0; frames < 10000; ++frames) {
    const auto payload = c.read_frame();
    ASSERT_TRUE(payload.has_value()) << "stream ended early";
    const auto rec = parse_message(*payload, nullptr);
    ASSERT_TRUE(rec.has_value());
    if (string_or(*rec, "schema", "") != "jsi.serve.job.v1") continue;
    states.push_back(string_or(*rec, "state", ""));
    if (states.back() == "done" || states.back() == "failed") break;
  }
  ASSERT_GE(states.size(), 3u);
  EXPECT_EQ(states.front(), "queued");
  EXPECT_EQ(states[1], "running");
  EXPECT_EQ(states.back(), "done");
}

TEST(Serve, ClientDisconnectMidStreamLeavesTheDaemonServing) {
  Gate gate;
  ServerConfig cfg;
  cfg.test_job_gate = [&](std::uint64_t) { gate.wait(); };
  Daemon d(cfg, &gate);

  std::uint64_t id = 0;
  {
    Client doomed = d.client();
    id = job_id(doomed.request(make_submit(/*stream=*/true)));
    ASSERT_TRUE(ok(doomed.request(make_job_request("subscribe", id))));
    d.await_state(id, JobState::Running);
    // Vanish mid-stream with the job still running.
    doomed.close();
  }
  gate.release();

  // The daemon must shrug: the job completes and fresh clients work.
  Client c = d.client();
  wait_terminal(c, id);
  const json::Value res = c.request(make_job_request("result", id));
  EXPECT_TRUE(ok(res));
}

// -- framing violations ------------------------------------------------------

/// Raw loopback socket for driving malformed bytes that serve::Client
/// refuses to emit.
class RawSocket {
 public:
  explicit RawSocket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawSocket() {
    if (fd_ >= 0) ::close(fd_);
  }

  void write(const std::string& bytes) {
    EXPECT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Read until EOF; returns everything the server sent.
  std::string drain() {
    std::string all;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      all.append(buf, static_cast<std::size_t>(n));
    }
    return all;
  }

  /// Read until `marker` shows up in the accumulated bytes (or EOF).
  std::string read_until(const std::string& marker) {
    std::string all;
    char buf[4096];
    while (all.find(marker) == std::string::npos) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      all.append(buf, static_cast<std::size_t>(n));
    }
    return all;
  }

 private:
  int fd_ = -1;
};

TEST(Serve, MalformedFrameGetsTypedErrorThenClose) {
  Daemon d({});
  RawSocket raw(d.server().port());
  raw.write("nonsense that is certainly not a length prefix\n");
  // The server answers with exactly one bad_frame error frame and closes.
  const std::string reply = raw.drain();
  EXPECT_NE(reply.find("\"error\":\"bad_frame\""), std::string::npos)
      << reply;

  // The daemon itself is unharmed.
  Client c = d.client();
  const std::uint64_t id = job_id(c.request(make_submit()));
  wait_terminal(c, id);
  EXPECT_GE(d.server().metrics_snapshot().counter_value("serve.bad_frames"),
            1u);
}

TEST(Serve, UnparseablePayloadIsBadRequestButFramingSurvives) {
  Daemon d({});
  RawSocket raw(d.server().port());
  // A well-framed frame carrying garbage JSON: framing survives, so the
  // connection stays open and a well-formed request after it is served.
  raw.write(encode_frame("this is not json"));
  json::Value status = json::Value::make_object();
  status.add("verb", json::Value::make_string("status"));
  raw.write(encode_frame(status));
  const std::string all = raw.read_until("\"ok\":true");
  EXPECT_NE(all.find("\"error\":\"bad_request\""), std::string::npos) << all;
  EXPECT_NE(all.find("\"ok\":true"), std::string::npos) << all;
}

// -- graceful drain ----------------------------------------------------------

TEST(Serve, ShutdownDrainFinishesQueuedJobsThenExits) {
  Gate gate;
  ServerConfig cfg;
  cfg.pool = 1;
  cfg.max_queue = 4;
  cfg.test_job_gate = [&](std::uint64_t) { gate.wait(); };
  Daemon d(cfg, &gate);
  Client c = d.client();
  const std::uint64_t a = job_id(c.request(make_submit()));
  d.await_state(a, JobState::Running);
  const std::uint64_t b = job_id(c.request(make_submit()));

  json::Value shutdown = json::Value::make_object();
  shutdown.add("verb", json::Value::make_string("shutdown"));
  const json::Value resp = c.request(shutdown);
  ASSERT_TRUE(ok(resp));

  // Draining refuses new work with the typed error.
  const json::Value late = c.request(make_submit());
  EXPECT_FALSE(ok(late));
  EXPECT_EQ(string_or(late, "error", ""), "draining");

  // Both admitted jobs still run to completion before serve() returns.
  gate.release();
  d.stop();
  const auto ia = d.server().job_info(a);
  const auto ib = d.server().job_info(b);
  ASSERT_TRUE(ia && ib);
  EXPECT_EQ(ia->state, JobState::Done);
  EXPECT_EQ(ib->state, JobState::Done);
}

TEST(Serve, SignalDrainPathStopsTheLoop) {
  Daemon d({});
  Client c = d.client();
  const std::uint64_t id = job_id(c.request(make_submit()));
  wait_terminal(c, id);
  // The async-signal-safe entry point a SIGTERM handler calls.
  d.server().signal_drain();
  d.stop();
  const auto info = d.server().job_info(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->state, JobState::Done);
}

// -- unix transport ----------------------------------------------------------

TEST(Serve, UnixSocketTransportServesJobs) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("jsi_serve_ut_" + std::to_string(static_cast<unsigned>(::getpid())) +
        ".sock"))
          .string();
  ServerConfig cfg;
  cfg.unix_path = path;
  Daemon d(cfg);
  d.set_unix_path(path);
  Client c = Client::connect_unix(path);
  const std::uint64_t id = job_id(c.request(make_submit()));
  wait_terminal(c, id);
  const json::Value res = c.request(make_job_request("result", id));
  EXPECT_TRUE(ok(res));
  d.stop();
  // Drained daemon removes its socket file.
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
