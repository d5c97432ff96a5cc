#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <streambuf>

#include "scenario/parse.hpp"

namespace jsi::serve {

namespace json = jsi::util::json;

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("serve: " + what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    sys_fail("fcntl(O_NONBLOCK)");
  }
}

/// Millisecond bucket bounds for the serve latency histograms (the
/// default Histogram bounds are scaled for TCK counts).
std::vector<double> ms_bounds() {
  return {1,   2,    5,    10,   20,    50,    100,  200,
          500, 1000, 2000, 5000, 10000, 30000, 60000};
}

/// std::ostream sink that slices the telemetry heartbeat stream into
/// lines and hands each completed line to a callback — the bridge from
/// obs::Telemetry's sampler thread into the server's per-job record log.
class LineSinkBuf : public std::streambuf {
 public:
  explicit LineSinkBuf(std::function<void(std::string)> cb)
      : cb_(std::move(cb)) {}

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return 0;
    const char c = static_cast<char>(ch);
    if (c == '\n') {
      if (!line_.empty()) cb_(std::move(line_));
      line_.clear();
    } else {
      line_.push_back(c);
    }
    return ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      overflow(static_cast<unsigned char>(s[i]));
    }
    return n;
  }

 private:
  std::function<void(std::string)> cb_;
  std::string line_;
};

/// Cap on a job's retained JSONL record log. State transitions are a
/// handful of records; the rest are telemetry heartbeats, whose rate is
/// bounded by the interval — this cap only guards against a pathological
/// interval on a very long job.
constexpr std::size_t kMaxJobLog = 16384;

}  // namespace

const char* to_string(JobState s) {
  switch (s) {
    case JobState::Queued:
      return "queued";
    case JobState::Running:
      return "running";
    case JobState::Done:
      return "done";
    case JobState::Failed:
      return "failed";
    case JobState::Cancelled:
      return "cancelled";
  }
  return "?";
}

struct Server::Job {
  std::uint64_t id = 0;
  std::string name;
  scenario::ScenarioSpec spec;
  std::optional<std::size_t> shards;
  bool stream = false;
  JobState state = JobState::Queued;
  std::string error;
  scenario::ScenarioOutcome outcome;
  /// Shared with the campaign runner across the unlock while the job
  /// executes; shared_ptr so a hypothetical future job eviction cannot
  /// invalidate the runner's view.
  std::shared_ptr<std::atomic<bool>> cancel =
      std::make_shared<std::atomic<bool>>(false);
  /// JSONL records for subscribers: state transitions + telemetry
  /// heartbeats, in emission order.
  std::vector<std::string> log;
  std::chrono::steady_clock::time_point submitted_at{};
  std::chrono::steady_clock::time_point started_at{};
};

struct Server::Connection {
  int fd = -1;
  FrameReader reader;
  std::string out;  ///< bytes queued towards the client
  bool streaming = false;
  std::uint64_t stream_job = 0;
  std::size_t stream_pos = 0;  ///< next log record to push
  bool closing = false;        ///< close once `out` drains
  bool dead = false;           ///< sweep at end of the loop iteration
};

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.pool == 0) cfg_.pool = 1;
  if (cfg_.max_queue == 0) cfg_.max_queue = 1;
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_workers_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : pool_) {
    if (t.joinable()) t.join();
  }
  for (auto& [fd, c] : conns_) ::close(fd);
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  if (!cfg_.unix_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(cfg_.unix_path, ec);
  }
}

void Server::start() {
  int pipefd[2];
  if (::pipe(pipefd) != 0) sys_fail("pipe");
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);

  if (!cfg_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("serve: unix socket path too long: " +
                               cfg_.unix_path);
    }
    std::memcpy(addr.sun_path, cfg_.unix_path.c_str(),
                cfg_.unix_path.size() + 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) sys_fail("socket(AF_UNIX)");
    ::unlink(cfg_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      sys_fail("bind(" + cfg_.unix_path + ")");
    }
  } else if (cfg_.use_tcp) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) sys_fail("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(cfg_.tcp_port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      sys_fail("bind(127.0.0.1:" + std::to_string(cfg_.tcp_port) + ")");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      sys_fail("getsockname");
    }
    bound_port_ = ntohs(bound.sin_port);
  } else {
    throw std::runtime_error(
        "serve: configure either a unix socket path or TCP");
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) sys_fail("listen");
  set_nonblocking(listen_fd_);

  {
    std::lock_guard<std::mutex> lk(mu_);
    metrics_.gauge("serve.pool").set(static_cast<double>(cfg_.pool));
    metrics_.gauge("serve.max_queue").set(static_cast<double>(cfg_.max_queue));
    metrics_.histogram("serve.job_wall_ms", ms_bounds());
    metrics_.histogram("serve.queue_wait_ms", ms_bounds());
  }

  pool_.reserve(cfg_.pool);
  for (std::size_t w = 0; w < cfg_.pool; ++w) {
    pool_.emplace_back([this] { worker_loop(); });
  }
}

void Server::wake() noexcept {
  const char b = 'W';
  [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &b, 1);
}

void Server::signal_drain() noexcept {
  const char b = 'D';
  [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &b, 1);
}

void Server::request_drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
  }
  cv_.notify_all();
  wake();
}

obs::Registry Server::metrics_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return metrics_;
}

std::optional<JobInfo> Server::job_info(std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return info_locked(*it->second);
}

JobInfo Server::info_locked(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.name = job.name;
  info.state = job.state;
  info.error = job.error;
  if (job.state == JobState::Done) {
    info.units = job.outcome.result.units_run;
    info.failures = job.outcome.result.failures;
    info.violations = job.outcome.result.violations;
  }
  return info;
}

// -- job execution (pool worker threads) -------------------------------------

void Server::append_job_record_locked(Job& job, std::string record) {
  if (job.log.size() >= kMaxJobLog) {
    metrics_.counter("serve.stream_records_dropped").inc();
    return;
  }
  metrics_.counter("serve.stream_records").inc();
  job.log.push_back(std::move(record));
}

namespace {

std::string state_record(std::uint64_t id, JobState state,
                         const std::string& error) {
  json::Value v = json::Value::make_object();
  v.add("schema", json::Value::make_string("jsi.serve.job.v1"));
  v.add("job", json::Value::make_number(static_cast<double>(id)));
  v.add("state", json::Value::make_string(to_string(state)));
  if (!error.empty()) v.add("error", json::Value::make_string(error));
  return json::to_text(v, 0);
}

}  // namespace

void Server::worker_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return stop_workers_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_workers_) return;
      continue;
    }
    const std::uint64_t id = queue_.front();
    queue_.pop_front();
    metrics_.gauge("serve.queue_depth")
        .set(static_cast<double>(queue_.size()));
    Job& job = *jobs_.at(id);
    if (job.state != JobState::Queued) continue;  // cancelled while queued
    job.state = JobState::Running;
    job.started_at = std::chrono::steady_clock::now();
    ++running_;
    metrics_.histogram("serve.queue_wait_ms")
        .observe(std::chrono::duration<double, std::milli>(job.started_at -
                                                           job.submitted_at)
                     .count());
    append_job_record_locked(job, state_record(id, JobState::Running, ""));
    lk.unlock();
    wake();

    if (cfg_.test_job_gate) cfg_.test_job_gate(id);
    run_job(job);
    wake();
  }
}

void Server::run_job(Job& job) {
  // The job runs through the exact scenario::run_scenario() entry point
  // `jsi run` uses — identical lowering, execution and artifact
  // rendering, which is what makes socket-submitted artifacts
  // byte-identical to the CLI path.
  scenario::RunOptions opt;
  opt.shards = job.shards;
  opt.cancel = job.cancel.get();

  LineSinkBuf buf([this, &job](std::string line) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      append_job_record_locked(job, std::move(line));
    }
    wake();
  });
  std::ostream stream_sink(&buf);
  if (job.stream) {
    scenario::TelemetrySpec t = job.spec.telemetry;
    t.interval_ms = cfg_.telemetry_interval_ms;
    opt.telemetry = t;
    opt.telemetry_sink = &stream_sink;
  }

  bool failed = false;
  std::string error;
  scenario::ScenarioOutcome outcome;
  try {
    outcome = scenario::run_scenario(job.spec, opt);
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  }

  std::lock_guard<std::mutex> lk(mu_);
  --running_;
  if (failed) {
    job.state = JobState::Failed;
    job.error = error;
    metrics_.counter("serve.jobs_failed").inc();
  } else if (!outcome.result.complete) {
    // The only way a serve job stops early is its cancel flag (no
    // max_chunks / range restrictions come in over the wire).
    job.state = JobState::Cancelled;
    metrics_.counter("serve.jobs_cancelled").inc();
  } else {
    job.state = JobState::Done;
    job.outcome = std::move(outcome);
    metrics_.counter("serve.jobs_completed").inc();
  }
  metrics_.histogram("serve.job_wall_ms")
      .observe(std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - job.started_at)
                   .count());
  append_job_record_locked(job, state_record(job.id, job.state, job.error));
}

// -- verb handlers (poll-loop thread) ----------------------------------------

json::Value Server::verb_submit(const json::Value& req) {
  const json::Value* text = find_member(req, "scenario_text");
  if (text == nullptr || !text->is_string()) {
    return error_response("bad_request",
                          "submit needs a scenario_text string member");
  }
  const std::optional<std::uint64_t> shards = u64_or_nothing(req, "shards");
  if (shards) {
    try {
      scenario::check_shards(*shards);
    } catch (const scenario::SpecError& e) {
      return error_response("bad_request", e.what());
    }
  }
  scenario::ScenarioSpec spec;
  try {
    spec = scenario::parse_scenario(text->str);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lk(mu_);
    metrics_.counter("serve.rejected_invalid").inc();
    return error_response("invalid_scenario", e.what());
  }

  auto job = std::make_unique<Job>();
  job->name = spec.name;
  job->spec = std::move(spec);
  if (shards) job->shards = static_cast<std::size_t>(*shards);
  job->stream = bool_or(req, "stream", false);
  job->submitted_at = std::chrono::steady_clock::now();

  std::lock_guard<std::mutex> lk(mu_);
  if (draining_) {
    metrics_.counter("serve.rejected_draining").inc();
    return error_response("draining",
                          "server is draining and admits no new jobs");
  }
  if (queue_.size() >= cfg_.max_queue) {
    metrics_.counter("serve.rejected_queue_full").inc();
    return error_response(
        "queue_full", "job queue is full (" + std::to_string(cfg_.max_queue) +
                          " pending); retry later");
  }
  const std::uint64_t id = next_job_id_++;
  job->id = id;
  append_job_record_locked(*job, state_record(id, JobState::Queued, ""));
  const std::size_t position = queue_.size();
  queue_.push_back(id);
  jobs_.emplace(id, std::move(job));
  metrics_.counter("serve.jobs_submitted").inc();
  metrics_.gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  if (queue_.size() > static_cast<std::size_t>(
                          metrics_.gauge("serve.queue_depth_peak").value())) {
    metrics_.gauge("serve.queue_depth_peak")
        .set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();

  json::Value v = ok_response();
  v.add("job", json::Value::make_number(static_cast<double>(id)));
  v.add("state", json::Value::make_string(to_string(JobState::Queued)));
  v.add("position", json::Value::make_number(static_cast<double>(position)));
  return v;
}

namespace {

void add_job_members(json::Value& v, const JobInfo& info) {
  v.add("job", json::Value::make_number(static_cast<double>(info.id)));
  v.add("name", json::Value::make_string(info.name));
  v.add("state", json::Value::make_string(to_string(info.state)));
  if (info.state == JobState::Done) {
    v.add("units", json::Value::make_number(static_cast<double>(info.units)));
    v.add("violations",
          json::Value::make_number(static_cast<double>(info.violations)));
    v.add("failures",
          json::Value::make_number(static_cast<double>(info.failures)));
  }
  if (!info.error.empty()) {
    v.add("error_text", json::Value::make_string(info.error));
  }
}

}  // namespace

json::Value Server::verb_status(const json::Value& req) {
  std::lock_guard<std::mutex> lk(mu_);
  if (const auto id = u64_or_nothing(req, "job")) {
    const auto it = jobs_.find(*id);
    if (it == jobs_.end()) {
      return error_response("unknown_job",
                            "no job " + std::to_string(*id));
    }
    json::Value v = ok_response();
    add_job_members(v, info_locked(*it->second));
    return v;
  }
  json::Value v = ok_response();
  json::Value server = json::Value::make_object();
  server.add("state",
             json::Value::make_string(draining_ ? "draining" : "serving"));
  server.add("pool", json::Value::make_number(static_cast<double>(cfg_.pool)));
  server.add("queue_depth",
             json::Value::make_number(static_cast<double>(queue_.size())));
  server.add("running",
             json::Value::make_number(static_cast<double>(running_)));
  server.add("jobs", json::Value::make_number(static_cast<double>(jobs_.size())));
  v.add("server", std::move(server));
  json::Value list = json::Value::make_array();
  for (const auto& [id, job] : jobs_) {
    json::Value e = json::Value::make_object();
    add_job_members(e, info_locked(*job));
    list.push(std::move(e));
  }
  v.add("jobs", std::move(list));
  return v;
}

json::Value Server::verb_result(const json::Value& req) {
  const auto id = u64_or_nothing(req, "job");
  if (!id) return error_response("bad_request", "result needs a job id");
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = jobs_.find(*id);
  if (it == jobs_.end()) {
    return error_response("unknown_job", "no job " + std::to_string(*id));
  }
  const Job& job = *it->second;
  switch (job.state) {
    case JobState::Queued:
    case JobState::Running:
      return error_response("not_finished",
                            "job " + std::to_string(*id) + " is " +
                                to_string(job.state));
    case JobState::Failed:
      return error_response("job_failed", job.error);
    case JobState::Cancelled:
      return error_response("job_cancelled",
                            "job " + std::to_string(*id) + " was cancelled");
    case JobState::Done:
      break;
  }
  json::Value v = ok_response();
  add_job_members(v, info_locked(job));
  v.add("report", json::Value::make_string(job.outcome.report_text));
  v.add("metrics", json::Value::make_string(job.outcome.metrics_json));
  v.add("events", json::Value::make_string(job.outcome.events_jsonl));
  v.add("yield", json::Value::make_string(job.outcome.yield_json));
  return v;
}

json::Value Server::verb_cancel(const json::Value& req) {
  const auto id = u64_or_nothing(req, "job");
  if (!id) return error_response("bad_request", "cancel needs a job id");
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = jobs_.find(*id);
  if (it == jobs_.end()) {
    return error_response("unknown_job", "no job " + std::to_string(*id));
  }
  Job& job = *it->second;
  if (job.state == JobState::Queued) {
    job.state = JobState::Cancelled;
    for (auto qit = queue_.begin(); qit != queue_.end(); ++qit) {
      if (*qit == *id) {
        queue_.erase(qit);
        break;
      }
    }
    metrics_.gauge("serve.queue_depth")
        .set(static_cast<double>(queue_.size()));
    metrics_.counter("serve.jobs_cancelled").inc();
    append_job_record_locked(job, state_record(*id, JobState::Cancelled, ""));
  } else if (job.state == JobState::Running) {
    // Cooperative: the campaign runner polls this flag at its next chunk
    // boundary; the worker marks the job Cancelled when the run returns.
    job.cancel->store(true, std::memory_order_relaxed);
  }
  json::Value v = ok_response();
  v.add("job", json::Value::make_number(static_cast<double>(*id)));
  v.add("state", json::Value::make_string(to_string(job.state)));
  return v;
}

json::Value Server::verb_shutdown(const json::Value& req) {
  const std::string mode = string_or(req, "mode", "drain");
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
    if (mode == "now") {
      cancel_all_ = true;
      for (const std::uint64_t id : queue_) {
        Job& job = *jobs_.at(id);
        job.state = JobState::Cancelled;
        metrics_.counter("serve.jobs_cancelled").inc();
        append_job_record_locked(job,
                                 state_record(id, JobState::Cancelled, ""));
      }
      queue_.clear();
      metrics_.gauge("serve.queue_depth").set(0.0);
      for (auto& [id, job] : jobs_) {
        if (job->state == JobState::Running) {
          job->cancel->store(true, std::memory_order_relaxed);
        }
      }
    }
  }
  cv_.notify_all();
  wake();
  json::Value v = ok_response();
  v.add("draining", json::Value::make_bool(true));
  return v;
}

json::Value Server::verb_subscribe(Connection& c, const json::Value& req) {
  const auto id = u64_or_nothing(req, "job");
  if (!id) return error_response("bad_request", "subscribe needs a job id");
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = jobs_.find(*id);
  if (it == jobs_.end()) {
    return error_response("unknown_job", "no job " + std::to_string(*id));
  }
  c.streaming = true;
  c.stream_job = *id;
  c.stream_pos = 0;  // replay the backlog, then follow live
  json::Value v = ok_response();
  v.add("job", json::Value::make_number(static_cast<double>(*id)));
  v.add("backlog", json::Value::make_number(
                       static_cast<double>(it->second->log.size())));
  return v;
}

json::Value Server::dispatch(Connection& c, const json::Value& req) {
  const std::string verb = string_or(req, "verb", "");
  if (verb == "submit") return verb_submit(req);
  if (verb == "status") return verb_status(req);
  if (verb == "result") return verb_result(req);
  if (verb == "cancel") return verb_cancel(req);
  if (verb == "shutdown") return verb_shutdown(req);
  if (verb == "subscribe") return verb_subscribe(c, req);
  return error_response("bad_request", verb.empty()
                                           ? "request has no verb"
                                           : "unknown verb \"" + verb + "\"");
}

// -- the poll loop -----------------------------------------------------------

void Server::send_frame(Connection& c, const std::string& frame) {
  c.out += frame;
  {
    std::lock_guard<std::mutex> lk(mu_);
    metrics_.counter("serve.frames_tx").inc();
  }
}

void Server::flush_connection(Connection& c) {
  while (!c.out.empty()) {
    const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      c.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    c.dead = true;  // peer vanished mid-write
    return;
  }
  if (c.closing) c.dead = true;
}

void Server::handle_request(Connection& c, const std::string& payload) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    metrics_.counter("serve.frames_rx").inc();
  }
  std::string err;
  const std::optional<json::Value> req = parse_message(payload, &err);
  json::Value resp =
      req ? dispatch(c, *req) : error_response("bad_request", err);
  send_frame(c, encode_frame(resp));
}

void Server::handle_readable(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& c = *it->second;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.dead = true;  // EOF or hard error: peer is gone
    return;
  }
  while (auto payload = c.reader.next()) {
    handle_request(c, *payload);
  }
  if (c.reader.bad()) {
    // Framing is lost for good: report once, flush, close.
    {
      std::lock_guard<std::mutex> lk(mu_);
      metrics_.counter("serve.bad_frames").inc();
    }
    send_frame(c, encode_frame(error_response("bad_frame", c.reader.error())));
    c.closing = true;
  }
  flush_connection(c);
}

void Server::accept_clients() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: try again next poll
    set_nonblocking(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conns_.emplace(fd, std::move(conn));
    std::lock_guard<std::mutex> lk(mu_);
    metrics_.counter("serve.clients_accepted").inc();
  }
}

void Server::flush_streams_locked() {
  for (auto& [fd, c] : conns_) {
    if (!c->streaming || c->dead) continue;
    const auto it = jobs_.find(c->stream_job);
    if (it == jobs_.end()) continue;
    const Job& job = *it->second;
    while (c->stream_pos < job.log.size()) {
      c->out += encode_frame(job.log[c->stream_pos++]);
      metrics_.counter("serve.frames_tx").inc();
    }
  }
}

void Server::drop_connection(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::close(fd);
  conns_.erase(it);
  std::lock_guard<std::mutex> lk(mu_);
  metrics_.counter("serve.clients_closed").inc();
}

void Server::serve() {
  using clock = std::chrono::steady_clock;
  std::optional<clock::time_point> flush_deadline;

  for (;;) {
    std::vector<pollfd> fds;
    fds.push_back({wake_rd_, POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, c] : conns_) {
      short ev = POLLIN;
      if (!c->out.empty()) ev |= POLLOUT;
      fds.push_back({fd, ev, 0});
    }

    const int timeout = flush_deadline ? 20 : -1;
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);
    if (rc < 0 && errno != EINTR) sys_fail("poll");

    // Self-pipe: worker wakeups ('W') and signal-handler drains ('D').
    if (fds[0].revents & POLLIN) {
      char buf[256];
      ssize_t n;
      bool drain = false;
      while ((n = ::read(wake_rd_, buf, sizeof(buf))) > 0) {
        for (ssize_t i = 0; i < n; ++i) {
          if (buf[i] == 'D') drain = true;
        }
      }
      if (drain) {
        std::lock_guard<std::mutex> lk(mu_);
        draining_ = true;
      }
    }

    if (fds[1].revents & POLLIN) accept_clients();

    // Client I/O. Collect fds first: handlers may mark connections dead.
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        it->second->dead = true;
        continue;
      }
      if (fds[i].revents & POLLIN) handle_readable(fd);
      if (fds[i].revents & POLLOUT) flush_connection(*it->second);
    }

    // Push freshly appended job records to subscribers, then try to get
    // the bytes out now instead of waiting for the next POLLOUT round.
    {
      std::lock_guard<std::mutex> lk(mu_);
      flush_streams_locked();
    }
    for (auto& [fd, c] : conns_) {
      if (!c->dead && !c->out.empty()) flush_connection(*c);
    }

    // Sweep dead connections.
    std::vector<int> dead;
    for (const auto& [fd, c] : conns_) {
      if (c->dead) dead.push_back(fd);
    }
    for (const int fd : dead) drop_connection(fd);

    // Drain exit: every admitted job has finished; give pending client
    // writes a short grace window to flush, then leave the loop.
    bool drained;
    {
      std::lock_guard<std::mutex> lk(mu_);
      drained = draining_ && queue_.empty() && running_ == 0;
    }
    if (drained) {
      if (!flush_deadline) {
        flush_deadline = clock::now() + std::chrono::seconds(2);
      }
      bool pending = false;
      for (const auto& [fd, c] : conns_) {
        if (!c->out.empty()) pending = true;
      }
      if (!pending || clock::now() >= *flush_deadline) break;
    }
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_workers_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : pool_) {
    if (t.joinable()) t.join();
  }
  pool_.clear();
  for (auto& [fd, c] : conns_) ::close(fd);
  conns_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (!cfg_.unix_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(cfg_.unix_path, ec);
  }
}

}  // namespace jsi::serve
