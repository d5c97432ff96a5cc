// jsi — the scenario driver. One declarative description, every
// session/campaign path:
//
//   jsi run <scenario.json> [--shards N] [--out DIR] [--progress]
//           [--telemetry PATH] [--telemetry-interval MS] [--profile]
//           [--workers N] [--checkpoint PATH] [--resume] [--max-chunks N]
//   jsi validate <scenario.json>
//   jsi print <scenario.json>
//
//   jsi serve    [--socket PATH | --port N] [--pool N] [--queue N]
//                [--telemetry-interval MS]
//   jsi submit   <scenario.json> (--socket PATH | --port N)
//                [--shards N] [--wait] [--stream] [--out DIR]
//   jsi status   (--socket PATH | --port N) [--job N]
//   jsi result   --job N (--socket PATH | --port N) [--out DIR]
//   jsi cancel   --job N (--socket PATH | --port N)
//   jsi shutdown (--socket PATH | --port N) [--now]
//
// `run` executes the scenario's campaign and prints the canonical report;
// with --out it also writes report.txt / metrics.json / events.jsonl.
// Those artifacts are byte-identical to the programmatic
// scenario::run_scenario() path at any shard count (pinned by the
// tests/scenario CLI-parity suite). --progress renders a live single-line
// progress bar on stderr and --telemetry streams JSONL heartbeats to
// PATH; both ride strictly beside the deterministic artifacts and never
// change them. --profile prints a post-run profile report (and writes
// profile.txt under --out). Sweep-scale campaigns add --checkpoint (a
// sidecar JSONL file recording every completed chunk), --resume (fold
// the checkpoint's chunks instead of re-running them; final artifacts
// byte-identical to an uninterrupted run), --max-chunks (stop after ~N
// fresh chunks — an incremental step), and --workers N (fork N worker
// processes over disjoint index ranges and merge deterministically).
//
// `serve` runs the campaign daemon (serve/server.hpp): a poll loop on a
// unix or loopback-TCP socket admitting jobs onto a bounded FIFO queue
// drained by --pool campaign workers; SIGTERM/SIGINT drain it
// gracefully. The remaining commands are the daemon's client: `submit`
// ships the scenario file's raw text (the daemon parses and runs it
// through the same path `run` uses, so artifacts fetched with `result
// --out` are byte-identical to `jsi run --out`), `--wait` blocks until
// the job finishes, `--stream` additionally follows the job's live
// JSONL state/telemetry records on stdout.
//
// Exit status: 0 clean, 1 when any unit failed, 2 on usage/parse/I-O
// errors and daemon-side rejections (queue_full, draining, ...).

#include <csignal>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "scenario/parse.hpp"
#include "scenario/run.hpp"
#include "scenario/serialize.hpp"
#include "scenario/spec.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace json = jsi::util::json;

namespace {

// -- flag table --------------------------------------------------------------

// Command bitmasks: which commands accept which flag. A known flag given
// to the wrong command is diagnosed as exactly that — not as "unknown".
enum : unsigned {
  kRun = 1u << 0,
  kValidate = 1u << 1,
  kPrint = 1u << 2,
  kServe = 1u << 3,
  kSubmit = 1u << 4,
  kStatus = 1u << 5,
  kResult = 1u << 6,
  kCancel = 1u << 7,
  kShutdown = 1u << 8,
};

constexpr unsigned kClientCmds = kSubmit | kStatus | kResult | kCancel |
                                 kShutdown;

struct FlagDef {
  const char* name;
  bool takes_value;
  unsigned commands;
};

constexpr FlagDef kFlags[] = {
    {"--shards", true, kRun | kSubmit},
    {"--out", true, kRun | kSubmit | kResult},
    {"--progress", false, kRun},
    {"--telemetry", true, kRun},
    {"--telemetry-interval", true, kRun | kServe},
    {"--profile", false, kRun},
    {"--checkpoint", true, kRun},
    {"--resume", false, kRun},
    {"--max-chunks", true, kRun},
    {"--workers", true, kRun},
    {"--socket", true, kServe | kClientCmds},
    {"--port", true, kServe | kClientCmds},
    {"--pool", true, kServe},
    {"--queue", true, kServe},
    {"--job", true, kStatus | kResult | kCancel},
    {"--wait", false, kSubmit},
    {"--stream", false, kSubmit},
    {"--now", false, kShutdown},
};

struct Flags {
  std::optional<std::size_t> shards;
  std::optional<std::string> out_dir;
  std::optional<std::string> telemetry_path;
  std::optional<std::uint64_t> telemetry_interval_ms;
  bool progress = false;
  bool profile = false;
  std::string checkpoint_path;
  bool resume = false;
  std::size_t max_chunks = 0;
  std::size_t workers = 0;

  std::string socket_path;
  std::optional<std::uint16_t> port;
  std::size_t pool = 1;
  std::size_t queue = 16;
  std::optional<std::uint64_t> job;
  bool wait = false;
  bool stream = false;
  bool now = false;
};

int usage(std::ostream& os, int status) {
  os << "usage: jsi run <scenario.json> [--shards N] [--out DIR]\n"
        "               [--progress] [--telemetry PATH]\n"
        "               [--telemetry-interval MS] [--profile]\n"
        "               [--workers N] [--checkpoint PATH] [--resume]\n"
        "               [--max-chunks N]\n"
        "       jsi validate <scenario.json>\n"
        "       jsi print <scenario.json>\n"
        "       jsi serve [--socket PATH | --port N] [--pool N]\n"
        "                 [--queue N] [--telemetry-interval MS]\n"
        "       jsi submit <scenario.json> (--socket PATH | --port N)\n"
        "                  [--shards N] [--wait] [--stream] [--out DIR]\n"
        "       jsi status (--socket PATH | --port N) [--job N]\n"
        "       jsi result --job N (--socket PATH | --port N) [--out DIR]\n"
        "       jsi cancel --job N (--socket PATH | --port N)\n"
        "       jsi shutdown (--socket PATH | --port N) [--now]\n";
  return status;
}

/// Strict non-negative decimal parse. std::strtoull alone is not enough:
/// it accepts leading whitespace and a sign (silently wrapping "-1" to
/// ULLONG_MAX) and signals overflow only through errno — so require
/// digits-only text and check ERANGE explicitly.
bool parse_uint(const char* text, unsigned long long& out) {
  if (text == nullptr || *text == '\0') return false;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

// -- local commands ----------------------------------------------------------

int cmd_run(const std::string& file, const Flags& flags) {
  const jsi::scenario::ScenarioSpec spec = jsi::scenario::load_scenario(file);

  jsi::scenario::RunOptions opt;
  opt.shards = flags.shards;
  opt.progress = flags.progress;
  opt.profile = flags.profile;
  opt.checkpoint_path = flags.checkpoint_path;
  opt.resume = flags.resume;
  opt.max_chunks = flags.max_chunks;
  opt.workers = flags.workers;
  if (flags.telemetry_path || flags.telemetry_interval_ms) {
    // CLI telemetry flags layer on top of the spec's section; naming a
    // sink path turns the stream on.
    jsi::scenario::TelemetrySpec t = spec.telemetry;
    if (flags.telemetry_path) {
      t.path = *flags.telemetry_path;
      t.enabled = true;
    }
    if (flags.telemetry_interval_ms) {
      t.interval_ms = *flags.telemetry_interval_ms;
    }
    opt.telemetry = t;
  }

  const jsi::scenario::ScenarioOutcome outcome =
      jsi::scenario::run_scenario(spec, opt);
  std::cout << outcome.report_text;
  if (flags.profile) std::cout << outcome.profile_text;
  if (flags.out_dir) {
    jsi::scenario::write_artifacts(*flags.out_dir, outcome);
    std::cout << "artifacts: " << *flags.out_dir << "\n";
  }
  return outcome.result.failures > 0 ? 1 : 0;
}

int cmd_validate(const std::string& file) {
  const jsi::scenario::ScenarioSpec spec = jsi::scenario::load_scenario(file);
  std::cout << "ok: " << spec.name << " (" << spec.sessions.size()
            << " session" << (spec.sessions.size() == 1 ? "" : "s") << ")\n";
  return 0;
}

int cmd_print(const std::string& file) {
  const jsi::scenario::ScenarioSpec spec = jsi::scenario::load_scenario(file);
  std::cout << jsi::scenario::serialize(spec);
  return 0;
}

// -- the daemon --------------------------------------------------------------

jsi::serve::Server* g_server = nullptr;

extern "C" void drain_signal_handler(int) {
  if (g_server != nullptr) g_server->signal_drain();
}

int cmd_serve(const Flags& flags) {
  jsi::serve::ServerConfig cfg;
  cfg.unix_path = flags.socket_path;
  if (cfg.unix_path.empty()) {
    cfg.use_tcp = true;
    cfg.tcp_port = flags.port.value_or(0);
  }
  cfg.pool = flags.pool;
  cfg.max_queue = flags.queue;
  if (flags.telemetry_interval_ms) {
    cfg.telemetry_interval_ms = *flags.telemetry_interval_ms;
  }

  jsi::serve::Server server(cfg);
  server.start();
  g_server = &server;
  struct sigaction sa {};
  sa.sa_handler = drain_signal_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  if (!cfg.unix_path.empty()) {
    std::cout << "jsi serve: listening on " << cfg.unix_path << "\n";
  } else {
    std::cout << "jsi serve: listening on 127.0.0.1:" << server.port()
              << "\n";
  }
  std::cout.flush();

  server.serve();
  g_server = nullptr;
  std::cout << "jsi serve: drained\n";
  return 0;
}

// -- client commands ---------------------------------------------------------

jsi::serve::Client connect(const Flags& flags) {
  if (!flags.socket_path.empty()) {
    return jsi::serve::Client::connect_unix(flags.socket_path);
  }
  return jsi::serve::Client::connect_tcp(*flags.port);
}

json::Value make_request(const std::string& verb) {
  json::Value v = json::Value::make_object();
  v.add("verb", json::Value::make_string(verb));
  return v;
}

bool response_ok(const json::Value& resp) {
  const json::Value* ok = jsi::serve::find_member(resp, "ok");
  return ok != nullptr && ok->is_bool() && ok->boolean;
}

int report_error(const json::Value& resp) {
  std::cerr << "jsi: " << jsi::serve::string_or(resp, "error", "error") << ": "
            << jsi::serve::string_or(resp, "message", "request failed")
            << "\n";
  return 2;
}

/// Reassemble a daemon result response into the scenario artifact set
/// (`result --out` / `submit --wait --out`). The daemon ships the same
/// rendered texts run_scenario() produced, so the files land
/// byte-identical to a local `jsi run --out`.
void write_result_artifacts(const std::string& dir, const json::Value& resp) {
  jsi::scenario::ScenarioOutcome outcome;
  outcome.report_text = jsi::serve::string_or(resp, "report", "");
  outcome.metrics_json = jsi::serve::string_or(resp, "metrics", "");
  outcome.events_jsonl = jsi::serve::string_or(resp, "events", "");
  outcome.yield_json = jsi::serve::string_or(resp, "yield", "");
  jsi::scenario::write_artifacts(dir, outcome);
}

int finish_result(const json::Value& resp, const Flags& flags) {
  std::cout << jsi::serve::string_or(resp, "report", "");
  if (flags.out_dir) {
    write_result_artifacts(*flags.out_dir, resp);
    std::cout << "artifacts: " << *flags.out_dir << "\n";
  }
  const auto failures = jsi::serve::u64_or_nothing(resp, "failures");
  return failures.value_or(0) > 0 ? 1 : 0;
}

bool terminal_state(const std::string& state) {
  return state == "done" || state == "failed" || state == "cancelled";
}

int cmd_submit(const std::string& file, const Flags& flags) {
  std::ifstream is(file, std::ios::binary);
  if (!is) {
    std::cerr << "jsi: cannot read " << file << "\n";
    return 2;
  }
  std::ostringstream text;
  text << is.rdbuf();

  jsi::serve::Client client = connect(flags);
  json::Value req = make_request("submit");
  // Ship the raw scenario text: the daemon parses and validates it
  // through the same load path `jsi run` uses.
  req.add("scenario_text", json::Value::make_string(text.str()));
  if (flags.shards) {
    req.add("shards",
            json::Value::make_number(static_cast<double>(*flags.shards)));
  }
  if (flags.stream) req.add("stream", json::Value::make_bool(true));
  const json::Value resp = client.request(req);
  if (!response_ok(resp)) return report_error(resp);
  const auto job = jsi::serve::u64_or_nothing(resp, "job");
  if (!job) {
    std::cerr << "jsi: daemon response carries no job id\n";
    return 2;
  }
  std::cout << "job " << *job << " queued\n";
  if (!flags.wait && !flags.stream) return 0;

  if (flags.stream) {
    // Follow the job's record stream on this connection until a terminal
    // state record, then fetch the result on a fresh connection (the
    // streaming connection keeps pushing records and is no longer a
    // request/response channel).
    json::Value sub = make_request("subscribe");
    sub.add("job", json::Value::make_number(static_cast<double>(*job)));
    const json::Value sub_resp = client.request(sub);
    if (!response_ok(sub_resp)) return report_error(sub_resp);
    std::string last_state;
    while (!terminal_state(last_state)) {
      const std::optional<std::string> frame = client.read_frame();
      if (!frame) break;  // daemon went away
      std::cout << *frame << "\n";
      const std::optional<json::Value> rec =
          jsi::serve::parse_message(*frame, nullptr);
      if (rec && jsi::serve::string_or(*rec, "schema", "") ==
                     "jsi.serve.job.v1") {
        last_state = jsi::serve::string_or(*rec, "state", "");
      }
    }
    client.close();
  } else {
    // --wait: poll status until the job leaves the queue/run states.
    for (;;) {
      json::Value st = make_request("status");
      st.add("job", json::Value::make_number(static_cast<double>(*job)));
      const json::Value st_resp = client.request(st);
      if (!response_ok(st_resp)) return report_error(st_resp);
      if (terminal_state(jsi::serve::string_or(st_resp, "state", ""))) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }

  jsi::serve::Client fetch = connect(flags);
  json::Value res = make_request("result");
  res.add("job", json::Value::make_number(static_cast<double>(*job)));
  const json::Value res_resp = fetch.request(res);
  if (!response_ok(res_resp)) return report_error(res_resp);
  return finish_result(res_resp, flags);
}

int cmd_status(const Flags& flags) {
  jsi::serve::Client client = connect(flags);
  json::Value req = make_request("status");
  if (flags.job) {
    req.add("job", json::Value::make_number(static_cast<double>(*flags.job)));
  }
  const json::Value resp = client.request(req);
  if (!response_ok(resp)) return report_error(resp);
  std::cout << json::to_text(resp, 2);
  return 0;
}

int cmd_result(const Flags& flags) {
  jsi::serve::Client client = connect(flags);
  json::Value req = make_request("result");
  req.add("job", json::Value::make_number(static_cast<double>(*flags.job)));
  const json::Value resp = client.request(req);
  if (!response_ok(resp)) return report_error(resp);
  return finish_result(resp, flags);
}

int cmd_cancel(const Flags& flags) {
  jsi::serve::Client client = connect(flags);
  json::Value req = make_request("cancel");
  req.add("job", json::Value::make_number(static_cast<double>(*flags.job)));
  const json::Value resp = client.request(req);
  if (!response_ok(resp)) return report_error(resp);
  std::cout << "job " << *flags.job << " "
            << jsi::serve::string_or(resp, "state", "?") << "\n";
  return 0;
}

int cmd_shutdown(const Flags& flags) {
  jsi::serve::Client client = connect(flags);
  json::Value req = make_request("shutdown");
  if (flags.now) req.add("mode", json::Value::make_string("now"));
  const json::Value resp = client.request(req);
  if (!response_ok(resp)) return report_error(resp);
  std::cout << "draining\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    return usage(std::cout, 0);
  }

  unsigned cmd_bit = 0;
  bool takes_file = false;
  if (cmd == "run") {
    cmd_bit = kRun;
    takes_file = true;
  } else if (cmd == "validate") {
    cmd_bit = kValidate;
    takes_file = true;
  } else if (cmd == "print") {
    cmd_bit = kPrint;
    takes_file = true;
  } else if (cmd == "serve") {
    cmd_bit = kServe;
  } else if (cmd == "submit") {
    cmd_bit = kSubmit;
    takes_file = true;
  } else if (cmd == "status") {
    cmd_bit = kStatus;
  } else if (cmd == "result") {
    cmd_bit = kResult;
  } else if (cmd == "cancel") {
    cmd_bit = kCancel;
  } else if (cmd == "shutdown") {
    cmd_bit = kShutdown;
  } else {
    std::cerr << "jsi: unknown command \"" << cmd << "\"\n";
    return usage(std::cerr, 2);
  }

  std::string file;
  int i = 2;
  if (takes_file) {
    if (argc < 3 || argv[2][0] == '-') {
      std::cerr << "jsi: " << cmd << " wants a scenario file\n";
      return usage(std::cerr, 2);
    }
    file = argv[2];
    i = 3;
  }

  Flags flags;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const FlagDef* def = nullptr;
    for (const FlagDef& d : kFlags) {
      if (arg == d.name) {
        def = &d;
        break;
      }
    }
    if (def == nullptr) {
      std::cerr << "jsi: unknown argument \"" << arg << "\"\n";
      return usage(std::cerr, 2);
    }
    if ((def->commands & cmd_bit) == 0) {
      // A real flag aimed at the wrong command deserves a better
      // diagnosis than "unknown argument".
      std::cerr << "jsi: " << arg << " is not a \"" << cmd << "\" flag\n";
      return usage(std::cerr, 2);
    }
    const char* value = nullptr;
    if (def->takes_value) {
      if (i + 1 >= argc) {
        std::cerr << "jsi: " << arg << " requires a value\n";
        return 2;
      }
      value = argv[++i];
    }

    const auto want_uint = [&](unsigned long long& out, bool positive,
                               const char* what) {
      if (!parse_uint(value, out) || (positive && out == 0)) {
        std::cerr << "jsi: " << arg << " wants a " << what << ", got \""
                  << value << "\"\n";
        return false;
      }
      return true;
    };

    unsigned long long v = 0;
    if (arg == "--shards") {
      if (!want_uint(v, false, "non-negative integer")) return 2;
      try {
        jsi::scenario::check_shards(v);
      } catch (const jsi::scenario::SpecError& e) {
        std::cerr << "jsi: --shards: " << e.what() << "\n";
        return 2;
      }
      flags.shards = static_cast<std::size_t>(v);
    } else if (arg == "--out") {
      flags.out_dir = value;
    } else if (arg == "--telemetry") {
      flags.telemetry_path = value;
    } else if (arg == "--telemetry-interval") {
      if (!want_uint(v, true, "positive integer (milliseconds)")) return 2;
      flags.telemetry_interval_ms = static_cast<std::uint64_t>(v);
    } else if (arg == "--checkpoint") {
      flags.checkpoint_path = value;
    } else if (arg == "--resume") {
      flags.resume = true;
    } else if (arg == "--max-chunks") {
      if (!want_uint(v, true, "positive integer")) return 2;
      flags.max_chunks = static_cast<std::size_t>(v);
    } else if (arg == "--workers") {
      if (!want_uint(v, true, "positive integer")) return 2;
      flags.workers = static_cast<std::size_t>(v);
    } else if (arg == "--progress") {
      flags.progress = true;
    } else if (arg == "--profile") {
      flags.profile = true;
    } else if (arg == "--socket") {
      flags.socket_path = value;
    } else if (arg == "--port") {
      if (!parse_uint(value, v) || v > 65535) {
        std::cerr << "jsi: --port wants a port number (0-65535), got \""
                  << value << "\"\n";
        return 2;
      }
      flags.port = static_cast<std::uint16_t>(v);
    } else if (arg == "--pool") {
      if (!want_uint(v, true, "positive integer")) return 2;
      flags.pool = static_cast<std::size_t>(v);
    } else if (arg == "--queue") {
      if (!want_uint(v, true, "positive integer")) return 2;
      flags.queue = static_cast<std::size_t>(v);
    } else if (arg == "--job") {
      if (!want_uint(v, true, "job id")) return 2;
      flags.job = static_cast<std::uint64_t>(v);
    } else if (arg == "--wait") {
      flags.wait = true;
    } else if (arg == "--stream") {
      flags.stream = true;
    } else if (arg == "--now") {
      flags.now = true;
    }
  }

  if ((cmd_bit & kClientCmds) != 0 && flags.socket_path.empty() &&
      !flags.port) {
    std::cerr << "jsi: " << cmd << " needs --socket PATH or --port N\n";
    return 2;
  }
  if ((cmd_bit & (kResult | kCancel)) != 0 && !flags.job) {
    std::cerr << "jsi: " << cmd << " needs --job N\n";
    return 2;
  }

  try {
    if (cmd_bit == kRun) return cmd_run(file, flags);
    if (cmd_bit == kValidate) return cmd_validate(file);
    if (cmd_bit == kPrint) return cmd_print(file);
    if (cmd_bit == kServe) return cmd_serve(flags);
    if (cmd_bit == kSubmit) return cmd_submit(file, flags);
    if (cmd_bit == kStatus) return cmd_status(flags);
    if (cmd_bit == kResult) return cmd_result(flags);
    if (cmd_bit == kCancel) return cmd_cancel(flags);
    return cmd_shutdown(flags);
  } catch (const jsi::scenario::SpecError& e) {
    std::cerr << "jsi: " << file << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "jsi: " << e.what() << "\n";
    return 2;
  }
}
