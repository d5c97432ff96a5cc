// CLI argument-handling regressions, exec'd against the real binary:
//
//  * parse_uint strictness — std::strtoull silently accepts a sign
//    (wrapping "-1" to ULLONG_MAX) and reports overflow only through
//    errno, so the old parser took `--shards -1` and absurd overflow
//    values as valid shard counts. Digits-only + ERANGE is pinned here.
//  * flag-with-missing-value — a flag at argv's end used to fall through
//    to "unknown argument"; it must say the flag requires a value.
//  * per-command flag masks — run-only flags handed to `validate`/`print`
//    used to be "unknown"; they are real flags aimed at the wrong
//    command and the diagnostic must say so.
//  * oversized specs — `bus.samples: 1e11` used to die in
//    std::bad_alloc; the parse cap must answer with the SpecError line.
//  * shard counts — `--shards` and `campaign.shards` took any integer,
//    one std::thread each; past the cap both answer with the SpecError
//    line before a thread (or a daemon connection) is started.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace fs = std::filesystem;

namespace {

struct ExecResult {
  int status = -1;
  std::string err;
};

/// Run the jsi binary with `args`, capturing exit status and stderr.
ExecResult run_cli(const std::string& args) {
  const fs::path err_path =
      fs::temp_directory_path() /
      ("jsi_cli_flags_" + std::to_string(static_cast<unsigned>(::getpid())) +
       ".err");
  const std::string cmd = std::string(JSI_CLI_PATH) + " " + args +
                          " > /dev/null 2> \"" + err_path.string() + "\"";
  ExecResult r;
  const int rc = std::system(cmd.c_str());
  r.status = rc == -1 ? -1 : WEXITSTATUS(rc);
  std::ifstream is(err_path);
  std::ostringstream ss;
  ss << is.rdbuf();
  r.err = ss.str();
  fs::remove(err_path);
  return r;
}

std::string scenario_file() {
  return std::string(JSI_SCENARIO_DIR) + "/enhanced_8bit.scenario.json";
}

TEST(CliFlags, NegativeUintIsRejectedNotWrapped) {
  // strtoull would parse "-1" as 18446744073709551615.
  const ExecResult r = run_cli("run \"" + scenario_file() + "\" --shards -1");
  EXPECT_EQ(r.status, 2) << r.err;
  EXPECT_NE(r.err.find("--shards"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("non-negative integer"), std::string::npos) << r.err;
}

TEST(CliFlags, ExplicitPlusSignIsRejected) {
  const ExecResult r =
      run_cli("run \"" + scenario_file() + "\" --workers +2");
  EXPECT_EQ(r.status, 2) << r.err;
  EXPECT_NE(r.err.find("--workers"), std::string::npos) << r.err;
}

TEST(CliFlags, OverflowingUintIsRejectedNotWrapped) {
  // 2^64: strtoull clamps to ULLONG_MAX and only errno says so.
  const ExecResult r = run_cli("run \"" + scenario_file() +
                               "\" --shards 18446744073709551616");
  EXPECT_EQ(r.status, 2) << r.err;
  EXPECT_NE(r.err.find("--shards"), std::string::npos) << r.err;

  // A much longer digit string must not wrap either.
  const ExecResult r2 = run_cli("run \"" + scenario_file() +
                                "\" --max-chunks 99999999999999999999999999");
  EXPECT_EQ(r2.status, 2) << r2.err;
}

TEST(CliFlags, BoundaryUintStillParses) {
  // validate takes no uint flags; use print of a valid spec with run to
  // keep it cheap: enhanced_8bit is a small campaign. --max-chunks huge
  // but in-range is legal (stop-after bound, not an allocation).
  const ExecResult r = run_cli("run \"" + scenario_file() +
                               "\" --shards 2 --telemetry-interval "
                               "18446744073709551615");
  EXPECT_EQ(r.status, 0) << r.err;
}

TEST(CliFlags, FlagAtEndOfArgvSaysRequiresAValue) {
  const ExecResult r = run_cli("run \"" + scenario_file() + "\" --shards");
  EXPECT_EQ(r.status, 2) << r.err;
  EXPECT_NE(r.err.find("--shards requires a value"), std::string::npos)
      << r.err;
  // Must NOT be misreported as an unknown argument.
  EXPECT_EQ(r.err.find("unknown argument"), std::string::npos) << r.err;
}

TEST(CliFlags, ValueTakingFlagSwallowsNothingOnValidate) {
  const ExecResult r = run_cli("validate \"" + scenario_file() + "\" --out");
  EXPECT_EQ(r.status, 2) << r.err;
  EXPECT_NE(r.err.find("--out is not a \"validate\" flag"),
            std::string::npos)
      << r.err;
}

TEST(CliFlags, RunOnlyFlagsAreRejectedOnValidateAndPrint) {
  for (const std::string flag : {"--progress", "--resume", "--profile"}) {
    const ExecResult v =
        run_cli("validate \"" + scenario_file() + "\" " + flag);
    EXPECT_EQ(v.status, 2) << flag;
    EXPECT_NE(v.err.find(flag + " is not a \"validate\" flag"),
              std::string::npos)
        << v.err;
    const ExecResult p = run_cli("print \"" + scenario_file() + "\" " + flag);
    EXPECT_EQ(p.status, 2) << flag;
    EXPECT_NE(p.err.find(flag + " is not a \"print\" flag"),
              std::string::npos)
        << p.err;
  }
}

TEST(CliFlags, ServeFlagsAreRejectedOnRun) {
  const ExecResult r =
      run_cli("run \"" + scenario_file() + "\" --pool 4");
  EXPECT_EQ(r.status, 2) << r.err;
  EXPECT_NE(r.err.find("--pool is not a \"run\" flag"), std::string::npos)
      << r.err;
}

TEST(CliFlags, UnknownFlagIsStillUnknown) {
  const ExecResult r = run_cli("run \"" + scenario_file() + "\" --bogus");
  EXPECT_EQ(r.status, 2) << r.err;
  EXPECT_NE(r.err.find("unknown argument \"--bogus\""), std::string::npos)
      << r.err;
}

TEST(CliFlags, ClientCommandsDemandAnEndpoint) {
  const ExecResult r = run_cli("status");
  EXPECT_EQ(r.status, 2) << r.err;
  EXPECT_NE(r.err.find("--socket PATH or --port N"), std::string::npos)
      << r.err;
  const ExecResult r2 = run_cli("result --socket /tmp/nowhere.sock");
  EXPECT_EQ(r2.status, 2) << r2.err;
  EXPECT_NE(r2.err.find("needs --job"), std::string::npos) << r2.err;
}

TEST(CliFlags, OversizedSamplesIsASpecErrorNotBadAlloc) {
  const fs::path spec =
      fs::temp_directory_path() /
      ("jsi_cli_flags_" + std::to_string(static_cast<unsigned>(::getpid())) +
       ".scenario.json");
  {
    std::ofstream os(spec);
    os << R"({"name":"big","topology":{"kind":"soc","n_wires":8,)"
          R"("bus":{"samples":1e11}},"sessions":[{"kind":"enhanced"}]})";
  }
  const ExecResult r = run_cli("run \"" + spec.string() + "\"");
  fs::remove(spec);
  EXPECT_EQ(r.status, 2) << r.err;
  EXPECT_EQ(r.err, "jsi: " + spec.string() +
                       ": topology.bus.samples: bus width x samples x 8 B "
                       "exceeds the 67108864 B bound on one transition's "
                       "waveforms\n");
}

TEST(CliFlags, ShardsPastTheCapAreASpecError) {
  const std::string want = "jsi: --shards: campaign.shards: must be <= 256\n";
  const ExecResult run = run_cli("run \"" + scenario_file() + "\" --shards 257");
  EXPECT_EQ(run.status, 2) << run.err;
  EXPECT_EQ(run.err, want);
  // submit rejects it before it looks for the daemon.
  const ExecResult submit = run_cli("submit \"" + scenario_file() +
                                    "\" --socket /nonexistent.sock "
                                    "--shards 156250");
  EXPECT_EQ(submit.status, 2) << submit.err;
  EXPECT_EQ(submit.err, want);

  const fs::path spec =
      fs::temp_directory_path() /
      ("jsi_cli_shards_" + std::to_string(static_cast<unsigned>(::getpid())) +
       ".scenario.json");
  {
    std::ofstream os(spec);
    os << R"({"name":"wide","topology":{"kind":"soc"},)"
          R"("sessions":[{"kind":"bist"}],"campaign":{"shards":300}})";
  }
  const ExecResult file = run_cli("run \"" + spec.string() + "\"");
  fs::remove(spec);
  EXPECT_EQ(file.status, 2) << file.err;
  EXPECT_EQ(file.err,
            "jsi: " + spec.string() + ": campaign.shards: must be <= 256\n");
}

TEST(CliFlags, PortRangeIsEnforced) {
  const ExecResult r = run_cli("status --port 65536");
  EXPECT_EQ(r.status, 2) << r.err;
  EXPECT_NE(r.err.find("--port"), std::string::npos) << r.err;
}

}  // namespace
