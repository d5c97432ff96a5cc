// CLI-vs-programmatic byte identity: `jsi run <file> --out dir` must
// produce exactly the bytes scenario::run_scenario() renders for the
// same spec — at 1 shard and at 4 — including the captured event stream.
// The CLI is required to be *nothing but* a loader around the library;
// this suite is what enforces that.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/parse.hpp"
#include "scenario/run.hpp"

namespace fs = std::filesystem;
using namespace jsi;

namespace {

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing artifact " << p;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("jsi_cli_parity_" + tag + "_" +
               std::to_string(static_cast<unsigned>(::getpid())))) {
    fs::remove_all(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

void expect_cli_parity(std::size_t shards) {
  const std::string file =
      std::string(JSI_SCENARIO_DIR) + "/campaign_8bit.scenario.json";

  // Programmatic path.
  const scenario::ScenarioSpec spec = scenario::load_scenario(file);
  scenario::RunOptions opt;
  opt.shards = shards;
  const scenario::ScenarioOutcome prog = scenario::run_scenario(spec, opt);
  ASSERT_EQ(prog.result.failures, 0u);
  ASSERT_FALSE(prog.events_jsonl.empty());  // campaign_8bit keeps events

  // CLI path.
  TempDir dir("s" + std::to_string(shards));
  const std::string cmd = std::string(JSI_CLI_PATH) + " run \"" + file +
                          "\" --shards " + std::to_string(shards) +
                          " --out \"" + dir.path().string() +
                          "\" > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  EXPECT_EQ(slurp(dir.path() / "report.txt"), prog.report_text);
  EXPECT_EQ(slurp(dir.path() / "metrics.json"), prog.metrics_json);
  EXPECT_EQ(slurp(dir.path() / "events.jsonl"), prog.events_jsonl);
}

TEST(CliParity, OneShardArtifactsAreByteIdentical) { expect_cli_parity(1); }

TEST(CliParity, FourShardArtifactsAreByteIdentical) { expect_cli_parity(4); }

TEST(CliParity, ShardCountDoesNotChangeTheBytes) {
  const scenario::ScenarioSpec spec = scenario::load_scenario(
      std::string(JSI_SCENARIO_DIR) + "/campaign_8bit.scenario.json");
  scenario::RunOptions one_opt, four_opt;
  one_opt.shards = 1;
  four_opt.shards = 4;
  const auto one = scenario::run_scenario(spec, one_opt);
  const auto four = scenario::run_scenario(spec, four_opt);
  EXPECT_EQ(one.report_text, four.report_text);
  EXPECT_EQ(one.metrics_json, four.metrics_json);
  EXPECT_EQ(one.events_jsonl, four.events_jsonl);
}

TEST(CliParity, ValidateAndPrintSucceedOnShippedScenario) {
  const std::string file =
      std::string(JSI_SCENARIO_DIR) + "/enhanced_8bit.scenario.json";
  EXPECT_EQ(std::system((std::string(JSI_CLI_PATH) + " validate \"" + file +
                         "\" > /dev/null")
                            .c_str()),
            0);
  EXPECT_EQ(std::system((std::string(JSI_CLI_PATH) + " print \"" + file +
                         "\" > /dev/null")
                            .c_str()),
            0);
}

TEST(CliParity, TelemetryFlagsLeaveArtifactsUntouchedAndStreamHeartbeats) {
  const std::string file =
      std::string(JSI_SCENARIO_DIR) + "/campaign_8bit.scenario.json";
  const scenario::ScenarioSpec spec = scenario::load_scenario(file);
  scenario::RunOptions prog_opt;
  prog_opt.shards = 4;
  const scenario::ScenarioOutcome prog = scenario::run_scenario(spec, prog_opt);

  TempDir dir("telemetry");
  fs::create_directories(dir.path());  // sink parent must exist; only --out
                                       // dirs are created for the user
  const fs::path hb = dir.path() / "heartbeats.jsonl";
  const std::string cmd = std::string(JSI_CLI_PATH) + " run \"" + file +
                          "\" --shards 4 --telemetry \"" + hb.string() +
                          "\" --telemetry-interval 2 --profile --out \"" +
                          (dir.path() / "art").string() + "\" > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  // --telemetry/--profile must not move the deterministic artifacts.
  EXPECT_EQ(slurp(dir.path() / "art" / "report.txt"), prog.report_text);
  EXPECT_EQ(slurp(dir.path() / "art" / "metrics.json"), prog.metrics_json);
  EXPECT_EQ(slurp(dir.path() / "art" / "events.jsonl"), prog.events_jsonl);

  // The heartbeat stream: at least start + final records.
  const std::string jsonl = slurp(hb);
  std::size_t lines = 0;
  for (char c : jsonl) lines += c == '\n';
  EXPECT_GE(lines, 2u) << jsonl;
  EXPECT_NE(jsonl.find("\"schema\":\"jsi.telemetry.v2\""),
            std::string::npos);

  // --profile adds profile.txt beside the canonical three.
  const std::string profile = slurp(dir.path() / "art" / "profile.txt");
  EXPECT_NE(profile.find("== campaign profile =="), std::string::npos);
  EXPECT_NE(profile.find("workers (measured,"), std::string::npos);
}

TEST(CliParity, BadSpecExitsWithStatusTwo) {
  const int rc = std::system(
      (std::string(JSI_CLI_PATH) + " run /nonexistent.scenario.json "
                                   "> /dev/null 2>&1")
          .c_str());
  EXPECT_NE(rc, -1);
  EXPECT_EQ(WEXITSTATUS(rc), 2);
}

}  // namespace
