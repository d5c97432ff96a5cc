#ifndef JSI_E2E_BENCH_HPP
#define JSI_E2E_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace jsi::e2e {

/// Command-line settings of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed section
  bool trace = false;     ///< traced run: per-layer metrics instead of e2e
  bool tiny = false;      ///< self-test sizes (no pinned digests)
  bool print_pins = false;
  std::string source_id = "unknown";
};

/// Artifacts, checkpoints and the daemon socket, relative to the checkout
/// root (the unix socket path must stay short).
inline const std::string kWorkDir = ".bench_build/work";

/// The seed whose artifact digests and simulated counts are pinned.
inline constexpr std::uint64_t kPinnedSeed = 1;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main().
struct RunResult {
  std::vector<std::string> gate_failures;  ///< empty = every output correct
  std::uint64_t attempted = 0;  ///< units (campaign) or jobs (serve) tried
  std::uint64_t failed = 0;     ///< failed units + failed/rejected jobs
  std::vector<Metric> metrics;  ///< e2e (trace 0) or per-layer (trace 1)
  std::vector<Metric> info;     ///< printed for people, not in the result line

  void check(bool ok, const std::string& what) {
    if (!ok) gate_failures.push_back(what);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-up timings: `once()` (which returns seconds) at least 5 times, and
/// up to 101 times while under 1.5 s in total, so short set-ups get enough
/// samples for a steady median.
inline std::vector<double> repeat_setup(const std::function<double()>& once,
                                        bool tiny) {
  std::vector<double> v;
  const Clock::time_point t0 = Clock::now();
  const std::size_t min_reps = tiny ? 2 : 5;
  const std::size_t max_reps = tiny ? 2 : 101;
  while (v.size() < min_reps ||
         (v.size() < max_reps && seconds_since(t0) < 1.5)) {
    v.push_back(once());
  }
  return v;
}

// ---- stats.cpp -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Per-name medians over several metric lists of identical layout.
std::vector<Metric> median_metrics(const std::vector<std::vector<Metric>>& runs);

/// Peak resident set of this process [MiB].
double peak_rss_mib();

/// FNV-1a 64 digest of `text` as 16 hex digits.
std::string digest(const std::string& text);

/// Whole file as a string ("" when unreadable).
std::string read_file(const std::string& path);

// ---- workloads -------------------------------------------------------------

/// Per-layer metrics of the daemon layer (serve_bench.cpp); all zero on
/// the campaign workloads, which never touch it.
struct ServeLayer {
  double submit_rtt_ms_p50 = 0;
  double queue_wait_ms_p50 = 0;
  double run_ms_p50 = 0;
  double result_rtt_ms_p50 = 0;
  double result_bytes_mean = 0;
  double status_all_bytes = 0;

  std::vector<Metric> metrics() const;
};

RunResult run_campaign_workload(const Options& opt);
RunResult run_serve_workload(const Options& opt);

}  // namespace jsi::e2e

#endif  // JSI_E2E_BENCH_HPP
