#ifndef JSI_OBS_TELEMETRY_HPP
#define JSI_OBS_TELEMETRY_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace jsi::obs {

/// Live-telemetry settings of a campaign run. Disabled by default: the
/// whole layer then costs one branch per work unit and allocates nothing
/// — the deterministic report/events/metrics artifacts are untouched
/// either way (telemetry only ever *reads* worker state, on a side
/// channel).
struct TelemetryConfig {
  bool enabled = false;
  /// Sampler period. The sampler additionally emits one snapshot at
  /// start (seq 0) and one after the last unit, so even campaigns
  /// shorter than one interval produce at least two heartbeats.
  std::uint64_t interval_ms = 250;
  /// JSONL heartbeat file ("" = no file). Opened at start(); open
  /// failure throws std::runtime_error before any unit runs.
  std::string sink_path;
  /// In-memory heartbeat sink for tests (not owned; may be nullptr).
  /// Used in addition to `sink_path`.
  std::ostream* sink = nullptr;
  /// Render a single-line terminal progress bar with ETA on every
  /// sample (to `progress_stream`, default std::cerr).
  bool progress = false;
  std::ostream* progress_stream = nullptr;
};

/// Per-unit counter deltas a worker publishes when a unit completes —
/// the unit's slice of its (already snapshotted) registry plus the
/// wall-clock it spent.
struct UnitDelta {
  std::uint64_t busy_ns = 0;
  std::uint64_t transitions = 0;
  std::uint64_t tcks = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// One worker's lock-free publication slot. Every field is a monotone
/// atomic the worker bumps and the sampler folds; the label is a pointer
/// into the campaign's stable unit table (valid for the whole run). The
/// publish path (`begin_unit`/`end_unit`/`add_idle`) performs only
/// atomic arithmetic — relaxed, except that `end_unit` bumps
/// `units_completed` with release, which the sampler's acquire load
/// pairs with so a sample never sees more units completed than started
/// (on x86-64 the release add is the same locked add). No locks, no
/// allocation — pinned by the zero-allocation telemetry test.
/// Cache-line alignment keeps workers from false-sharing each other's
/// slots.
struct alignas(64) WorkerProgress {
  std::atomic<std::uint64_t> units_started{0};
  std::atomic<std::uint64_t> units_completed{0};
  std::atomic<std::uint64_t> transitions{0};
  std::atomic<std::uint64_t> tcks{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> idle_ns{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  /// Name of the unit currently running on this worker (static for the
  /// run), nullptr when the worker is between units or done.
  std::atomic<const char*> current_unit{nullptr};

  void begin_unit(const char* label) noexcept {
    current_unit.store(label, std::memory_order_relaxed);
    units_started.fetch_add(1, std::memory_order_relaxed);
  }

  void end_unit(const UnitDelta& d) noexcept {
    busy_ns.fetch_add(d.busy_ns, std::memory_order_relaxed);
    transitions.fetch_add(d.transitions, std::memory_order_relaxed);
    tcks.fetch_add(d.tcks, std::memory_order_relaxed);
    cache_hits.fetch_add(d.cache_hits, std::memory_order_relaxed);
    cache_misses.fetch_add(d.cache_misses, std::memory_order_relaxed);
    current_unit.store(nullptr, std::memory_order_relaxed);
    // Release: a sampler that acquires this count also sees the
    // units_started bump of every unit it counts.
    units_completed.fetch_add(1, std::memory_order_release);
  }

  void add_idle(std::uint64_t ns) noexcept {
    idle_ns.fetch_add(ns, std::memory_order_relaxed);
  }
};

/// One worker's state as folded into a Snapshot.
struct WorkerSnapshot {
  std::size_t worker = 0;
  std::uint64_t units_started = 0;
  std::uint64_t units_completed = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  double utilization = 0.0;   ///< busy / (busy + idle), 0 when untimed
  std::string current_unit;   ///< "" when idle / done
};

/// One monotone point-in-time view of a running campaign. Successive
/// snapshots from the same Telemetry never regress: `seq` strictly
/// increases, `t_ms` and every cumulative count are non-decreasing
/// (each is a coherent read of a monotone atomic). Rates are cumulative
/// averages over the elapsed run time, so they are well-defined from the
/// first completed unit onward.
struct Snapshot {
  /// Bumped when the record layout changes; consumers key on the
  /// "jsi.telemetry.v2" schema string this constant renders into.
  static constexpr int kSchemaVersion = 2;

  std::uint64_t seq = 0;
  std::uint64_t wall_ms = 0;  ///< system clock, ms since the Unix epoch
  std::uint64_t t_ms = 0;     ///< monotonic ms since telemetry start
  std::size_t units_total = 0;
  std::uint64_t units_done = 0;
  std::uint64_t units_running = 0;  ///< workers with a unit in flight
  std::uint64_t transitions = 0;
  std::uint64_t tcks = 0;
  double units_per_sec = 0.0;
  double transitions_per_sec = 0.0;
  double tcks_per_sec = 0.0;
  double cache_hit_rate = 0.0;  ///< bus waveform-store wire hit rate
  std::vector<WorkerSnapshot> workers;
};

/// Render one snapshot as a single JSONL heartbeat record (trailing
/// newline) — the schema the telemetry golden test pins:
///   {"schema":"jsi.telemetry.v2","seq":3,"wall_ms":...,"t_ms":750,
///    "units_total":12,"units_done":7,...,"workers":[{...},...]}
void write_snapshot_jsonl(std::ostream& os, const Snapshot& s);

/// Render the single-line terminal progress view of a snapshot:
///   [=====>....] 7/12 units | 3.1 u/s | eta 1.6s | 4 workers 87% busy
std::string render_progress_line(const Snapshot& s);

/// The live-snapshot layer over a sharded campaign: owns one lock-free
/// WorkerProgress slot per worker and an optional sampler thread that
/// periodically folds the slots into a Snapshot and streams it as JSONL
/// heartbeats (plus an optional terminal progress line). Strictly
/// observational: it never touches the per-worker Hubs or the
/// deterministic merged artifacts, so enabling it cannot change a
/// campaign's bytes — only report on them while they are produced.
///
/// Lifecycle: construct (slots exist, everything zero), hand slots to
/// workers, start() (emits the seq-0 heartbeat, joins the sampler's
/// round), run the campaign, stop() (leaves the round, emits the final
/// heartbeat). sample() is safe at any point in between — and without
/// start()/stop() at all, which is how the unit tests drive it.
///
/// The sampler is one process-wide thread that ticks every started
/// Telemetry, spawned on first use and never joined: a campaign pays
/// neither a thread spawn nor a join for its heartbeats. Once stop() has
/// taken a Telemetry out of the round, no periodic heartbeat of it runs
/// again, so the final one is last. The thread does not survive fork();
/// a forked child starts its own on first use.
class Telemetry {
 public:
  Telemetry(TelemetryConfig cfg, std::size_t n_workers,
            std::size_t units_total);
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  bool enabled() const { return cfg_.enabled; }
  const TelemetryConfig& config() const { return cfg_; }

  /// The worker's publication slot, nullptr when telemetry is disabled
  /// (the worker then skips all publishing with one branch).
  WorkerProgress* worker_slot(std::size_t w) {
    if (!cfg_.enabled || w >= slots_.size()) return nullptr;
    return &slots_[w];
  }

  /// Fold every worker slot into one monotone snapshot, stamped with
  /// the elapsed time since construction. Thread-safe against concurrent
  /// worker publishing (reads are coherent atomics).
  Snapshot sample();

  /// Open the sink, emit the seq-0 heartbeat, join the sampler's round.
  /// No-op when disabled. Throws std::runtime_error when `sink_path`
  /// cannot be opened.
  void start();

  /// Leave the sampler's round and emit the final heartbeat. No-op when
  /// disabled or never started; idempotent.
  void stop();

  /// Heartbeat records emitted so far (start + periodic + final).
  std::uint64_t heartbeats() const { return heartbeats_.load(); }

 private:
  /// Write one heartbeat to every sink. start(), the sampler's ticks and
  /// stop() call it in turn, ordered by the sampler's lock.
  void emit(const Snapshot& s);

  TelemetryConfig cfg_;
  std::size_t units_total_;
  std::vector<WorkerProgress> slots_;
  std::chrono::steady_clock::time_point t0_;

  std::unique_ptr<std::ostream> file_;  // owns the sink_path stream
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> heartbeats_{0};
  std::uint64_t last_units_done_ = 0;  // emitted monotonicity clamp

  bool started_ = false;
};

}  // namespace jsi::obs

#endif  // JSI_OBS_TELEMETRY_HPP
