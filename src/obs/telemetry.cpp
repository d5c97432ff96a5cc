#include "obs/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <pthread.h>

#include "util/json.hpp"

namespace jsi::obs {

namespace {

using util::json::write_number;

double rate_per_sec(std::uint64_t count, std::uint64_t elapsed_ms) {
  // Clamp the denominator to 1 ms: a campaign finishing inside the
  // clock's first millisecond still reports a finite, nonzero rate for
  // any nonzero count.
  return static_cast<double>(count) * 1000.0 /
         static_cast<double>(std::max<std::uint64_t>(elapsed_ms, 1));
}

double hit_rate(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  if (total == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

/// Open the heartbeat file, writing from its start. A regular file left
/// by an earlier run is replaced — removed, then created anew — which
/// costs a fraction of truncating it in place (on ext4, truncation frees
/// the old blocks up front and forces the new data out at close).
/// Anything else (/dev/stdout, a FIFO, a symlink) is opened and truncated
/// as is, never removed.
std::unique_ptr<std::ofstream> open_sink(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::symlink_status(path, ec).type() == fs::file_type::regular) {
    fs::remove(path, ec);
  }
  auto os = std::make_unique<std::ofstream>(path, std::ios::binary);
  if (!*os) throw std::runtime_error("cannot open telemetry sink " + path);
  return os;
}

/// The sampler thread every started Telemetry shares (see Telemetry).
/// A tick runs under the sampler's lock, so once remove() returns no
/// tick of that Telemetry runs again.
class Sampler {
 public:
  using Tick = std::function<void()>;

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  static Sampler& instance() {
    // Never destroyed, so the thread, which touches nothing but this
    // object, runs detached until the process exits: no campaign waits
    // for it, and no exit-time destructor has to stop it.
    static Sampler* const sampler = [] {
      auto* s = new Sampler;
      // A forked child has neither the thread nor the parent's
      // campaigns: hold the lock across fork() and reset in the child.
      ::pthread_atfork([] { instance().mu_.lock(); },
                       [] { instance().mu_.unlock(); },
                       [] { instance().reset_in_child(); });
      return s;
    }();
    return *sampler;
  }

  /// Call `tick` every `interval` until remove(key).
  void add(const void* key, std::chrono::milliseconds interval, Tick tick) {
    bool wake = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!running_) {
        running_ = true;
        std::thread([this] { run(); }).detach();
      }
      const Clock::time_point due = Clock::now() + interval;
      entries_.push_back({key, interval, due, std::move(tick)});
      // A thread already due to wake by then finds the entry itself.
      wake = due < wake_at_;
    }
    if (wake) cv_.notify_one();
  }

  void remove(const void* key) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(entries_, [key](const Entry& e) { return e.key == key; });
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    const void* key;
    std::chrono::milliseconds interval;
    Clock::time_point due;
    Tick tick;
  };

  Sampler() = default;

  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_at_ = Clock::time_point::max();
      cv_.wait(lock, [this] { return !entries_.empty(); });
      wake_at_ = entries_.front().due;
      for (const Entry& e : entries_) wake_at_ = std::min(wake_at_, e.due);
      // add() wakes the thread early for an entry due sooner; any wake-up
      // ticks what is due and looks again.
      cv_.wait_until(lock, wake_at_);
      for (Entry& e : entries_) {
        if (e.due > Clock::now()) continue;
        e.tick();
        e.due = Clock::now() + e.interval;
      }
    }
  }

  void reset_in_child() {
    entries_.clear();
    running_ = false;
    wake_at_ = Clock::time_point::min();
    mu_.unlock();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  Clock::time_point wake_at_ = Clock::time_point::min();  // thread's deadline
  std::vector<Entry> entries_;
};

}  // namespace

void write_snapshot_jsonl(std::ostream& os, const Snapshot& s) {
  os << "{\"schema\":\"jsi.telemetry.v" << Snapshot::kSchemaVersion
     << "\",\"seq\":" << s.seq << ",\"wall_ms\":" << s.wall_ms
     << ",\"t_ms\":" << s.t_ms << ",\"units_total\":" << s.units_total
     << ",\"units_done\":" << s.units_done
     << ",\"units_running\":" << s.units_running
     << ",\"units_per_sec\":";
  write_number(os, s.units_per_sec);
  os << ",\"transitions\":" << s.transitions << ",\"transitions_per_sec\":";
  write_number(os, s.transitions_per_sec);
  os << ",\"tcks\":" << s.tcks << ",\"tcks_per_sec\":";
  write_number(os, s.tcks_per_sec);
  os << ",\"cache_hit_rate\":";
  write_number(os, s.cache_hit_rate);
  os << ",\"workers\":[";
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    const WorkerSnapshot& w = s.workers[i];
    if (i) os << ',';
    os << "{\"worker\":" << w.worker
       << ",\"units_started\":" << w.units_started
       << ",\"units_done\":" << w.units_completed
       << ",\"busy_ns\":" << w.busy_ns << ",\"idle_ns\":" << w.idle_ns
       << ",\"utilization\":";
    write_number(os, w.utilization);
    os << ",\"unit\":";
    if (w.current_unit.empty()) {
      os << "null";
    } else {
      util::json::write_escaped_string(os, w.current_unit);
    }
    os << '}';
  }
  os << "]}\n";
}

std::string render_progress_line(const Snapshot& s) {
  constexpr std::size_t kBarWidth = 20;
  std::ostringstream os;
  const double frac =
      s.units_total == 0
          ? 1.0
          : static_cast<double>(s.units_done) /
                static_cast<double>(s.units_total);
  const std::size_t filled = static_cast<std::size_t>(
      std::min(1.0, std::max(0.0, frac)) * kBarWidth);
  os << '[';
  for (std::size_t i = 0; i < kBarWidth; ++i) {
    os << (i < filled ? '=' : (i == filled ? '>' : '.'));
  }
  os << "] " << s.units_done << '/' << s.units_total << " units | ";
  os.precision(3);
  os << s.units_per_sec << " u/s | eta ";
  if (s.units_per_sec > 0.0 && s.units_done < s.units_total) {
    const double eta_s =
        static_cast<double>(s.units_total - s.units_done) / s.units_per_sec;
    os << eta_s << "s";
  } else {
    os << (s.units_done >= s.units_total ? "0s" : "--");
  }
  double busy = 0.0, total = 0.0;
  for (const WorkerSnapshot& w : s.workers) {
    busy += static_cast<double>(w.busy_ns);
    total += static_cast<double>(w.busy_ns + w.idle_ns);
  }
  os << " | " << s.workers.size() << " worker"
     << (s.workers.size() == 1 ? "" : "s");
  if (total > 0.0) {
    os << ' ' << static_cast<int>(busy / total * 100.0 + 0.5) << "% busy";
  }
  return os.str();
}

Telemetry::Telemetry(TelemetryConfig cfg, std::size_t n_workers,
                     std::size_t units_total)
    : cfg_(std::move(cfg)),
      units_total_(units_total),
      slots_(cfg_.enabled ? std::max<std::size_t>(n_workers, 1) : 0),
      t0_(std::chrono::steady_clock::now()) {}

Telemetry::~Telemetry() { stop(); }

Snapshot Telemetry::sample() {
  Snapshot s;
  s.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  s.wall_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  s.t_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count());
  s.units_total = units_total_;

  std::uint64_t cache_hits = 0, cache_misses = 0;
  s.workers.reserve(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const WorkerProgress& p = slots_[i];
    WorkerSnapshot w;
    w.worker = i;
    // Completed first, with acquire (pairing with end_unit's release):
    // the started count loaded after it is then at least as large, so
    // the difference never wraps.
    w.units_completed = p.units_completed.load(std::memory_order_acquire);
    w.units_started = p.units_started.load(std::memory_order_relaxed);
    w.busy_ns = p.busy_ns.load(std::memory_order_relaxed);
    w.idle_ns = p.idle_ns.load(std::memory_order_relaxed);
    const std::uint64_t timed = w.busy_ns + w.idle_ns;
    w.utilization = timed == 0 ? 0.0
                               : static_cast<double>(w.busy_ns) /
                                     static_cast<double>(timed);
    if (const char* label =
            p.current_unit.load(std::memory_order_relaxed)) {
      w.current_unit = label;
    }
    s.units_done += w.units_completed;
    // A worker runs one unit at a time. Its started count may run ahead
    // of the completed count loaded before it by more than one unit, so
    // the difference only says whether a unit was in flight.
    s.units_running += w.units_started != w.units_completed ? 1 : 0;
    s.transitions += p.transitions.load(std::memory_order_relaxed);
    s.tcks += p.tcks.load(std::memory_order_relaxed);
    cache_hits += p.cache_hits.load(std::memory_order_relaxed);
    cache_misses += p.cache_misses.load(std::memory_order_relaxed);
    s.workers.push_back(std::move(w));
  }
  s.units_per_sec = rate_per_sec(s.units_done, s.t_ms);
  s.transitions_per_sec = rate_per_sec(s.transitions, s.t_ms);
  s.tcks_per_sec = rate_per_sec(s.tcks, s.t_ms);
  s.cache_hit_rate = hit_rate(cache_hits, cache_misses);
  return s;
}

void Telemetry::emit(const Snapshot& s) {
  // Belt-and-braces monotonicity: sampler and final emits come from
  // different threads; the sampler's lock already orders them, but the
  // clamp makes "units_done never decreases" a property of the output
  // stream itself.
  Snapshot clamped = s;
  clamped.units_done = std::max(clamped.units_done, last_units_done_);
  last_units_done_ = clamped.units_done;
  if (file_) {
    write_snapshot_jsonl(*file_, clamped);
    file_->flush();
  }
  if (cfg_.sink != nullptr) write_snapshot_jsonl(*cfg_.sink, clamped);
  if (cfg_.progress) {
    std::ostream& os =
        cfg_.progress_stream != nullptr ? *cfg_.progress_stream : std::cerr;
    os << '\r' << render_progress_line(clamped);
    if (clamped.units_done >= clamped.units_total) os << '\n';
    os.flush();
  }
  heartbeats_.fetch_add(1, std::memory_order_relaxed);
}

void Telemetry::start() {
  if (!cfg_.enabled || started_) return;
  if (!cfg_.sink_path.empty()) file_ = open_sink(cfg_.sink_path);
  started_ = true;
  t0_ = std::chrono::steady_clock::now();
  emit(sample());  // seq 0: the campaign is announced before it runs
  Sampler::instance().add(
      this,
      std::chrono::milliseconds(std::max<std::uint64_t>(cfg_.interval_ms, 1)),
      [this] { emit(sample()); });
}

void Telemetry::stop() {
  if (!started_) return;
  Sampler::instance().remove(this);
  started_ = false;
  emit(sample());  // the final heartbeat: totals and utilization
}

}  // namespace jsi::obs
