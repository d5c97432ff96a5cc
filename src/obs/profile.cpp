#include "obs/profile.hpp"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <sstream>

namespace jsi::obs {

namespace {

/// TCKs -> estimated milliseconds at the configured TCK period.
double tcks_to_ms(std::uint64_t tcks, std::uint64_t period_ps) {
  return static_cast<double>(tcks) * static_cast<double>(period_ps) / 1e9;
}

double pct(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return 0.0;
  return static_cast<double>(part) * 100.0 / static_cast<double>(whole);
}

}  // namespace

std::string profile_report(const ProfileTotals& totals,
                           const std::vector<ProfileUnit>& units,
                           const Registry& merged, const Snapshot* telemetry,
                           const ProfileOptions& opt) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);

  const std::uint64_t total = totals.total_tcks;
  const std::uint64_t generation = totals.generation_tcks;
  const std::uint64_t observation = totals.observation_tcks;
  os << "== campaign profile ==\n";
  os << "units: " << totals.units << " (" << totals.violations
     << " violations, " << totals.failures << " failures)\n";
  os << "tcks: total=" << total << " generation=" << generation << " ("
     << pct(generation, total) << "%) observation=" << observation << " ("
     << pct(observation, total) << "%)\n";
  os << "wall est. @ " << static_cast<double>(opt.tck_period_ps) / 1000.0
     << " ns/tck: total " << tcks_to_ms(total, opt.tck_period_ps)
     << " ms (generation " << tcks_to_ms(generation, opt.tck_period_ps)
     << " ms, observation " << tcks_to_ms(observation, opt.tck_period_ps)
     << " ms)\n";

  // Sessions by kind: every "session.<kind>" counter of the merged
  // registry, in name order (deterministic).
  bool any_session = false;
  for (const auto& [name, c] : merged.counters()) {
    if (name.rfind("session.", 0) != 0) continue;
    if (!any_session) os << "sessions by kind:";
    any_session = true;
    os << ' ' << name.substr(8) << '=' << c.value();
  }
  if (any_session) os << '\n';

  // TCKs by TAP micro-phase.
  static constexpr const char* kStates[] = {"shift", "capture", "update",
                                            "pause", "other"};
  const std::uint64_t edge_total = merged.counter_value("tck.total");
  if (edge_total > 0) {
    os << "tck by state:";
    for (const char* st : kStates) {
      const std::uint64_t v =
          merged.counter_value(std::string("tck.state.") + st);
      os << ' ' << st << '=' << v << " (" << pct(v, edge_total) << "%)";
    }
    os << '\n';
  }

  // Per-TapOp latency distribution, summarized through the Histogram
  // accessors rather than raw bucket vectors.
  const auto hit = merged.histograms().find("op.tcks");
  if (hit != merged.histograms().end() && hit->second.count() > 0) {
    const Histogram& h = hit->second;
    os << "op.tcks: count=" << h.count() << " mean=" << h.mean()
       << " p50=" << h.quantile(0.5) << " p95=" << h.quantile(0.95) << '\n';
  }

  const std::uint64_t hits = merged.counter_value("bus.cache_hits");
  const std::uint64_t lookups = hits + merged.counter_value("bus.cache_misses");
  if (lookups > 0) {
    os << "bus waveform store: " << hits << '/' << lookups << " wire hits ("
       << pct(hits, lookups) << "%)\n";
  }

  // Top-k slowest units by TCK count (deterministic tiebreak: the
  // campaign's stable unit order).
  if (!units.empty() && opt.top_k > 0) {
    std::vector<std::size_t> order(units.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&units](std::size_t a, std::size_t b) {
                       return units[a].total_tcks > units[b].total_tcks;
                     });
    const std::size_t k = std::min(opt.top_k, order.size());
    os << "top " << k << " slowest units by tcks:\n";
    for (std::size_t r = 0; r < k; ++r) {
      const ProfileUnit& u = units[order[r]];
      os << "  " << (r + 1) << ". " << u.name << " tcks=" << u.total_tcks
         << " (gen=" << u.generation_tcks << " obs=" << u.observation_tcks
         << ')' << (u.failed ? " FAILED" : "") << '\n';
    }
  }

  if (telemetry != nullptr && !telemetry->workers.empty()) {
    os << "workers (measured, " << telemetry->t_ms << " ms wall):\n";
    for (const WorkerSnapshot& w : telemetry->workers) {
      os << "  w" << w.worker << ": units=" << w.units_completed << " busy="
         << static_cast<double>(w.busy_ns) / 1e6 << " ms idle="
         << static_cast<double>(w.idle_ns) / 1e6 << " ms utilization="
         << w.utilization * 100.0 << "%\n";
    }
  } else {
    os << "workers: no telemetry captured (run with --telemetry or "
          "--progress for measured utilization)\n";
  }
  return os.str();
}

}  // namespace jsi::obs
