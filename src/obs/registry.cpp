#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace jsi::obs {

namespace {

// JSON-safe renderers shared with every other emitter in the repo:
// integral numbers print without a fraction so counters round-trip
// exactly, strings are escaped per the strict parser's rules.
using util::json::write_number;

void write_json_string(std::ostream& os, const std::string& s) {
  util::json::write_escaped_string(os, s);
}

}  // namespace

std::vector<double> Histogram::default_bounds() {
  return {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000, 20000};
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("histogram bounds must be sorted");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += x;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

double Histogram::quantile(double q) const {
  if (count_ == 0 || bounds_.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Target rank, 1-based: the smallest observation index covering q of
  // the mass. ceil() keeps q=0.5 of an even count on the lower median's
  // bucket boundary rather than past it.
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  double lo = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (cum + counts_[i] >= target) {
      if (i >= bounds_.size()) {
        // Overflow bucket: no upper edge to interpolate toward; clamp to
        // the highest known bound (an under-estimate by construction).
        return bounds_.back();
      }
      const double hi = bounds_[i];
      const double frac = static_cast<double>(target - cum) /
                          static_cast<double>(counts_[i]);
      return lo + (hi - lo) * frac;
    }
    cum += counts_[i];
    if (i < bounds_.size()) lo = bounds_[i];
  }
  return bounds_.back();
}

void Histogram::restore(std::vector<std::uint64_t> counts,
                        std::uint64_t count, double sum) {
  if (counts.size() != bounds_.size() + 1) {
    throw std::invalid_argument(
        "histogram restore: counts length does not match the bucket layout");
  }
  counts_ = std::move(counts);
  count_ = count;
  sum_ = sum;
}

void Histogram::merge(const Histogram& other) {
  if (bounds_ != other.bounds_) {
    throw std::invalid_argument("histogram merge: bucket layouts differ");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Counter& Registry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& Registry::gauge(const std::string& name) { return gauges_[name]; }

Histogram& Registry::histogram(const std::string& name) {
  return histograms_[name];
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(std::move(bounds))).first;
  }
  return it->second;
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

double Registry::gauge_value(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

void Registry::reset() {
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].inc(c.value());
  }
  for (const auto& [name, g] : other.gauges_) {
    Gauge& mine = gauges_[name];
    mine.set(mine.value() + g.value());
  }
  for (const auto& [name, h] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, h);
    } else if (it->second.bounds() != h.bounds()) {
      // Name the offending metric: a campaign merge folds dozens of
      // histograms, and "bucket layouts differ" alone is undebuggable.
      throw std::invalid_argument(
          "histogram merge: bucket layouts differ for metric \"" + name +
          "\"");
    } else {
      it->second.merge(h);
    }
  }
}

void Registry::write_text(std::ostream& os) const {
  for (const auto& [name, c] : counters_) {
    os << name << ' ' << c.value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    os << name << ' ' << g.value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << name << "_count " << h.count() << '\n';
    os << name << "_sum ";
    write_number(os, h.sum());
    os << '\n';
  }
}

void Registry::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, name);
    os << ':' << c.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, name);
    os << ':';
    write_number(os, g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, name);
    os << ":{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds().size(); ++i) {
      if (i) os << ',';
      write_number(os, h.bounds()[i]);
    }
    os << "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts().size(); ++i) {
      if (i) os << ',';
      os << h.counts()[i];
    }
    os << "],\"count\":" << h.count() << ",\"sum\":";
    write_number(os, h.sum());
    // Derived summaries so BENCH_*.json consumers can read p50/p95
    // latencies without reconstructing them from the bucket vectors.
    os << ",\"mean\":";
    write_number(os, h.mean());
    os << ",\"p50\":";
    write_number(os, h.quantile(0.5));
    os << ",\"p95\":";
    write_number(os, h.quantile(0.95));
    os << '}';
  }
  os << "}}";
}

std::string Registry::to_json() const {
  std::ostringstream ss;
  write_json(ss);
  return ss.str();
}

Registry& global_registry() {
  static Registry reg;
  return reg;
}

std::string jsi_metrics_dump(const std::string& name,
                             const std::string& path) {
  std::string target = path;
  if (target.empty()) {
    std::string dir;
    if (const char* env = std::getenv("JSI_METRICS_DIR")) dir = env;
    if (!dir.empty() && dir.back() != '/') dir += '/';
    target = dir + "BENCH_" + name + ".json";
  }
  std::ofstream os(target);
  if (!os) return "";
  os << "{\"benchmark\":";
  std::ostringstream quoted;
  quoted << '"' << name << '"';
  os << quoted.str() << ",\"metrics\":" << global_registry().to_json() << "}\n";
  return os ? target : "";
}

}  // namespace jsi::obs
