#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "core/checkpoint.hpp"

namespace jsi::e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<Metric> median_metrics(
    const std::vector<std::vector<Metric>>& runs) {
  std::vector<Metric> out = runs.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r[i].value);
    out[i].value = median(std::move(v));
  }
  return out;
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string digest(const std::string& text) {
  return core::fingerprint_text(text);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

}  // namespace jsi::e2e
