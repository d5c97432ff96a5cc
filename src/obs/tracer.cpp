#include "obs/tracer.hpp"

#include <ostream>

#include "util/json.hpp"

namespace jsi::obs {

namespace {

/// ts in the chrome format is microseconds; TCK time is picoseconds.
void write_ts(std::ostream& os, std::uint64_t time_ps) {
  const std::uint64_t whole = time_ps / 1'000'000;
  const std::uint64_t frac = time_ps % 1'000'000;
  os << whole << '.';
  // Fixed six fractional digits keeps the output locale-independent.
  for (std::uint64_t div = 100'000; div >= 1; div /= 10) {
    os << (frac / div) % 10;
    if (div == 1) break;
  }
}

}  // namespace

void write_event_jsonl(std::ostream& os, const Event& e) {
  // Labels are escaped on output (not merely tolerated on input): a
  // name carrying a quote, backslash or control character must still
  // yield one valid JSON record per line.
  os << "{\"kind\":\"" << event_kind_name(e.kind) << "\",\"tck\":" << e.tck
     << ",\"t_ps\":" << e.time_ps << ",\"name\":";
  util::json::write_escaped_string(os, e.name);
  if (e.kind == EventKind::StateEdge) {
    os << ",\"phase\":\"" << tck_phase_name(e.phase) << '"';
  }
  os << ",\"a\":" << e.a << ",\"b\":" << e.b << ",\"value\":" << e.value
     << "}\n";
}

Tracer::Tracer(TracerConfig cfg) : cfg_(cfg) {
  if (cfg_.capacity == 0) return;  // no ring: keeps nothing
  for (int k = 0; k < kEventKindCount; ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (kind == EventKind::StateEdge && !cfg_.tap_edges) continue;
    if (kind == EventKind::CacheLookup && !cfg_.cache_lookups) continue;
    kept_ |= std::uint32_t{1} << k;
  }
  ring_.reserve(cfg_.capacity);
}

void Tracer::push(const Event& e) {
  ++recorded_;
  if (ring_.size() < cfg_.capacity) {
    // Filling phase: records live at [0, size) in arrival order and
    // head_ stays 0 (the oldest record's slot once the ring is full).
    ring_.push_back(e);
    return;
  }
  ring_[head_] = e;
  head_ = (head_ + 1) % cfg_.capacity;
  ++dropped_;
}

void Tracer::on_event(const Event& e) {
  Event stamped = e;
  if (stamped.tck == Event::kNoStamp) stamped.tck = last_tck_;
  if (stamped.time_ps == Event::kNoStamp) {
    stamped.time_ps = stamped.tck * cfg_.tck_period_ps;
  }
  record(stamped);
}

void Tracer::on_shift_run(const Event& first_edge, const util::BitVec& tdi) {
  if (!keeps(EventKind::StateEdge)) {
    // Dropped edges still advance the stamp clock.
    last_tck_ = first_edge.tck + tdi.size() - 1;
    return;
  }
  for (std::size_t i = 0; i < tdi.size(); ++i) {
    on_event(shift_run_edge(first_edge, tdi, i));
  }
}

std::vector<Event> Tracer::events() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  if (ring_.size() < cfg_.capacity) {
    out = ring_;  // still filling: arrival order
    return out;
  }
  for (std::size_t i = head_; i < ring_.size(); ++i) out.push_back(ring_[i]);
  for (std::size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
  return out;
}

void Tracer::clear() {
  ring_.clear();
  head_ = 0;
  // recorded_/dropped_ survive: they meter the workload, not the buffer.
}

void Tracer::write_jsonl(std::ostream& os) const {
  for (const Event& e : events()) write_event_jsonl(os, e);
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"jsi\"}},";
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"session\"}},";
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
        "\"args\":{\"name\":\"tap-ops\"}},";
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":2,"
        "\"args\":{\"name\":\"bus+detectors\"}}";

  auto slice = [&os](const char* name, char ph, int tid, std::uint64_t t_ps) {
    os << ",{\"name\":";
    util::json::write_escaped_string(os, name);
    os << ",\"ph\":\"" << ph << "\",\"pid\":0,\"tid\":" << tid << ",\"ts\":";
    write_ts(os, t_ps);
    os << '}';
  };

  // Counter samples (ph:"C"): Perfetto renders these as live-rate tracks
  // next to the span rows, so throughput is visible at a glance without
  // leaving the trace viewer.
  auto counter = [&os](const char* name, std::uint64_t t_ps, const char* key,
                       std::uint64_t value) {
    os << ",{\"name\":\"" << name << "\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":";
    write_ts(os, t_ps);
    os << ",\"args\":{\"" << key << "\":" << value << "}}";
  };

  std::uint64_t detector_firings = 0;
  for (const Event& e : events()) {
    switch (e.kind) {
      case EventKind::SessionBegin:
        slice(e.name, 'B', 0, e.time_ps);
        break;
      case EventKind::SessionEnd:
        slice(e.name, 'E', 0, e.time_ps);
        break;
      case EventKind::PlanBegin:
        slice("plan", 'B', 0, e.time_ps);
        break;
      case EventKind::PlanEnd:
        slice("plan", 'E', 0, e.time_ps);
        break;
      case EventKind::TapOpBegin:
        slice(e.name, 'B', 1, e.time_ps);
        break;
      case EventKind::TapOpEnd:
        slice(e.name, 'E', 1, e.time_ps);
        counter("tck", e.time_ps, "tck", e.tck);
        break;
      case EventKind::DetectorFired:
        os << ",{\"name\":";
        util::json::write_escaped_string(os, e.name);
        os << ",\"ph\":\"i\",\"s\":\"p\",\"pid\":0,\"tid\":2,\"ts\":";
        write_ts(os, e.time_ps);
        os << ",\"args\":{\"wire\":" << e.a << ",\"bus\":" << e.b
           << ",\"tck\":" << e.tck << ",\"vcd_ps\":" << e.time_ps << "}}";
        counter("detector-firings", e.time_ps, "fired", ++detector_firings);
        break;
      case EventKind::BusTransition:
        os << ",{\"name\":\"bus-transition\",\"ph\":\"i\",\"s\":\"t\","
              "\"pid\":0,\"tid\":2,\"ts\":";
        write_ts(os, e.time_ps);
        os << ",\"args\":{\"bus\":" << e.a << ",\"count\":" << e.value
           << ",\"tck\":" << e.tck << ",\"vcd_ps\":" << e.time_ps << "}}";
        counter("bus-transitions", e.time_ps, "count", e.value);
        break;
      case EventKind::ProtocolViolation:
        os << ",{\"name\":\"protocol-violation\",\"ph\":\"i\",\"s\":\"g\","
              "\"pid\":0,\"tid\":2,\"ts\":";
        write_ts(os, e.time_ps);
        os << ",\"args\":{\"index\":" << e.a << ",\"tck\":" << e.tck << "}}";
        break;
      case EventKind::Mark:
        os << ",{\"name\":";
        util::json::write_escaped_string(os, e.name);
        os << ",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":";
        write_ts(os, e.time_ps);
        os << '}';
        break;
      case EventKind::StateEdge:
      case EventKind::CacheLookup:
      case EventKind::SchedulerRun:
        // Per-TCK / per-probe records stay in the JSONL export; rendering
        // them as slices would swamp the viewer.
        break;
    }
  }
  os << "]}\n";
}

}  // namespace jsi::obs
