#ifndef JSI_OBS_TRACER_HPP
#define JSI_OBS_TRACER_HPP

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/events.hpp"

namespace jsi::obs {

/// Write one stamped event as a single JSONL record (trailing newline):
///   {"kind":"TapOpBegin","tck":12,"t_ps":120000,"name":"ScanDr",...}
/// The exact format Tracer::write_jsonl emits per event — exposed so other
/// renderers (the campaign artifact writer) stay byte-identical with it.
void write_event_jsonl(std::ostream& os, const Event& e);

/// What the tracer keeps and how it stamps time.
struct TracerConfig {
  /// Ring entries; the oldest is dropped when full. 0 keeps no ring: the
  /// tracer records and reserves nothing (a campaign worker's hub when
  /// no one reads its events).
  std::size_t capacity = 1 << 16;
  bool tap_edges = true;      ///< keep per-TCK StateEdge records
  bool cache_lookups = false;  ///< keep CacheLookup records (one per bus lookup)
  /// TCK period used to stamp `time_ps` on records that lack one — the
  /// cross-link into VCD dumps written on the same timebase (default
  /// 10 ns = a 100 MHz test clock).
  std::uint64_t tck_period_ps = 10'000;
};

/// Structured trace recorder: a bounded ring of typed Events, exportable
/// as JSONL (one record per line, greppable) and as Chrome trace_event
/// JSON loadable in Perfetto / chrome://tracing. Span pairs
/// (Session/Plan/TapOp Begin+End) become duration slices; detector
/// firings and bus transitions become instant markers carrying their VCD
/// timestamp in `args`.
///
/// Attached on its own, the tracer stamps what it receives (on_event) and
/// expands a scan body into stamped edges only when it keeps StateEdges
/// (on_shift_run). Inside a Hub it is fed through record(): the hub has
/// stamped the record already, and expands a scan body only when the
/// tracer keeps edges or the hub has extra sinks.
class Tracer final : public Sink {
 public:
  Tracer() : Tracer(TracerConfig{}) {}
  explicit Tracer(TracerConfig cfg);

  const TracerConfig& config() const { return cfg_; }

  void on_event(const Event& e) override;
  void on_shift_run(const Event& first_edge, const util::BitVec& tdi) override;

  /// Whether records of `kind` enter the ring (never, with no ring).
  bool keeps(EventKind kind) const {
    return (kept_ >> static_cast<unsigned>(kind)) & 1u;
  }

  /// Take a record whose tck and time_ps are already stamped.
  void record(const Event& stamped) {
    last_tck_ = stamped.tck;
    if (keeps(stamped.kind)) push(stamped);
  }

  /// Retained records, oldest first.
  std::vector<Event> events() const;

  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t last_tck() const { return last_tck_; }

  void clear();

  /// One JSON object per line:
  ///   {"kind":"TapOpBegin","tck":12,"t_ps":120000,"name":"ScanDr",...}
  void write_jsonl(std::ostream& os) const;

  /// Chrome trace_event format ({"traceEvents":[...]}); `ts` is in
  /// microseconds of TCK time (tck * period). StateEdge records are
  /// summarized away (they would swamp the viewer); everything else maps
  /// to B/E duration slices or instant events, plus ph:"C" counter
  /// samples (cumulative tck, bus-transition count, detector firings) so
  /// Perfetto renders live-rate tracks next to the spans.
  void write_chrome_trace(std::ostream& os) const;

 private:
  void push(const Event& e);

  TracerConfig cfg_;
  std::uint32_t kept_ = 0;  // bit k: keeps EventKind k
  std::vector<Event> ring_;
  std::size_t head_ = 0;  // oldest slot once the ring is full
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t last_tck_ = 0;
};

}  // namespace jsi::obs

#endif  // JSI_OBS_TRACER_HPP
