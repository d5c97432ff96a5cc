#ifndef JSI_OBS_EVENTS_HPP
#define JSI_OBS_EVENTS_HPP

#include <cstddef>
#include <cstdint>

#include "util/bitvec.hpp"

namespace jsi::obs {

/// The event taxonomy every instrumented layer speaks — one record type
/// shared by the TAP driver, the protocol monitor, the test-plan engine,
/// the SoC models, the coupled bus, the detectors, and the event kernel.
/// A structured trace is just the ordered stream of these records; the
/// metrics registry is a fold over the same stream.
enum class EventKind : std::uint8_t {
  SessionBegin,       ///< a test session starts (name = session kind)
  SessionEnd,         ///< value = TCKs the session consumed
  PlanBegin,          ///< engine starts a TestPlan (a = ops, b = buses)
  PlanEnd,            ///< engine totals: value = total, a = gen, b = obs TCKs
  TapOpBegin,         ///< one TapOp starts (name = kind, a = op index,
                      ///< b = 1 when the op is an observation read-out)
  TapOpEnd,           ///< value = TCKs the op consumed
  StateEdge,          ///< one TCK edge (name = acting TAP state, phase set,
                      ///< a = TMS, b = TDI)
  BusTransition,      ///< a driven bus vector changed (a = bus index,
                      ///< value = cumulative transition count)
  CacheLookup,        ///< one bus waveform-store lookup call, after its
                      ///< fill (a = wire hits, b = wire misses)
  DetectorFired,      ///< sticky sensor flag newly latched (name = "ND"/"SD",
                      ///< a = wire, b = bus or -1)
  SchedulerRun,       ///< event-kernel drain finished (value = events run)
  ProtocolViolation,  ///< 1149.1 monitor rule broken (a = violation index)
  Mark,               ///< free-form user annotation
};
inline constexpr int kEventKindCount = static_cast<int>(EventKind::Mark) + 1;

const char* event_kind_name(EventKind k);

/// Micro-phase of one TCK edge, classified from the acting controller
/// state. `Other` covers navigation states (Select/Exit/Idle/Reset).
enum class TckPhase : std::uint8_t { Shift, Capture, Update, Pause, Other };
inline constexpr int kTckPhaseCount = static_cast<int>(TckPhase::Other) + 1;

const char* tck_phase_name(TckPhase p);

/// One trace record. Producers fill what they know and leave the rest at
/// the defaults; a Hub stamps missing clocks from the last TCK-bearing
/// event so detector/cache events landing mid-scan inherit the edge that
/// caused them. `name` must point at static-lifetime storage (state
/// names, op-kind names, "ND"/"SD") — records are copied into ring
/// buffers and may outlive any plan or session object.
struct Event {
  static constexpr std::uint64_t kNoStamp = ~std::uint64_t{0};

  EventKind kind = EventKind::Mark;
  TckPhase phase = TckPhase::Other;  ///< StateEdge only
  std::uint64_t tck = kNoStamp;      ///< producer's TCK counter
  std::uint64_t time_ps = kNoStamp;  ///< VCD cross-link (tck * TCK period)
  const char* name = "";             ///< static-lifetime label
  std::int64_t a = -1;               ///< small payload (see EventKind docs)
  std::int64_t b = -1;
  std::uint64_t value = 0;           ///< counts / TCK totals
};

/// Edge `i` of a scan body (see Sink::on_shift_run): `first_edge` with
/// tck advanced by i, TMS 1 on the last edge only, TDI `tdi[i]`, and no
/// time stamp (a Hub stamps each edge it expands from its tck).
inline Event shift_run_edge(const Event& first_edge, const util::BitVec& tdi,
                            std::size_t i) {
  Event e = first_edge;
  e.tck = first_edge.tck + i;
  e.time_ps = Event::kNoStamp;
  e.a = i + 1 == tdi.size() ? 1 : 0;
  e.b = tdi[i] ? 1 : 0;
  return e;
}

/// Consumer of the event stream. Instrumented components hold a plain
/// `Sink*` that defaults to nullptr, so the disabled path is one
/// predicted-not-taken branch per would-be event — no virtual call, no
/// record construction (the "<2% when disabled" guarantee, pinned by
/// `bench/obs_overhead_guard`).
///
/// A TapMaster reports a scan body — the tdi.size() >= 1 Shift-DR or
/// Shift-IR edges of one scan, TMS 1 on the last — as one burst through
/// on_shift_run. `first_edge` is the StateEdge record of the body's first
/// edge, tck set and time_ps not; shift_run_edge() gives edge i. The
/// default expands the burst into exactly those on_event calls, in
/// order, so a sink that overrides only on_event sees the per-edge
/// stream. An override must leave the sink as those calls would: the
/// metrics fold adds L edges of one phase in O(1), a Hub expands only
/// for a ring that keeps edges and for its extra sinks.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_event(const Event& e) = 0;
  virtual void on_shift_run(const Event& first_edge, const util::BitVec& tdi);
  /// A run of `n` consecutive StateEdge records: `edges[i]` with its tck
  /// set to `first_tck + i`. A TapMaster hands the fixed navigation runs
  /// of its operations (an Update-DR pulse, the edges around a scan body)
  /// over in one call from a table of their records. The default calls
  /// on_event for each, so a sink that overrides only on_event sees the
  /// per-edge stream.
  virtual void on_edges(const Event* edges, std::size_t n,
                        std::uint64_t first_tck);
};

/// Accepts and discards everything: the attached-but-inert baseline the
/// overhead guard compares the detached path against.
class NullSink final : public Sink {
 public:
  void on_event(const Event&) override {}
  void on_shift_run(const Event&, const util::BitVec&) override {}
  void on_edges(const Event*, std::size_t, std::uint64_t) override {}
};

/// Convenience emitter for span-style records (SessionBegin/End and
/// friends); no-op when `sink` is nullptr.
inline void emit_span(Sink* sink, EventKind kind, const char* name,
                      std::uint64_t tck, std::uint64_t value = 0) {
  if (!sink) return;
  Event e;
  e.kind = kind;
  e.tck = tck;
  e.name = name;
  e.value = value;
  sink->on_event(e);
}

}  // namespace jsi::obs

#endif  // JSI_OBS_EVENTS_HPP
