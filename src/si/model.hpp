#ifndef JSI_SI_MODEL_HPP
#define JSI_SI_MODEL_HPP

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "si/bus_model.hpp"
#include "si/recipe.hpp"
#include "sim/time.hpp"
#include "util/bitvec.hpp"

namespace jsi::si {

/// The pluggable electrical policy of a bus: everything about a
/// `CoupledBus` that depends on *how the wire is driven and received*
/// lives behind this interface, while the model-agnostic machinery —
/// SoA defect state, the waveform store, detectors, sessions — is shared
/// by every model.
///
/// Contract for implementations:
///  * `recipe()` is the model's whole say in a waveform: it gathers wire
///    i's electrical inputs for prev -> next into a `WireRecipe`, and the
///    shared `render()` (si/probe.hpp) turns every recipe into
///    samples. The bus's waveform store keys on the recipe's bits, so a
///    recipe must hold every input its waveform and verdicts depend on,
///    and zeros in the fields its wire kind does not read. Build it with
///    `detail::wire_recipe` and FP-order-sensitive math in `JSI_NOINLINE`
///    helpers, as the shipped models do.
///  * Implementations are immutable singletons (`model_for` returns a
///    shared const instance); all per-bus state lives in `BusModel`.
///  * `validate()` throws std::invalid_argument for bad model-specific
///    params; it runs in the `BusModel` constructor, before any derived
///    state is built.
///
/// To add a model: define the enumerator in `ModelKind`, implement this
/// interface in a new src/si/model_<name>.cpp, register it in
/// `model_for()`/`kAllModelKinds`, and give it a scenario-facing `name()`
/// — parsing, serialization, sweep variation validation, checkpoint
/// fingerprinting, area accounting and the per-model bench gauges all
/// key off the registry.
class InterconnectModel {
 public:
  virtual ~InterconnectModel() = default;

  virtual ModelKind kind() const = 0;

  /// Scenario-facing name ("rc_full_swing", "low_swing"); also used in
  /// diagnostics, obs metric tags and BENCH json keys.
  virtual const char* name() const = 0;

  /// Validate model-specific BusParams fields (throws
  /// std::invalid_argument). Default: nothing to validate.
  virtual void validate(const BusParams& p) const;

  /// Per-wire high rail [V] — the voltage a logic-1 wire settles to.
  virtual double high_rail(const BusParams& p) const = 0;

  /// Receiver decision threshold [V] for `settled_logic`.
  virtual double settled_threshold(const BusParams& p) const = 0;

  /// Voltage swing the ND/SD detector cells observe [V]; feeds the
  /// detector supplies so threshold fractions scale with the bus swing.
  virtual double observed_swing(const BusParams& p) const = 0;

  /// Defect-free delay of a wire given its nominal self time constant
  /// `tau` [s] — the designer's timing expectation the SD cell budgets
  /// its skew-immune window from. Includes any fixed receiver delay.
  virtual sim::Time nominal_delay(const BusParams& p, double tau) const = 0;

  /// Wire `i`'s recipe for prev -> next on `m`; `render` makes it samples.
  virtual WireRecipe recipe(const BusModel& m, std::size_t i,
                            const util::BitVec& prev,
                            const util::BitVec& next) const = 0;

  /// Are the model-specific params of `a` and `b` equal? The nine shared
  /// fields are compared by `same_params`; this hook covers the rest.
  /// Default: no model-specific params, always true.
  virtual bool same_extra_params(const BusParams& a, const BusParams& b) const;

  /// Parameter names the sweep's process-variation stage may vary for
  /// this model (scenario `sweep.variations[].param` values).
  virtual const std::vector<std::string>& variable_params() const = 0;

  /// Area hooks: extra NAND-equivalent gates per wire over the plain
  /// full-swing driver/receiver (level converters, bias networks, ...),
  /// split by which end of the wire they sit on. Zero for rc_full_swing
  /// keeps the paper's Table 7 numbers untouched.
  virtual double extra_sending_gates_per_wire() const { return 0.0; }
  virtual double extra_observing_gates_per_wire() const { return 0.0; }
};

namespace detail {
const InterconnectModel& rc_full_swing_model();
const InterconnectModel& low_swing_model();
}  // namespace detail

/// Every registered model kind, in registry order (perf benches and the
/// kernel ratio guard iterate this).
inline constexpr ModelKind kAllModelKinds[] = {ModelKind::RcFullSwing,
                                               ModelKind::LowSwing};

/// The shared immutable model instance for `kind`.
const InterconnectModel& model_for(ModelKind kind);

/// Scenario-facing name of `kind` ("rc_full_swing", "low_swing").
const char* model_kind_name(ModelKind kind);

/// Parse a scenario-facing model name; returns false on unknown names.
bool model_kind_from_name(std::string_view name, ModelKind& out);

/// Full BusParams equality: the nine shared fields, the model kind, and
/// the model's own extra params. The "may I clone this prototype for
/// this unit?" predicate used by the campaign bus factory and the sweep.
bool same_params(const BusParams& a, const BusParams& b);

}  // namespace jsi::si

#endif  // JSI_SI_MODEL_HPP
