#include "si/model.hpp"

namespace jsi::si {

void InterconnectModel::validate(const BusParams&) const {}

bool InterconnectModel::same_extra_params(const BusParams&,
                                          const BusParams&) const {
  return true;
}

const InterconnectModel& model_for(ModelKind kind) {
  switch (kind) {
    case ModelKind::LowSwing:
      return detail::low_swing_model();
    case ModelKind::RcFullSwing:
      break;
  }
  return detail::rc_full_swing_model();
}

const char* model_kind_name(ModelKind kind) { return model_for(kind).name(); }

bool model_kind_from_name(std::string_view name, ModelKind& out) {
  for (ModelKind k : kAllModelKinds) {
    if (name == model_for(k).name()) {
      out = k;
      return true;
    }
  }
  return false;
}

bool same_params(const BusParams& a, const BusParams& b) {
  return a.model == b.model && a.n_wires == b.n_wires && a.vdd == b.vdd &&
         a.r_driver == b.r_driver && a.r_wire == b.r_wire &&
         a.c_ground == b.c_ground && a.c_couple == b.c_couple &&
         a.l_wire == b.l_wire && a.sample_dt == b.sample_dt &&
         a.samples == b.samples && model_for(a.model).same_extra_params(a, b);
}

}  // namespace jsi::si
