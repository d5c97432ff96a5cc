#ifndef JSI_TESTS_JTAG_TICK_ONLY_PORT_HPP
#define JSI_TESTS_JTAG_TICK_ONLY_PORT_HPP

#include <cstdint>

#include "jtag/device.hpp"

namespace jsi::jtag {

/// Forwards tick() and nothing else, so shift_run takes the TapPort
/// default of one tick() per edge. The reference side of the burst tests:
/// the same device behind this port is clocked edge by edge.
class TickOnlyPort final : public TapPort {
 public:
  explicit TickOnlyPort(TapPort& inner) : inner_(&inner) {}

  util::Logic tick(bool tms, bool tdi) override {
    return inner_->tick(tms, tdi);
  }
  void async_reset() override { inner_->async_reset(); }
  std::uint64_t tck_count() const override { return inner_->tck_count(); }

 private:
  TapPort* inner_;
};

}  // namespace jsi::jtag

#endif  // JSI_TESTS_JTAG_TICK_ONLY_PORT_HPP
