#ifndef JSI_E2E_PROBE_HPP
#define JSI_E2E_PROBE_HPP

#include <cstddef>
#include <vector>

namespace jsi::e2e {

/// Probe time of the reference host: what the probe kernel takes on a
/// quiet core of the 4-vCPU x86-64 VM the benchmark was tuned on.
inline constexpr double kProbeRefS = 0.025;

/// Wake-up probe time of the reference host.
inline constexpr double kWakeRefS = 25e-6;

/// One run of the wake-up probe [s]: start a thread, pass it a byte over a
/// pipe and wait for it to pass the byte back. Sections made of thread
/// start-up and wake-ups (a daemon's start) are scaled by this probe, as
/// host seconds x kWakeRefS / probe seconds: the floating-point kernel
/// below does not stand for them.
double wake_probe();

/// Host-speed probe. On a shared host the speed of a core drifts by tens
/// of percent over seconds to minutes with the load of other tenants, and
/// floating-point work slows most. Every timed section is bracketed by
/// runs of a fixed kernel of the benchmark's own code (an exp waveform fill
/// with a threshold scan, the solver's and detectors' mix, plus a table-
/// driven state machine, the TAP engine's), and its time is reported
/// scaled to the reference host: host seconds x kProbeRefS / probe seconds.
/// The kernel never calls the program, so a change to the program moves
/// the scaled figures exactly as it moves the host ones.
class HostClock {
 public:
  /// Probes on `threads` threads at once (the workload's busy threads)
  /// and takes the first sample.
  explicit HostClock(std::size_t threads);

  /// Takes a sample: the next section starts here.
  void probe();

  /// Probes again and returns the factor that scales host seconds of the
  /// section since the previous probe to reference seconds: kProbeRefS
  /// over the mean of the two samples around the section.
  double next_scale();

  /// Every probe sample so far [s].
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::size_t threads_;
  std::vector<double> samples_;
};

}  // namespace jsi::e2e

#endif  // JSI_E2E_PROBE_HPP
