#include "probe.hpp"

#include <unistd.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace jsi::e2e {

namespace {

/// One probe run [s]: about 70% exp fill + scan and 30% state machine on
/// the reference host. Fixed work; the result feeds a volatile so the
/// compiler keeps all of it.
double probe_kernel() {
  static thread_local std::vector<double> wave(2048);  // one bus window
  const Clock::time_point t0 = Clock::now();

  double acc = 0;
  for (int r = 0; r < 1000; ++r) {
    const double rate = 1.0 / (60.0 + static_cast<double>(r & 63));
    for (std::size_t i = 0; i < wave.size(); ++i) {
      wave[i] = 1.0 - std::exp(-static_cast<double>(i) * rate) + 0.5 * wave[i];
    }
    std::size_t cross = 0;
    while (cross < wave.size() && wave[cross] < 0.95) ++cross;
    acc += static_cast<double>(cross) + wave[r & 2047];
  }

  // 16 states, next state by one pseudo-random bit: a TAP-controller walk.
  std::array<std::array<std::uint8_t, 2>, 16> next{};
  for (std::uint8_t s = 0; s < 16; ++s) {
    next[s] = {static_cast<std::uint8_t>((s * 5 + 1) & 15),
               static_cast<std::uint8_t>((s * 3 + 7) & 15)};
  }
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint8_t state = 0;
  std::uint64_t edges = 0;
  for (int r = 0; r < 4'000'000; ++r) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    state = next[state][x & 1];
    if (state == 15) edges += x >> 60;
  }

  volatile double keep = acc + static_cast<double>(edges + state);
  (void)keep;
  return seconds_since(t0);
}

/// A pipe whose ends close with it.
struct Pipe {
  int fd[2] = {-1, -1};
  Pipe() {
    if (::pipe(fd) != 0) throw std::runtime_error("wake probe: pipe failed");
  }
  ~Pipe() {
    ::close(fd[0]);
    ::close(fd[1]);
  }
};

bool pass_byte(int from, int to) {
  char c = 0;
  return ::read(from, &c, 1) == 1 && ::write(to, &c, 1) == 1;
}

}  // namespace

double wake_probe() {
  Pipe there, back;
  const Clock::time_point t0 = Clock::now();
  bool echoed = false;
  std::thread echo([&] { echoed = pass_byte(there.fd[0], back.fd[1]); });
  const char c = 'w';
  const bool sent = ::write(there.fd[1], &c, 1) == 1;
  char got = 0;
  const bool received = sent && ::read(back.fd[0], &got, 1) == 1;
  const double secs = seconds_since(t0);
  if (!sent) {  // closing lets the echo thread's read return
    ::close(there.fd[1]);
    there.fd[1] = -1;
  }
  echo.join();
  if (!received || !echoed) throw std::runtime_error("wake probe: pipe I/O failed");
  return secs;
}

HostClock::HostClock(std::size_t threads) : threads_(threads < 1 ? 1 : threads) {
  probe();
}

double HostClock::next_scale() {
  const double before = samples_.back();
  probe();
  return kProbeRefS * 2.0 / (before + samples_.back());
}

void HostClock::probe() {
  if (threads_ == 1) {
    samples_.push_back(probe_kernel());
    return;
  }
  std::vector<double> t(threads_);
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < threads_; ++i) {
    pool.emplace_back([&t, i] { t[i] = probe_kernel(); });
  }
  for (std::thread& th : pool) th.join();
  double sum = 0;
  for (const double s : t) sum += s;
  samples_.push_back(sum / static_cast<double>(threads_));
}

}  // namespace jsi::e2e
