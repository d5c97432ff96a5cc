#include "jtag/tap_state.hpp"

#include <array>
#include <deque>
#include <ostream>

namespace jsi::jtag {

std::vector<bool> tms_path(TapState from, TapState to) {
  if (from == to) return {};
  // BFS; explore TMS=0 first so ties resolve to the 0 edge.
  std::array<int, kTapStateCount> prev_state{};
  std::array<int, kTapStateCount> prev_tms{};
  prev_state.fill(-1);
  prev_tms.fill(-1);
  std::deque<TapState> queue{from};
  prev_state[static_cast<int>(from)] = static_cast<int>(from);
  while (!queue.empty()) {
    const TapState s = queue.front();
    queue.pop_front();
    for (int tms = 0; tms <= 1; ++tms) {
      const TapState n = next_state(s, tms != 0);
      const int ni = static_cast<int>(n);
      if (prev_state[ni] != -1) continue;
      prev_state[ni] = static_cast<int>(s);
      prev_tms[ni] = tms;
      if (n == to) {
        std::vector<bool> path;
        for (int cur = ni; cur != static_cast<int>(from);
             cur = prev_state[cur]) {
          path.push_back(prev_tms[cur] != 0);
        }
        return {path.rbegin(), path.rend()};
      }
      queue.push_back(n);
    }
  }
  return {};  // unreachable: the FSM is strongly connected
}

std::ostream& operator<<(std::ostream& os, TapState s) {
  return os << tap_state_name(s);
}

}  // namespace jsi::jtag
