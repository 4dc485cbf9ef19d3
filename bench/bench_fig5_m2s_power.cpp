// Reproduces Figure 5 of the paper: power dissipated by the multiplexer
// that sends data and control signals from the masters side to the
// slaves side (M2S) during the first 4 us -- the dominant sub-block.

#include <cstdio>

#include "common.hpp"
#include "power/report.hpp"

int main() {
  using namespace ahbp;

  campaign::System sys({.telemetry_window_cycles = 10});  // 100 ns windows
  std::puts("=== Figure 5: M2S multiplexer power consumption (first 4 us) ===\n");

  sys.run(400);  // 4 us

  const telemetry::WindowSeries& ws = *sys.est->windows();
  std::fputs(
      power::format_trace(ws, campaign::kCycle, "m2s", sim::SimTime::us(4)).c_str(),
      stdout);

  double peak = 0.0;
  for (const auto& w : ws.windows()) {
    peak = std::max(peak, power::window_power(ws, w, campaign::kCycle, "m2s"));
  }
  const power::BlockEnergy& e = sys.est->block_totals();
  std::printf("\npeak M2S power: %s   M2S share of total energy: %.2f %%\n",
              power::format_power(peak).c_str(), 100.0 * e.m2s / e.total());
  if (e.m2s < 0.25 * e.total()) {
    std::puts("SHAPE CHECK FAILED: M2S should be the dominant sub-block");
    return 1;
  }
  std::puts("SHAPE CHECK PASSED: the AHB data-path mux dominates.");
  return 0;
}
