// Reproduces Figure 4 of the paper: arbiter power consumption during the
// first 4 us. The arbiter is one of the least power-hungry sub-blocks --
// compare against Figure 5 (M2S mux), which dwarfs it.

#include <cstdio>

#include "common.hpp"
#include "power/report.hpp"

int main() {
  using namespace ahbp;

  bench::PaperSystem sys({.telemetry_window_cycles = 10});  // 100 ns windows
  std::puts("=== Figure 4: arbiter power consumption (first 4 us) ===\n");

  sys.run(sim::SimTime::us(4));
  sys.est->flush_telemetry();

  const telemetry::WindowSeries& ws = *sys.est->windows();
  std::fputs(
      power::format_trace(ws, bench::kCycle, "arb", sim::SimTime::us(4)).c_str(),
      stdout);

  const power::BlockEnergy& e = sys.est->block_totals();
  double peak_arb = 0.0, peak_m2s = 0.0;
  for (const auto& w : ws.windows()) {
    peak_arb = std::max(peak_arb, power::window_power(ws, w, bench::kCycle, "arb"));
    peak_m2s = std::max(peak_m2s, power::window_power(ws, w, bench::kCycle, "m2s"));
  }
  std::printf("\npeak arbiter power: %s   peak M2S power: %s\n",
              power::format_power(peak_arb).c_str(),
              power::format_power(peak_m2s).c_str());
  std::printf("arbiter/M2S energy ratio over the window: %.4f (paper: << 1)\n",
              e.arb / e.m2s);
  if (e.arb >= e.m2s) {
    std::puts("SHAPE CHECK FAILED: arbiter should dissipate far less than M2S");
    return 1;
  }
  std::puts("SHAPE CHECK PASSED.");
  return 0;
}
