// Reproduces Figure 3 of the paper: total AHB power consumption during
// the first 4 us of the testbench simulation. Prints the windowed power
// series and writes fig3_total_power.csv with all sub-block series.

#include <cstdio>

#include "common.hpp"
#include "power/report.hpp"

int main() {
  using namespace ahbp;

  bench::PaperSystem sys({.telemetry_window_cycles = 10});  // 100 ns windows
  std::puts("=== Figure 3: total AHB power consumption (first 4 us) ===\n");

  sys.run(sim::SimTime::us(4));
  sys.est->flush_telemetry();

  const telemetry::WindowSeries& ws = *sys.est->windows();
  std::fputs(power::format_trace(ws, bench::kCycle, "total", sim::SimTime::us(4))
                 .c_str(),
             stdout);

  double peak = 0.0, mean = 0.0;
  for (const auto& w : ws.windows()) {
    const double p = power::window_power(ws, w, bench::kCycle, "total");
    peak = std::max(peak, p);
    mean += p;
  }
  mean /= static_cast<double>(ws.windows().size());
  std::printf("\nwindows: %zu   mean power: %s   peak power: %s\n",
              ws.windows().size(), power::format_power(mean).c_str(),
              power::format_power(peak).c_str());

  telemetry::write_window_csv_file(
      "fig3_total_power.csv", ws,
      telemetry::ExportMeta{.tick_ns = static_cast<double>(
                                bench::kCycle.nanoseconds())});
  std::puts("full series written to fig3_total_power.csv");
  return 0;
}
