// Ablation over the paper's Fig. 1 design space: the private / local /
// global power-model integration styles. Runs the same workload under
// all three, comparing reported energy (accuracy vs the cycle-level
// reference), wall-clock cost and intrusiveness proxies.

#include <chrono>
#include <cstdio>

#include "common.hpp"
#include "power/report.hpp"
#include "power/styles.hpp"

namespace {

using namespace ahbp;
using Clock = std::chrono::steady_clock;

constexpr auto kSimTime = sim::SimTime::us(100);
/// Each style's time is the fastest of this many runs. Rounds alternate
/// the style order, so no style always runs first and pays the cold
/// start (allocator, page faults, caches) for the others.
constexpr int kRounds = 5;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One timed run of a style: wall time (construction included), the
/// reported energy, and the style's own event count (0 if it has none).
struct StyleRun {
  double ms = 0.0;
  double energy = 0.0;
  std::uint64_t count = 0;
};

StyleRun run_functional() {
  const auto t0 = Clock::now();
  campaign::System sys({.power = false});
  sys.kernel.run(kSimTime);
  return {ms_since(t0), 0.0, 0};
}

StyleRun run_local() {
  const auto t0 = Clock::now();
  campaign::System sys;
  sys.kernel.run(kSimTime);
  return {ms_since(t0), sys.est->total_energy(), 0};
}

StyleRun run_global() {
  const auto t0 = Clock::now();
  campaign::System sys({.power = false});
  power::GlobalPowerAnalyzer an(&sys.top, "an",
                                power::PowerFsm::Config{
                                    .n_masters = sys.bus.n_masters(),
                                    .n_slaves = sys.bus.n_slaves()});
  sys.bus.attach_observer(an);
  sys.kernel.run(kSimTime);
  return {ms_since(t0), an.total_energy(), an.fsm().cycles()};
}

StyleRun run_private() {
  const auto t0 = Clock::now();
  campaign::System sys({.power = false});
  power::PrivatePowerModel priv(&sys.top, "priv", sys.bus);
  sys.kernel.run(kSimTime);
  return {ms_since(t0), priv.total_energy(), priv.event_count()};
}

}  // namespace

int main() {
  std::puts("=== Ablation: power-model integration styles (paper Fig. 1) ===\n");
  std::printf("workload: paper testbench, %s @ 100 MHz; time = fastest of %d"
              " runs per style, alternating order\n\n",
              kSimTime.to_string().c_str(), kRounds);

  // functional only, local, global, private. Every run of a style
  // simulates the same cycles, so only the time differs between runs.
  StyleRun (*const styles[])() = {run_functional, run_local, run_global,
                                  run_private};
  constexpr int kStyles = 4;
  StyleRun best[kStyles];
  for (int round = 0; round < kRounds; ++round) {
    for (int k = 0; k < kStyles; ++k) {
      const int i = round % 2 == 0 ? k : kStyles - 1 - k;
      const StyleRun r = styles[i]();
      if (round == 0 || r.ms < best[i].ms) best[i] = r;
    }
  }
  const double t_func = best[0].ms;
  const double e_local = best[1].energy, t_local = best[1].ms;
  const double e_global = best[2].energy, t_global = best[2].ms;
  const std::uint64_t views = best[2].count;
  const double e_priv = best[3].energy, t_priv = best[3].ms;
  const std::uint64_t events = best[3].count;

  std::printf("%-22s %12s %12s %10s %14s\n", "style", "energy", "vs local",
              "time", "vs functional");
  auto row = [&](const char* name, double e, double t, const char* note) {
    std::printf("%-22s %12s %11.1f%% %8.1f ms %12.2fx  %s\n", name,
                power::format_energy(e).c_str(),
                e_local > 0 ? 100.0 * e / e_local : 0.0, t, t / t_func, note);
  };
  std::printf("%-22s %12s %12s %8.1f ms %12.2fx\n", "functional only", "-", "-",
              t_func, 1.0);
  row("local (monitor FSM)", e_local, t_local, "(paper's choice, ~2x)");
  row("global (analyzer)", e_global, t_global, "(most reusable)");
  row("private (per-event)", e_priv, t_priv, "(most intrusive)");

  std::printf("\nglobal analyzer received %llu cycle views; private style handled"
              " %llu signal events\n",
              static_cast<unsigned long long>(views),
              static_cast<unsigned long long>(events));

  const bool agree = e_global > 0.999 * e_local && e_global < 1.001 * e_local;
  std::printf("local/global agreement: %s (identical FSM on identical samples)\n",
              agree ? "EXACT" : "MISMATCH");
  return agree ? 0 : 1;
}
