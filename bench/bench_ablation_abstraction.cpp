// Ablation over the modeling abstraction level -- the paper's speed
// argument quantified: cycle-accurate kernel simulation vs the
// transaction-level (function-call) model, same workload shape, same
// power FSM. Reports wall-clock speedup and the energy-per-cycle gap.

#include <chrono>
#include <cstdio>

#include "common.hpp"
#include "power/report.hpp"
#include "tlm/tlm.hpp"

namespace {

using namespace ahbp;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kCycles = 100000;  // 1 ms of bus time @ 100 MHz
/// Each leg's time is the fastest of this many runs, legs alternating.
/// Elaboration is outside the timed region: the ratio compares
/// simulation speed, not construction cost.
constexpr int kRounds = 9;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One run of a leg: simulated-only wall time and what it simulated.
struct LegRun {
  double ms = 0.0;
  double energy = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t transfers = 0;
};

LegRun run_cycle_accurate() {
  bench::PaperSystem sys;
  const auto t0 = Clock::now();
  sys.run(sim::SimTime::us(1000));
  LegRun r;
  r.ms = ms_since(t0);
  r.energy = sys.est->total_energy();
  r.cycles = sys.est->fsm().cycles();
  r.transfers = sys.m1.stats().writes + sys.m1.stats().reads +
                sys.m2.stats().writes + sys.m2.stats().reads;
  return r;
}

LegRun run_transaction_level() {
  tlm::TlmBus bus(tlm::TlmBus::Config{.n_masters = 3});
  tlm::TlmMemory m1, m2, m3;
  bus.map(m1, 0x0000, 0x1000);
  bus.map(m2, 0x1000, 0x1000);
  bus.map(m3, 0x2000, 0x1000);
  tlm::TlmTrafficRunner r1(bus, 1,
                           {.addr_base = 0x0000, .addr_range = 0x1000, .seed = 101});
  tlm::TlmTrafficRunner r2(bus, 2,
                           {.addr_base = 0x1000, .addr_range = 0x1000, .seed = 202});
  const auto t0 = Clock::now();
  // Interleave tenures in cycle-sized slices, mimicking arbitration.
  std::uint64_t next = 2000;
  while (bus.cycles() < kCycles) {
    r1.run_until(std::min<std::uint64_t>(next, kCycles));
    r2.run_until(std::min<std::uint64_t>(next + 2000, kCycles));
    next += 4000;
  }
  LegRun r;
  r.ms = ms_since(t0);
  r.energy = bus.total_energy();
  r.cycles = bus.cycles();
  r.transfers = bus.transfers();
  return r;
}

}  // namespace

int main() {
  std::puts("=== Ablation: abstraction level (cycle-accurate vs TLM) ===\n");
  std::printf("wall time = fastest of %d runs per model, set-up excluded\n\n",
              kRounds);

  // Every run of a leg simulates the same cycles; keep the fastest.
  LegRun ca, tl;
  for (int round = 0; round < kRounds; ++round) {
    LegRun c, t;
    if (round % 2 == 0) {
      c = run_cycle_accurate();
      t = run_transaction_level();
    } else {
      t = run_transaction_level();
      c = run_cycle_accurate();
    }
    if (round == 0 || c.ms < ca.ms) ca = c;
    if (round == 0 || t.ms < tl.ms) tl = t;
  }

  const double ca_epc = ca.energy / static_cast<double>(ca.cycles);
  const double tlm_epc = tl.energy / static_cast<double>(tl.cycles);

  std::printf("%-18s %12s %12s %12s %14s\n", "model", "wall time", "cycles",
              "transfers", "energy/cycle");
  std::printf("%-18s %9.1f ms %12llu %12llu %14s\n", "cycle-accurate", ca.ms,
              static_cast<unsigned long long>(ca.cycles),
              static_cast<unsigned long long>(ca.transfers),
              power::format_energy(ca_epc).c_str());
  std::printf("%-18s %9.1f ms %12llu %12llu %14s\n", "transaction-level", tl.ms,
              static_cast<unsigned long long>(tl.cycles),
              static_cast<unsigned long long>(tl.transfers),
              power::format_energy(tlm_epc).c_str());
  std::printf("\nspeedup: %.1fx   energy/cycle ratio (tlm/ca): %.2f\n",
              ca.ms / tl.ms, tlm_epc / ca_epc);
  std::puts("\nthe paper's abstraction ladder, quantified: each level up trades");
  std::puts("signal-accurate activity for orders-of-magnitude simulation speed");
  std::puts("while the instruction-level energy stays in the same band.");

  const bool ok = ca.ms / tl.ms > 5.0 && tlm_epc / ca_epc > 0.3 &&
                  tlm_epc / ca_epc < 3.0;
  if (!ok) {
    std::puts("ABSTRACTION CHECK FAILED");
    return 1;
  }
  std::puts("ABSTRACTION CHECK PASSED.");
  return 0;
}
