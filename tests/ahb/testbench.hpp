#pragma once
// Shared fixture pieces for AHB tests: a kernel + clock + bus skeleton,
// and the every-Nth fault cadence hook.

#include <memory>
#include <vector>

#include "ahb/ahb.hpp"
#include "sim/sim.hpp"

namespace ahbp::ahb::test {

/// A bare system: 100 MHz clock and a bus, nothing attached yet.
/// First rising edge at 10 ns.
struct Bench {
  explicit Bench(AhbBus::Config cfg = AhbBus::Config{})
      : top(nullptr, "top"),
        clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10)),
        bus(&top, "ahb", clk, cfg) {}

  /// Runs for `cycles` bus cycles.
  void run_cycles(unsigned cycles) {
    kernel.run(sim::SimTime::ns(10) * static_cast<std::int64_t>(cycles));
  }

  sim::Kernel kernel;
  sim::Module top;
  sim::Clock clk;
  AhbBus bus;
};

/// A MemorySlave fault hook that answers every `n`-th accepted transfer
/// (the n-th, 2n-th, ...) with the two-cycle `resp` instead of completing
/// it; a SPLIT resumes `split_resume_cycles` later.
inline FaultHook fail_every(unsigned n, Resp resp = Resp::kRetry,
                            unsigned split_resume_cycles = 4) {
  return [=](const FaultQuery& q) {
    FaultDecision d;
    if ((q.transfer_index + 1) % n == 0) {
      d.resp = resp;
      d.split_resume_cycles = split_resume_cycles;
    }
    return d;
  };
}

}  // namespace ahbp::ahb::test
