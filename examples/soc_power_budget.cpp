// A complete SoC built from every piece of the library: AHB with CPU-
// and DMA-class masters, memory slaves, an APB subsystem (register file
// + timer behind the bridge), hierarchical power analysis on both buses,
// and a DPM governor enforcing a system power budget.
//
// This is the "full AMBA system" of the paper's Sec. 5 background
// picture: high-performance bus for CPU/memory/DMA, bridged APB for
// peripherals -- with the power dimension visible end to end.

#include <cstdio>

#include "ahb/ahb.hpp"
#include "apb/apb.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

int main() {
  using namespace ahbp;

  sim::Kernel kernel;
  sim::Module top(nullptr, "top");
  sim::Clock clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10));

  // --- AHB: the high-performance system bus ------------------------------
  ahb::AhbBus bus(&top, "ahb", clk);
  ahb::DefaultMaster dm(&top, "default_master", bus);
  ahb::TrafficMaster cpu(&top, "cpu", bus,
                         {.addr_base = 0x0000, .addr_range = 0x2000, .seed = 5});
  ahb::BurstMaster dma(&top, "dma", bus,
                       {.addr_base = 0x2000,
                        .addr_range = 0x1000,
                        .burst = ahb::Burst::kIncr8,
                        .busy_percent = 10,
                        .seed = 6});
  ahb::MemorySlave sram(&top, "sram", bus, {.base = 0x0000, .size = 0x2000});
  ahb::MemorySlave dram(&top, "dram", bus,
                        {.base = 0x2000, .size = 0x1000, .wait_states = 1});

  // --- APB: the peripheral bus behind the bridge -------------------------
  apb::AhbToApbBridge bridge(&top, "apb_bridge", bus,
                             {.base = 0x8000, .size = 0x1000});
  apb::ApbRegisterFile sysregs(&top, "sysregs", bridge, 0x000, 0x100);
  apb::ApbTimer timer(&top, "timer", bridge, 0x100);

  // A housekeeping master that programs the timer via the bridge and
  // polls it now and then.
  ahb::ScriptedMaster housekeeping(
      &top, "housekeeping", bus,
      {
          {ahb::ScriptedMaster::Op::Kind::kWrite, 0x8100 + apb::ApbTimer::kCompare, 2000, 0},
          {ahb::ScriptedMaster::Op::Kind::kWrite, 0x8100 + apb::ApbTimer::kCtrl, 3, 0},
          {ahb::ScriptedMaster::Op::Kind::kIdle, 0, 0, 3000},
          {ahb::ScriptedMaster::Op::Kind::kRead, 0x8100 + apb::ApbTimer::kStatus, 0, 0},
          {ahb::ScriptedMaster::Op::Kind::kRead, 0x8100 + apb::ApbTimer::kCount, 0, 0},
      });

  bus.finalize();
  bridge.finalize();

  // --- observers: protocol, power (both buses), governor -----------------
  ahb::BusMonitor monitor(&top, "monitor", bus);
  power::AhbPowerEstimator ahb_power(
      &top, "ahb_power", bus,
      power::AhbPowerEstimator::Config{.txn_trace = true});  // attribution
  apb::ApbPowerMonitor apb_power(&top, "apb_power", bridge);
  power::PowerGovernor governor(
      &top, "governor", ahb_power,
      power::PowerGovernor::Config{.budget_watts = 0.9e-3, .window_cycles = 64});
  cpu.set_throttle(&governor.throttle());

  kernel.run(sim::SimTime::us(100));
  ahb_power.flush_telemetry();

  // --- the system power picture -------------------------------------------
  std::puts("=== SoC with power budget: 100 us @ 100 MHz ===\n");
  std::printf("cpu    : %llu transfers (%llu throttled cycles)\n",
              static_cast<unsigned long long>(cpu.stats().writes + cpu.stats().reads),
              static_cast<unsigned long long>(cpu.stats().throttled_cycles));
  std::printf("dma    : %llu beats in %llu bursts\n",
              static_cast<unsigned long long>(dma.stats().write_beats +
                                              dma.stats().read_beats),
              static_cast<unsigned long long>(dma.stats().bursts));
  std::printf("apb    : %llu writes, %llu reads through the bridge; timer=%u%s\n",
              static_cast<unsigned long long>(bridge.stats().apb_writes),
              static_cast<unsigned long long>(bridge.stats().apb_reads),
              timer.count(), timer.matched() ? " (compare matched)" : "");
  std::printf("checks : %zu protocol violations, %llu read mismatches\n\n",
              monitor.violations().size(),
              static_cast<unsigned long long>(cpu.stats().read_mismatches +
                                              dma.stats().read_mismatches));

  std::fputs(power::format_instruction_table(ahb_power.fsm()).c_str(), stdout);
  std::putchar('\n');
  std::fputs(power::format_block_breakdown(ahb_power.block_totals()).c_str(), stdout);
  std::putchar('\n');
  std::fputs(power::format_master_attribution(
                 ahb_power.txn_tracer()->attribution(),
                 {"default", "cpu", "dma", "housekeeping"})
                 .c_str(),
             stdout);

  const double secs = kernel.now().to_seconds();
  // Whole-system roll-up: bus fabrics + memory cores (instruction-based
  // memory models in the style of the paper's ref [4]).
  const gate::Technology tech;
  power::MemoryEnergyModel sram_model(0x2000, tech), dram_model(0x1000, tech);
  power::SystemPowerSummary system;
  system.add("AHB fabric", ahb_power.total_energy());
  system.add("APB subsystem", apb_power.total_energy());
  system.add("sram", sram_model.total(sram.stats(), ahb_power.fsm().cycles()));
  system.add("dram", dram_model.total(dram.stats(), ahb_power.fsm().cycles()));
  std::putchar('\n');
  std::fputs(system.format(secs).c_str(), stdout);
  std::printf("governor  : %llu/%llu windows over the %s budget, peak %s\n",
              static_cast<unsigned long long>(governor.stats().over_budget_windows),
              static_cast<unsigned long long>(governor.stats().windows),
              power::format_power(governor.config().budget_watts).c_str(),
              power::format_power(governor.stats().peak_window_power).c_str());
  return 0;
}
