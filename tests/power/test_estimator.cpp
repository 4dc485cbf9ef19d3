// Integration tests: power estimation over the live AHB testbench, the
// three integration styles, and the windowed power series.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "ahb/ahb.hpp"
#include "campaign/system.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp::power {
namespace {

using ahb::AhbBus;

/// The paper's testbench on the seeds 11/22 plus a power estimator
/// configured per test.
struct PowerBench : campaign::System {
  explicit PowerBench(AhbPowerEstimator::Config cfg = AhbPowerEstimator::Config{})
      : campaign::System({.seeds = {11, 22}, .power = false}) {
    est = std::make_unique<AhbPowerEstimator>(&top, "power", bus, cfg);
  }

  void run_cycles(unsigned n) {
    kernel.run(campaign::kCycle * static_cast<std::int64_t>(n));
  }
};

TEST(Estimator, RequiresFinalizedBus) {
  sim::Kernel k;
  sim::Module top(nullptr, "top");
  sim::Clock clk(&top, "clk", sim::SimTime::ns(10));
  AhbBus bus(&top, "ahb", clk);
  EXPECT_THROW(AhbPowerEstimator(&top, "p", bus), sim::SimError);
}

TEST(Estimator, AccumulatesEnergyOverRun) {
  PowerBench b;
  b.run_cycles(1000);
  EXPECT_GT(b.est->total_energy(), 0.0);
  // The clock's first falling edge is at 15 ns, so a 10 us run samples
  // 999 full cycles.
  EXPECT_GE(b.est->fsm().cycles(), 999u);
}

TEST(Estimator, DisabledEstimatorAccumulatesNothing) {
  PowerBench b(AhbPowerEstimator::Config{.enabled = false});
  b.run_cycles(500);
  EXPECT_DOUBLE_EQ(b.est->total_energy(), 0.0);
  EXPECT_EQ(b.est->fsm().cycles(), 0u);
}

TEST(Estimator, ReenableMidRun) {
  PowerBench b(AhbPowerEstimator::Config{.enabled = false});
  b.run_cycles(200);
  EXPECT_EQ(b.est->fsm().cycles(), 0u);
  b.est->set_enabled(true);
  b.run_cycles(200);
  EXPECT_EQ(b.est->fsm().cycles(), 200u);
  EXPECT_GT(b.est->total_energy(), 0.0);
}

TEST(Estimator, PaperShapeDataPathDominatesArbitration) {
  // The paper's headline: ~87% of the energy in data-transfer
  // instructions with no handover, ~13% in arbitration. We require the
  // same ordering with generous margins.
  PowerBench b;
  b.run_cycles(5000);
  const double data = data_transfer_share(b.est->fsm());
  const double arb = arbitration_share(b.est->fsm());
  EXPECT_GT(data, 0.6) << format_instruction_table(b.est->fsm());
  EXPECT_LT(arb, 0.35);
  EXPECT_GT(arb, 0.0);
  EXPECT_GT(data, arb * 3);
}

TEST(Estimator, PaperShapeM2sDominatesArbiterPower) {
  PowerBench b;
  b.run_cycles(5000);
  const BlockEnergy& e = b.est->block_totals();
  EXPECT_GT(e.m2s, 10 * e.arb) << format_block_breakdown(e);
  EXPECT_GT(e.m2s, e.dec);
  EXPECT_GT(e.m2s, e.s2m);
  EXPECT_GT(e.s2m, 0.0);
  EXPECT_GT(e.dec, 0.0);
  EXPECT_GT(e.arb, 0.0);
}

TEST(Estimator, InstructionAveragesInPaperBand) {
  PowerBench b;
  b.run_cycles(5000);
  const auto& tab = b.est->fsm().instructions();
  ASSERT_TRUE(tab.count("WRITE_READ"));
  ASSERT_TRUE(tab.count("READ_WRITE"));
  for (const char* name : {"WRITE_READ", "READ_WRITE"}) {
    const double avg = tab.at(name).average();
    EXPECT_GT(avg, 2e-12) << name;
    EXPECT_LT(avg, 60e-12) << name;
  }
}

TEST(Estimator, PaperInstructionsAppear)
{
  PowerBench b;
  b.run_cycles(5000);
  const auto& tab = b.est->fsm().instructions();
  // The five instructions of the paper's Table 1:
  for (const char* name : {"IDLE_HO_IDLE_HO", "IDLE_HO_WRITE", "READ_WRITE",
                           "READ_IDLE_HO", "WRITE_READ"}) {
    EXPECT_TRUE(tab.count(name)) << "missing instruction " << name << "\n"
                                 << format_instruction_table(b.est->fsm());
  }
}

TEST(Estimator, TraceProducesWindows) {
  // The figure benches' setting: 10-cycle (100 ns) windows. Every window
  // covers whole bus cycles, the first one included.
  PowerBench b(AhbPowerEstimator::Config{.telemetry_window_cycles = 10});
  b.run_cycles(1000);  // 10 us
  b.est->flush_telemetry();
  ASSERT_NE(b.est->windows(), nullptr);
  const auto& windows = b.est->windows()->windows();
  ASSERT_GE(windows.size(), 99u);
  EXPECT_EQ(windows.front().start_tick, 0u);
  EXPECT_EQ(windows.front().ticks, 10u);
  EXPECT_EQ(b.est->windows()->tracks(),
            (std::vector<std::string>{"arb", "dec", "m2s", "s2m"}));
}

/// Every executed instruction's count and energy bits, then the total's
/// bits: equal strings mean bit-identical FSM results.
std::string instruction_bits(const PowerFsm& fsm) {
  std::string out;
  for (const auto& [name, st] : fsm.instructions()) {
    out += name + ' ' + std::to_string(st.count) + ' ' +
           std::to_string(std::bit_cast<std::uint64_t>(st.energy)) + '\n';
  }
  return out + "total " +
         std::to_string(std::bit_cast<std::uint64_t>(fsm.total_energy()));
}

TEST(Styles, LocalAndGlobalAgreeExactly) {
  // The global analyzer runs the same FSM on the same per-cycle views, so
  // the two styles must produce the identical instruction table.
  PowerBench b;
  GlobalPowerAnalyzer analyzer(
      &b.top, "analyzer",
      PowerFsm::Config{.n_masters = b.bus.n_masters(), .n_slaves = b.bus.n_slaves()});
  b.bus.attach_observer(analyzer);
  b.run_cycles(2000);
  EXPECT_GT(analyzer.total_energy(), 0.0);
  EXPECT_EQ(analyzer.fsm().cycles(), 1999u);
  EXPECT_EQ(instruction_bits(analyzer.fsm()), instruction_bits(b.est->fsm()));
}

TEST(Styles, LocalAndGlobalAgreeUnderSplitRework) {
  // SPLIT rework: a masked master that keeps requesting is no arbitration
  // work (IDLE, not IDLE_HO), which the global style sees only if its
  // view carries the split mask -- the instruction tables must match
  // entry for entry, not just in total energy.
  sim::Kernel k;
  sim::Module top(nullptr, "top");
  sim::Clock clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10));
  AhbBus bus(&top, "ahb", clk);
  ahb::DefaultMaster dm(&top, "dm", bus);
  std::vector<ahb::ScriptedMaster::Op> script;
  for (int i = 0; i < 24; ++i) {
    script.push_back({i % 2 ? ahb::ScriptedMaster::Op::Kind::kRead
                            : ahb::ScriptedMaster::Op::Kind::kWrite,
                      0x100u + 4u * static_cast<std::uint32_t>(i / 2),
                      0xC0DE0000u + static_cast<std::uint32_t>(i), 0});
  }
  ahb::ScriptedMaster m1(&top, "m1", bus, script,
                         ahb::ScriptedMaster::Options{.retry = true,
                                                      .max_retries = 8});
  ahb::TrafficMaster m2(&top, "m2", bus,
                        {.addr_base = 0x1000, .addr_range = 0x1000, .seed = 72});
  // Every 3rd transfer to s1 SPLITs; s2 stays clean. The 8-cycle resume
  // leaves m1 masked and requesting after the bus has moved on.
  ahb::MemorySlave s1(&top, "s1", bus,
                      {.base = 0x0000,
                       .size = 0x1000,
                       .fault_hook = [](const ahb::FaultQuery& q) {
                         ahb::FaultDecision d;
                         if (q.transfer_index % 3 == 1) {
                           d.resp = ahb::Resp::kSplit;
                           d.split_resume_cycles = 8;
                         }
                         return d;
                       }});
  ahb::MemorySlave s2(&top, "s2", bus, {.base = 0x1000, .size = 0x1000});
  bus.finalize();
  AhbPowerEstimator est(&top, "power", bus);
  GlobalPowerAnalyzer analyzer(
      &top, "analyzer",
      PowerFsm::Config{.n_masters = bus.n_masters(), .n_slaves = bus.n_slaves()});
  bus.attach_observer(analyzer);
  k.run(sim::SimTime::us(30));

  ASSERT_TRUE(m1.finished());
  EXPECT_GT(s1.stats().splits, 0u);
  EXPECT_EQ(instruction_bits(analyzer.fsm()), instruction_bits(est.fsm()));
}

TEST(Styles, PrivateStyleSameOrderOfMagnitude) {
  // Event-level accounting differs from cycle-level sampling (it sees
  // intra-cycle changes separately) but must land in the same ballpark
  // and preserve the M2S >> ARB ordering.
  PowerBench b;
  PrivatePowerModel priv(&b.top, "priv", b.bus);
  b.run_cycles(2000);
  EXPECT_GT(priv.total_energy(), 0.0);
  const double ratio = priv.total_energy() / b.est->total_energy();
  EXPECT_GT(ratio, 0.2);
  EXPECT_LT(ratio, 5.0);
  EXPECT_GT(priv.block_totals().m2s, priv.block_totals().arb);
  EXPECT_GT(priv.event_count(), 0u);
}

TEST(Styles, GlobalAnalyzerIsBusAgnostic) {
  // The analyzer can be driven directly, with no bus at all.
  sim::Kernel k;
  sim::Module top(nullptr, "top");
  GlobalPowerAnalyzer analyzer(&top, "an",
                               PowerFsm::Config{.n_masters = 2, .n_slaves = 2});
  CycleView v;
  v.data_active = true;
  v.data_write = true;
  v.haddr = 0xFF;
  v.hwdata = 0xFF00FF00;
  analyzer.on_cycle(v);
  analyzer.on_cycle(v);
  EXPECT_GT(analyzer.total_energy(), 0.0);
}

}  // namespace
}  // namespace ahbp::power
