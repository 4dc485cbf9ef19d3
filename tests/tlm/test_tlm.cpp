// Tests for the transaction-level model: functional behaviour, cycle
// accounting, and power-FSM agreement with the cycle-accurate model.

#include "tlm/tlm.hpp"

#include <gtest/gtest.h>

#include <random>

#include "ahb/ahb.hpp"
#include "campaign/system.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace ahbp::tlm {
namespace {

TEST(TlmMemory, ReadWritePeekPoke) {
  TlmMemory mem;
  std::uint32_t v = 1;
  EXPECT_EQ(mem.read(0x10, v), 0u);
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(mem.write(0x10, 0xABCD), 0u);
  mem.read(0x10, v);
  EXPECT_EQ(v, 0xABCDu);
  mem.poke(0x20, 7);
  EXPECT_EQ(mem.peek(0x20), 7u);
}

TEST(TlmMemory, WaitStatesReported) {
  TlmMemory mem(3);
  std::uint32_t v;
  EXPECT_EQ(mem.read(0, v), 3u);
  EXPECT_EQ(mem.write(0, 1), 3u);
}

TEST(TlmBus, MapRejectsOverlap) {
  TlmBus bus({});
  TlmMemory a, b;
  bus.map(a, 0x0000, 0x1000);
  EXPECT_THROW(bus.map(b, 0x0800, 0x1000), sim::SimError);
  EXPECT_THROW(bus.map(b, 0x2000, 0), sim::SimError);
  EXPECT_NO_THROW(bus.map(b, 0x1000, 0x1000));
}

TEST(TlmBus, TransfersRouteAndCount) {
  TlmBus bus({});
  TlmMemory a, b;
  bus.map(a, 0x0000, 0x1000);
  bus.map(b, 0x1000, 0x1000);
  bus.write(0, 0x0010, 0xAA);
  bus.write(1, 0x1010, 0xBB);
  std::uint32_t v = 0;
  bus.read(0, 0x0010, v);
  EXPECT_EQ(v, 0xAAu);
  bus.read(1, 0x1010, v);
  EXPECT_EQ(v, 0xBBu);
  EXPECT_EQ(a.peek(0x10), 0xAAu);
  EXPECT_EQ(b.peek(0x10), 0xBBu);
  EXPECT_EQ(bus.transfers(), 4u);
  EXPECT_EQ(bus.cycles(), 4u);
}

TEST(TlmBus, UnmappedAccessErrors) {
  TlmBus bus({});
  TlmMemory a;
  bus.map(a, 0, 0x100);
  std::uint32_t v;
  EXPECT_FALSE(bus.read(0, 0x9999, v));
  EXPECT_FALSE(bus.write(0, 0x9999, 1));
  EXPECT_EQ(bus.errors(), 2u);
}

TEST(TlmBus, WaitStatesConsumeCycles) {
  TlmBus bus({});
  TlmMemory slow(2);
  bus.map(slow, 0, 0x100);
  bus.write(0, 0, 1);
  EXPECT_EQ(bus.cycles(), 3u);  // 2 waits + 1 completion
}

TEST(TlmBus, IdleCyclesFeedThePowerFsm) {
  TlmBus bus({});
  TlmMemory a;
  bus.map(a, 0, 0x100);
  bus.idle(10);
  EXPECT_EQ(bus.cycles(), 10u);
  EXPECT_EQ(bus.fsm().cycles(), 10u);
  // Idle cycles still clock the arbiter model: tiny but non-zero energy.
  EXPECT_GT(bus.total_energy(), 0.0);
  EXPECT_LT(bus.total_energy(), 1e-12);
}

TEST(TlmBus, EnergyGrowsWithPayloadActivity) {
  auto run = [](std::uint32_t pattern) {
    TlmBus bus({});
    TlmMemory a;
    bus.map(a, 0, 0x1000);
    for (int i = 0; i < 100; ++i) {
      bus.write(0, 0x10, i % 2 == 0 ? pattern : 0u);
    }
    return bus.total_energy();
  };
  EXPECT_GT(run(0xFFFFFFFF), run(0x00000001));
}

TEST(TlmRunner, ReadsBackWhatItWrote) {
  TlmBus bus({});
  TlmMemory a;
  bus.map(a, 0, 0x1000);
  TlmTrafficRunner runner(bus, 1, {.addr_base = 0, .addr_range = 0x1000, .seed = 3});
  runner.run_until(5000);
  EXPECT_GT(runner.writes(), 100u);
  EXPECT_EQ(runner.writes(), runner.reads());
  EXPECT_EQ(runner.mismatches(), 0u);
}

TEST(TlmRunner, RejectsBadConfigs) {
  // Each of these once reached `rng() % 0` (SIGFPE) or wrapped a bound.
  TlmBus bus({});
  using C = TlmTrafficRunner::Config;
  EXPECT_THROW(TlmTrafficRunner(bus, 1, C{.addr_range = 2}), sim::SimError);
  EXPECT_THROW(TlmTrafficRunner(bus, 1, C{.addr_range = 0}), sim::SimError);
  EXPECT_THROW(TlmTrafficRunner(bus, 1, C{.min_idle_cycles = 5, .max_idle_cycles = 4}),
               sim::SimError);
  EXPECT_THROW(TlmTrafficRunner(bus, 1, C{.min_idle_cycles = 0}), sim::SimError);
  EXPECT_THROW(TlmTrafficRunner(bus, 1, C{.min_pairs = 9, .max_pairs = 8}),
               sim::SimError);
  EXPECT_THROW(TlmTrafficRunner(bus, 1, C{.min_pairs = 0}), sim::SimError);
  EXPECT_NO_THROW(TlmTrafficRunner(bus, 1, C{.addr_range = 4}));
}

TEST(TrafficPattern, DrawsTheTenureSequence) {
  // Both abstraction levels consume this sequence of a raw mt19937_64:
  // idle count, pair count, then address and data per pair.
  ahb::TrafficPattern pattern({.addr_base = 0x1000, .addr_range = 0x1000, .seed = 202});
  std::mt19937_64 rng(202);
  for (int tenure = 0; tenure < 50; ++tenure) {
    EXPECT_EQ(pattern.idle_cycles(), 1 + rng() % 8);
    const unsigned pairs = 4 + static_cast<unsigned>(rng() % 21);
    ASSERT_EQ(pattern.pairs(), pairs);
    for (unsigned p = 0; p < pairs; ++p) {
      const std::uint32_t addr =
          0x1000 + 4 * static_cast<std::uint32_t>(rng() % 0x400);
      const ahb::TrafficPattern::Pair pair = pattern.pair();
      EXPECT_EQ(pair.addr, addr);
      EXPECT_EQ(pair.data, static_cast<std::uint32_t>(rng()));
    }
  }
}

TEST(TlmVsCycleAccurate, EnergyPerCycleAgrees) {
  // The same workload shape on both abstraction levels must land within
  // a modest factor in energy per cycle (the TLM folds away intra-
  // transfer signal detail, so exact agreement is not expected).
  // --- TLM ---
  TlmBus tlm_bus(TlmBus::Config{.n_masters = 3});
  TlmMemory m1, m2;
  tlm_bus.map(m1, 0x0000, 0x1000);
  tlm_bus.map(m2, 0x1000, 0x1000);
  TlmTrafficRunner r1(tlm_bus, 1,
                      {.addr_base = 0x0000, .addr_range = 0x1000, .seed = 101});
  TlmTrafficRunner r2(tlm_bus, 2,
                      {.addr_base = 0x1000, .addr_range = 0x1000, .seed = 202});
  r1.run_until(2500);
  r2.run_until(5000);
  const double tlm_epc =
      tlm_bus.total_energy() / static_cast<double>(tlm_bus.cycles());

  // --- cycle-accurate ---
  double ca_epc = 0.0;
  {
    campaign::System sys({.slaves = 2});
    sys.kernel.run(sim::SimTime::us(50));
    ca_epc = sys.est->total_energy() / static_cast<double>(sys.est->fsm().cycles());
  }

  const double ratio = tlm_epc / ca_epc;
  EXPECT_GT(ratio, 0.4) << "tlm " << tlm_epc << " vs ca " << ca_epc;
  EXPECT_LT(ratio, 2.5) << "tlm " << tlm_epc << " vs ca " << ca_epc;
}

}  // namespace
}  // namespace ahbp::tlm
