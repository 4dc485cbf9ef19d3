// Golden simulated statistics: the exact numbers two fixed cycle-accurate
// runs produce, pinned bit for bit, plus the kernel work that produces
// them. A scheduler change that reorders process activations can shift
// these without tripping any tolerance-based test, so each value is
// compared exactly (doubles by their IEEE-754 bits).

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "ahb/ahb.hpp"
#include "campaign/system.hpp"
#include "power/power.hpp"
#include "power/styles.hpp"
#include "sim/sim.hpp"

namespace ahbp {
namespace {

using campaign::kCycle;

/// Appends "<key> <%.17g> <IEEE-754 bits>\n": readable, and exact.
void put(std::string& out, const std::string& key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %.17g 0x%016" PRIx64 "\n", v,
                std::bit_cast<std::uint64_t>(v));
  out += key;
  out += buf;
}

void put(std::string& out, const std::string& key, std::uint64_t v) {
  out += key;
  out += ' ';
  out += std::to_string(v);
  out += '\n';
}

/// One line per pinned statistic of a finished run: transfers, PowerFsm
/// cycles, total and per-block joules, then per instruction its count
/// and joules.
std::string dump(const campaign::System& s) {
  const power::PowerFsm& fsm = s.est->fsm();
  const power::BlockEnergy& b = fsm.block_totals();
  std::string out;
  put(out, "transfers", s.mon->stats().transfers);
  put(out, "cycles", fsm.cycles());
  put(out, "total", s.est->total_energy());
  put(out, "arb", b.arb);
  put(out, "dec", b.dec);
  put(out, "m2s", b.m2s);
  put(out, "s2m", b.s2m);
  for (const auto& [name, st] : fsm.instructions()) {
    put(out, name, st.count);
    put(out, name, st.energy);
  }
  return out;
}

TEST(GoldenStats, PaperTestbenchTwoMastersFixedPriority) {
  campaign::System s({.monitor = true});
  s.kernel.run(kCycle * 20000);
  EXPECT_EQ(dump(s), R"(transfers 18648
cycles 19999
total 1.5072772770000233e-07 0x3e843af71d26edcd
arb 1.277369774999878e-09 0x3e15f1ee82bba8a8
dec 1.3752327599997973e-08 0x3e4d886c0ba37cca
m2s 7.9446252600005195e-08 0x3e755381419af93f
s2m 5.6251777724999294e-08 0x3e6e332f7a67083f
IDLE_HO_IDLE 582
IDLE_HO_IDLE 5.1675772499999971e-09 0x3e3631cfafa3dfae
IDLE_HO_IDLE_HO 92
IDLE_HO_IDLE_HO 8.7424920000000001e-10 0x3e0e09fa2f885ccf
IDLE_HO_WRITE 91
IDLE_HO_WRITE 1.2642745499999994e-09 0x3e15b856991b0467
IDLE_IDLE 4
IDLE_IDLE 1.0889999999999998e-13 0x3d3ea7126dfc0879
IDLE_IDLE_HO 1
IDLE_IDLE_HO 2.9947499999999999e-13 0x3d5512dcab9d45d4
IDLE_WRITE 582
IDLE_WRITE 7.9510067999999984e-09 0x3e41131cba17f650
READ_IDLE_HO 672
READ_IDLE_HO 8.6135544000000071e-09 0x3e427f5a0316e332
READ_WRITE 8651
READ_WRITE 4.8506973075001227e-08 0x3e6a0abf63bb1bc4
WRITE_READ 9324
WRITE_READ 7.8349684049996611e-08 0x3e75082637e464a7
)");
}

TEST(GoldenStats, FourMastersRoundRobinWaitStateFaults) {
  campaign::System s({.policy = ahb::ArbitrationPolicy::kRoundRobin,
                      .wait_states = 1,
                      .seeds = campaign::strided_seeds(1, 4),
                      .fault_seed = 7,
                      .monitor = true});
  s.kernel.run(kCycle * 20000);
  EXPECT_EQ(dump(s), R"(transfers 9176
cycles 19999
total 8.0103096562499933e-08 0x3e7580a493d48146
arb 1.23229878749983e-09 0x3e152bb5170d6867
dec 6.7988992499996198e-09 0x3e3d3378020fadc6
m2s 3.9244184099999244e-08 0x3e6511adf9c74749
s2m 3.2827714425001232e-08 0x3e619fce84e75a46
IDLE_HO_IDLE_HO 341
IDLE_HO_IDLE_HO 3.0803590124999977e-09 0x3e2a75c7f66d76db
IDLE_HO_WRITE 339
IDLE_HO_WRITE 4.296690337499999e-09 0x3e327442d00bd7dc
READ_IDLE_HO 338
READ_IDLE_HO 4.3941966750000022e-09 0x3e32df7868214540
READ_READ 5085
READ_READ 2.5160569087499643e-08 0x3e5b0415a6447f9a
READ_WRITE 4249
READ_WRITE 2.5318256287499203e-08 0x3e5b2f6de6540579
WRITE_READ 4588
WRITE_READ 1.6125204150000138e-08 0x3e5150765d9ad7ca
WRITE_WRITE 5059
WRITE_WRITE 1.7278210124998294e-09 0x3e1daf09845b0c5b
)");
}

TEST(GoldenStats, PrivateStyleEventCountAndEnergy) {
  // bench_ablation_styles' private-style row: 100 us of the paper
  // testbench with a per-signal-event power model instead of the FSM.
  campaign::System s({.power = false});
  power::PrivatePowerModel priv(&s.top, "priv", s.bus);
  s.kernel.run(sim::SimTime::us(100));
  std::string out;
  put(out, "events", priv.event_count());
  put(out, "energy", priv.total_energy());
  EXPECT_EQ(out, R"(events 20661
energy 7.4098990349996394e-08 0x3e73e40b39542a84
)");
}

TEST(KernelWork, PaperTestbenchExactCounts) {
  // Scheduler work is deterministic, so it is pinned as exact counts: a
  // kernel change that adds deltas or activations per cycle fails here
  // without any timing noise. The topology is the benches' SystemSpec{}.
  campaign::System s;
  s.kernel.run(kCycle * 20000);
  // Each clock edge is applied at its time advance, so the edge's
  // processes run in the instant's first delta: 3.5 deltas per cycle
  // (5.5 when every edge took a delta of its own).
  EXPECT_EQ(s.kernel.delta_count(), 69983u);
  // 13.5 activations per cycle, the two clock-driver runs included.
  EXPECT_EQ(s.kernel.stats().processes_executed, 270655u);
  // Two clock ticks per cycle, nothing else timed.
  EXPECT_EQ(s.kernel.stats().timed_notifications, 39999u);
  EXPECT_EQ(s.kernel.stats().time_advances, 39999u);
}

}  // namespace
}  // namespace ahbp
