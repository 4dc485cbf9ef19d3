// The monitor's protocol rules as a pure function of (previous view,
// current view, masters): per rule one hand-built violating pair that
// fires exactly that rule, and one clean neighbouring pair that fires
// nothing. Plus the context prefix of a violation caught on a live bus.

#include "ahb/monitor.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ahb/ahb.hpp"
#include "testbench.hpp"

namespace ahbp::ahb {
namespace {

constexpr unsigned kMasters = 3;

/// Master 1 owns the bus and is granted; IDLE, ready, OKAY, no data phase.
CycleView idle() {
  CycleView v;
  v.hmaster = 1;
  v.grant_vector = 1u << 1;
  return v;
}

/// Master 1's NONSEQ INCR4 word address phase at `addr`, with the data
/// phase of an earlier transfer in flight.
CycleView busy(std::uint32_t addr) {
  CycleView v = idle();
  v.haddr = addr;
  v.htrans = raw(Trans::kNonSeq);
  v.hburst = raw(Burst::kIncr4);
  v.hsize = raw(Size::kWord);
  v.data_active = true;
  return v;
}

/// `v` in the given response cycle: `resp` with HREADY `ready`.
CycleView respond(CycleView v, Resp resp, bool ready) {
  v.hresp = raw(resp);
  v.hready = ready;
  return v;
}

/// `v` with master `m` owning and granted.
CycleView owned_by(CycleView v, std::uint8_t m) {
  v.hmaster = m;
  v.grant_vector = 1u << m;
  return v;
}

CycleView with_trans(CycleView v, Trans t, std::uint32_t addr) {
  v.htrans = raw(t);
  v.haddr = addr;
  return v;
}

struct RuleCase {
  ProtocolRule rule;
  CycleView prev, cur;              ///< fires exactly `rule`
  CycleView clean_prev, clean_cur;  ///< the nearest legal step
};

std::vector<RuleCase> cases() {
  CycleView two_grants = idle();
  two_grants.grant_vector = 0b011;
  CycleView stalled_idle = idle();
  stalled_idle.hready = false;
  CycleView stalled_data = stalled_idle;
  stalled_data.data_active = true;
  const CycleView err1 = respond(busy(0x100), Resp::kError, false);
  CycleView err2_no_data = respond(busy(0x100), Resp::kError, true);
  err2_no_data.data_active = false;
  CycleView masked_grant = owned_by(idle(), 2);
  masked_grant.split_vector = 1u << 2;
  CycleView mask_before_resume = idle();
  mask_before_resume.split_vector = 1u << 2;
  CycleView wait1 = busy(0x200);
  wait1.hready = false;
  CycleView wait2_moved = busy(0x300);
  wait2_moved.hready = false;
  CycleView wait2_held = busy(0x200);
  wait2_held.hready = false;

  return {
      {kRuleOneGrant, idle(), two_grants, idle(), idle()},
      {kRuleReadyWithoutData, idle(), stalled_idle, idle(), stalled_data},
      {kRuleRespWithoutData, err1, err2_no_data, err1,
       respond(busy(0x100), Resp::kError, true)},
      {kRuleSingleCycleResp, busy(0x100),
       respond(busy(0x100), Resp::kError, true), busy(0x100), err1},
      {kRuleRespChanged, err1, respond(busy(0x100), Resp::kRetry, true), err1,
       respond(busy(0x100), Resp::kError, true)},
      {kRuleRespStretched, err1, err1, err1,
       respond(busy(0x100), Resp::kError, true)},
      // The arbiter decides against the mask the current view carries: a
      // master resumed at this rising edge may be granted at it.
      {kRuleSplitMaskedGrant, idle(), masked_grant, mask_before_resume,
       owned_by(idle(), 2)},
      {kRuleAddrChangedInWait, wait1, wait2_moved, wait1, wait2_held},
      {kRuleSeqAfterIdle, idle(), with_trans(idle(), Trans::kSeq, 0), idle(),
       with_trans(idle(), Trans::kNonSeq, 0)},
      // Reported once, not also as a broken burst at the IDLE's address.
      {kRuleSeqAfterIdle, with_trans(idle(), Trans::kIdle, 0x100),
       with_trans(idle(), Trans::kSeq, 0x200), with_trans(idle(), Trans::kIdle, 0x100),
       with_trans(idle(), Trans::kNonSeq, 0x200)},
      {kRuleSeqBreaksBurst, busy(0x100), with_trans(busy(0), Trans::kSeq, 0x108),
       busy(0x100), with_trans(busy(0), Trans::kSeq, 0x104)},
      {kRuleBusyOutsideBurst, idle(), with_trans(idle(), Trans::kBusy, 0),
       busy(0x100), with_trans(busy(0x100), Trans::kBusy, 0x100)},
      {kRuleHandoverMidTransfer, busy(0x100), owned_by(idle(), 2), idle(),
       owned_by(idle(), 2)},
  };
}

TEST(MonitorRules, EachViolatingPairFiresExactlyItsRule) {
  std::uint32_t covered = 0;
  for (const RuleCase& c : cases()) {
    EXPECT_EQ(check_rules(c.prev, c.cur, kMasters), c.rule)
        << describe_rule(c.rule, c.cur, kMasters);
    covered |= c.rule;
  }
  // Every rule has a case.
  EXPECT_EQ(covered, (kRuleHandoverMidTransfer << 1) - 1);
}

TEST(MonitorRules, CleanNeighbouringPairsFireNothing) {
  for (const RuleCase& c : cases()) {
    EXPECT_EQ(check_rules(c.clean_prev, c.clean_cur, kMasters), 0u)
        << describe_rule(c.rule, c.clean_cur, kMasters);
  }
}

TEST(MonitorRules, GrantCountOnlySeesAttachedMasters) {
  CycleView v = idle();
  v.grant_vector |= 1u << kMasters;  // no such master
  EXPECT_EQ(check_rules(idle(), v, kMasters), 0u);
  v.grant_vector |= 1u << 2;
  EXPECT_EQ(check_rules(idle(), v, kMasters), kRuleOneGrant);
  EXPECT_EQ(describe_rule(kRuleOneGrant, v, kMasters),
            "expected exactly one HGRANT asserted, saw 2");
}

/// A master that starts a burst with SEQ (illegal), as in test_monitor.
struct SeqFirstMaster : AhbMaster {
  SeqFirstMaster(sim::Module* p, AhbBus& bus)
      : AhbMaster(p, "seqfirst", bus),
        thread_(this, "t", [this] { return body(); }) {}
  sim::Task body() {
    sim::Event& edge = clock().posedge_event();
    sig_.hbusreq.write(true);
    do {
      co_await wait(edge);
    } while (!(granted() && bus_signals().hready.read()));
    sig_.htrans.write(raw(Trans::kSeq));
    sig_.haddr.write(0x10);
    co_await wait(edge);
    co_await wait(edge);
    sig_.htrans.write(raw(Trans::kIdle));
    sig_.hbusreq.write(false);
  }
  sim::Thread thread_;
};

TEST(MonitorRules, InjectedViolationPrefix) {
  // The reset cycle counts as cycle 1, so the view sampled at the falling
  // edge of the k-th clocked cycle is cycle k+1; with the first rising
  // edge at 10 ns, that falling edge is at (10 k + 5) ns. The SEQ lands in
  // the first clocked cycle: cycle 2, sampled at 15 ns.
  test::Bench b;
  SeqFirstMaster bad(&b.top, b.bus);
  MemorySlave mem(&b.top, "mem", b.bus, {.base = 0, .size = 0x1000});
  b.bus.finalize();
  BusMonitor mon(&b.top, "mon", b.bus, BusMonitor::Config{.fatal = false});
  b.run_cycles(20);
  ASSERT_FALSE(mon.violations().empty());
  EXPECT_EQ(mon.violations()[0],
            "cycle 2 @15 ns master 0: SEQ transfer immediately after IDLE");
}

}  // namespace
}  // namespace ahbp::ahb
