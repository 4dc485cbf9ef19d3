#include "ahb/monitor.hpp"

#include <bit>

#include "ahb/burst.hpp"
#include "sim/report.hpp"

namespace ahbp::ahb {

using sim::SimError;

namespace {
/// HGRANTx lines asserted among the first `masters`.
int grants(const CycleView& v, unsigned masters) {
  return std::popcount(masters >= 32 ? v.grant_vector
                                     : v.grant_vector & ((1u << masters) - 1u));
}
}  // namespace

std::uint32_t check_rules(const CycleView& prev, const CycleView& cur,
                          unsigned masters) {
  const auto htrans = static_cast<Trans>(cur.htrans);
  const auto prev_htrans = static_cast<Trans>(prev.htrans);
  const bool resp = cur.hresp != raw(Resp::kOkay);
  const bool prev_resp = prev.hresp != raw(Resp::kOkay);
  const bool handover = cur.hmaster != prev.hmaster;
  std::uint32_t fired = 0;
  const auto rule = [&fired](ProtocolRule r, bool broken) {
    if (broken) fired |= r;
  };

  rule(kRuleOneGrant, grants(cur, masters) != 1);
  // The bus must be ready, and OKAY, whenever no data phase is in flight.
  rule(kRuleReadyWithoutData, !cur.data_active && !cur.hready);
  rule(kRuleRespWithoutData, resp && !cur.data_active);
  // Two-cycle response rule: the first RETRY/ERROR/SPLIT cycle must
  // drive HREADY low (so pipelined masters can cancel the following
  // address phase); the second must keep the same HRESP and raise
  // HREADY; there is no third cycle.
  rule(kRuleSingleCycleResp, resp && !prev_resp && cur.hready);
  rule(kRuleRespChanged, prev_resp && !prev.hready && cur.hresp != prev.hresp);
  rule(kRuleRespStretched, prev_resp && !prev.hready && !cur.hready);
  // A masked master must never (re)gain the bus. The arbiter moved
  // HMASTER at the rising edge that opened `cur`, after the slaves'
  // rising-edge processes (registered before it) had applied that edge's
  // splits and resumes -- so it decided against the mask `cur` carries.
  rule(kRuleSplitMaskedGrant,
       handover && ((cur.split_vector >> cur.hmaster) & 1u) != 0);
  // The address phase is held stable while the bus is stalled.
  rule(kRuleAddrChangedInWait,
       !prev.hready && is_active(prev_htrans) &&
           (cur.haddr != prev.haddr || cur.htrans != prev.htrans ||
            cur.hwrite != prev.hwrite));
  // SEQ and BUSY only continue a burst. A SEQ beat following an accepted
  // beat continues the burst's address pattern; a SEQ after BUSY carries
  // the address the BUSY beat already showed. A SEQ after IDLE has no
  // burst to break: it is reported once, as SEQ after IDLE.
  rule(kRuleSeqAfterIdle, htrans == Trans::kSeq && prev_htrans == Trans::kIdle);
  if (htrans == Trans::kSeq && prev.hready && prev_htrans != Trans::kIdle) {
    const std::uint32_t expected =
        prev_htrans == Trans::kBusy
            ? prev.haddr
            : next_burst_addr(prev.haddr, static_cast<Burst>(prev.hburst),
                              static_cast<Size>(prev.hsize));
    rule(kRuleSeqBreaksBurst, cur.haddr != expected);
  }
  rule(kRuleBusyOutsideBurst,
       htrans == Trans::kBusy && prev_htrans == Trans::kIdle);
  // Handover is only legal out of an IDLE address phase.
  rule(kRuleHandoverMidTransfer, handover && prev_htrans != Trans::kIdle);
  return fired;
}

std::string describe_rule(ProtocolRule rule, const CycleView& cur,
                          unsigned masters) {
  const std::string resp = to_string(static_cast<Resp>(cur.hresp));
  switch (rule) {
    case kRuleOneGrant:
      return "expected exactly one HGRANT asserted, saw " +
             std::to_string(grants(cur, masters));
    case kRuleReadyWithoutData:
      return "HREADY low with no data phase in flight";
    case kRuleRespWithoutData:
      return "non-OKAY HRESP with no data phase in flight";
    case kRuleSingleCycleResp:
      return "single-cycle " + resp +
             " response (HREADY must be low on the first cycle)";
    case kRuleRespChanged:
      return "HRESP changed between the two response cycles";
    case kRuleRespStretched:
      return "two-cycle " + resp + " response stretched beyond two cycles";
    case kRuleSplitMaskedGrant:
      return "split-masked master granted the bus";
    case kRuleAddrChangedInWait:
      return "address phase changed during wait states";
    case kRuleSeqAfterIdle:
      return "SEQ transfer immediately after IDLE";
    case kRuleSeqBreaksBurst:
      return "SEQ beat breaks the burst address sequence";
    case kRuleBusyOutsideBurst:
      return "BUSY beat outside a burst";
    case kRuleHandoverMidTransfer:
      return "bus handover while the previous owner was mid-transfer";
  }
  return "unknown rule";
}

BusMonitor::BusMonitor(sim::Module* parent, std::string name, AhbBus& bus)
    : BusMonitor(parent, std::move(name), bus, Config{}) {}

BusMonitor::BusMonitor(sim::Module* parent, std::string name, AhbBus& bus, Config cfg)
    : Module(parent, std::move(name)),
      bus_(bus),
      cfg_(cfg),
      prev_(bus.reset_view()) {
  count(prev_);
  if (cfg_.metrics != nullptr) {
    c_violations_ = &cfg_.metrics->counter("ahb.monitor.violations");
  }
  bus.attach_observer(*this);
}

void BusMonitor::count(const CycleView& v) {
  const auto hresp = static_cast<Resp>(v.hresp);
  ++stats_.cycles;
  if (v.data_active && v.hready) {
    ++stats_.transfers;
    if (v.data_write) {
      ++stats_.writes;
    } else {
      ++stats_.reads;
    }
  }
  if (v.data_active && !v.hready) ++stats_.wait_cycles;
  if (static_cast<Trans>(v.htrans) == Trans::kIdle) ++stats_.idle_cycles;
  if (v.hmaster != prev_.hmaster) ++stats_.handovers;
  if (hresp == Resp::kError && v.hready) ++stats_.error_responses;
  if (hresp == Resp::kRetry && v.hready) ++stats_.retry_responses;
  if (hresp == Resp::kSplit && v.hready) ++stats_.split_responses;
}

void BusMonitor::on_cycle(const CycleView& v) {
  count(v);
  const unsigned masters = bus_.n_masters();
  if (const std::uint32_t fired = check_rules(prev_, v, masters)) {
    // Context prefix: where (cycle count, the reset cycle being cycle 1,
    // and the sampling time) and who (address-phase master, plus the
    // data-phase slave when one is in flight).
    std::string where = "cycle " + std::to_string(stats_.cycles) + " @" +
                        kernel().now().to_string() + " master " +
                        std::to_string(v.hmaster);
    if (v.data_slave != 0xFF) where += " slave " + std::to_string(v.data_slave);
    for (std::uint32_t bits = fired; bits != 0; bits &= bits - 1) {
      const auto rule = static_cast<ProtocolRule>(1u << std::countr_zero(bits));
      const std::string msg = where + ": " + describe_rule(rule, v, masters);
      violations_.push_back(msg);
      if (c_violations_ != nullptr) c_violations_->increment();
      if (cfg_.fatal) throw SimError("AHB protocol violation at " + msg);
      sim::warn("ahb-protocol", msg);
    }
  }
  prev_ = v;
}

}  // namespace ahbp::ahb
