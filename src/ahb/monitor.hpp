#pragma once
// Bus monitor: AHB protocol checker and cycle-level statistics.
//
// Passive observer on the bus's per-cycle sampler: each cycle it
// receives the settled-cycle view, checks the protocol rules -- a pure
// function of the previous and the current view -- and counts activity.

#include <cstdint>
#include <string>
#include <vector>

#include "ahb/bus.hpp"
#include "ahb/cycle_view.hpp"
#include "sim/module.hpp"
#include "telemetry/metrics.hpp"

namespace ahbp::ahb {

/// The monitor's protocol rules, one bit each in a check_rules() mask,
/// in reporting order.
enum ProtocolRule : std::uint32_t {
  kRuleOneGrant = 1u << 0,           ///< exactly one HGRANT asserted
  kRuleReadyWithoutData = 1u << 1,   ///< HREADY low needs a data phase
  kRuleRespWithoutData = 1u << 2,    ///< non-OKAY HRESP needs a data phase
  kRuleSingleCycleResp = 1u << 3,    ///< first response cycle has HREADY low
  kRuleRespChanged = 1u << 4,        ///< HRESP held over both response cycles
  kRuleRespStretched = 1u << 5,      ///< no third response cycle
  kRuleSplitMaskedGrant = 1u << 6,   ///< a split-masked master never gains the bus
  kRuleAddrChangedInWait = 1u << 7,  ///< address phase held while stalled
  kRuleSeqAfterIdle = 1u << 8,       ///< SEQ never follows IDLE
  kRuleSeqBreaksBurst = 1u << 9,     ///< SEQ continues the burst's addresses
  kRuleBusyOutsideBurst = 1u << 10,  ///< BUSY never follows IDLE
  kRuleHandoverMidTransfer = 1u << 11,  ///< handover only out of IDLE
};

/// Every rule the step from `prev` to `cur` breaks, as a ProtocolRule
/// mask; `masters` is the number of attached masters. Pure: equal
/// arguments give equal masks.
[[nodiscard]] std::uint32_t check_rules(const CycleView& prev,
                                        const CycleView& cur, unsigned masters);

/// What `rule` says went wrong in the step into `cur`.
[[nodiscard]] std::string describe_rule(ProtocolRule rule, const CycleView& cur,
                                        unsigned masters);

/// Protocol checker + statistics counter.
class BusMonitor : public sim::Module, public CycleObserver {
public:
  struct Config {
    /// Throw sim::SimError on the first violation (true) or just record
    /// it (false).
    bool fatal = true;
    /// Optional metrics sink (not owned; must outlive the monitor).
    /// Violations count into `ahb.monitor.violations`.
    telemetry::MetricsRegistry* metrics = nullptr;
  };

  /// Activity per observed cycle. The reset view counts as the first
  /// cycle, so `cycles` is one more than the views received.
  struct Stats {
    std::uint64_t cycles = 0;
    std::uint64_t transfers = 0;  ///< completed data phases
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t wait_cycles = 0;   ///< data phase stalled
    std::uint64_t idle_cycles = 0;   ///< address phase IDLE
    std::uint64_t handovers = 0;     ///< HMASTER changes
    std::uint64_t error_responses = 0;
    std::uint64_t retry_responses = 0;  ///< completed RETRY responses
    std::uint64_t split_responses = 0;  ///< completed SPLIT responses
  };

  /// The monitor may attach before or after finalize(); its previous
  /// view starts at the bus's reset values (AhbBus::reset_view()).
  BusMonitor(sim::Module* parent, std::string name, AhbBus& bus);
  BusMonitor(sim::Module* parent, std::string name, AhbBus& bus, Config cfg);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::string>& violations() const { return violations_; }

  void on_cycle(const CycleView& v) override;

private:
  /// Adds cycle `v` (preceded by prev_) to the statistics.
  void count(const CycleView& v);

  AhbBus& bus_;
  Config cfg_;
  Stats stats_;
  std::vector<std::string> violations_;
  telemetry::Counter* c_violations_ = nullptr;
  CycleView prev_;  ///< the previous view, initially the reset view
};

}  // namespace ahbp::ahb
