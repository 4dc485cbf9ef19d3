#pragma once
// Dynamic power management (paper Sec. 4: the power-analysis code is
// normally excluded from synthesis "unless it is necessary to develop a
// dynamic power management for a run-time energy optimization of the
// system"). PowerGovernor is that hook made concrete: it watches the
// estimator's energy over fixed windows and asserts a throttle signal
// whenever the windowed bus power exceeds a budget. Cooperative masters
// (TrafficMaster with Config::throttle set) delay new tenures while the
// signal is high, closing the loop.

#include <cstdint>

#include "power/estimator.hpp"
#include "sim/module.hpp"
#include "sim/signal.hpp"

namespace ahbp::power {

/// Watches windowed bus power and throttles cooperative masters. It
/// observes the estimator's bus, attached after the estimator, so each
/// cycle it reads energy that already includes that cycle.
class PowerGovernor : public sim::Module, public ahb::CycleObserver {
public:
  struct Config {
    double budget_watts = 1e-3;  ///< windowed average power ceiling
    unsigned window_cycles = 32; ///< averaging window length
  };

  struct Stats {
    std::uint64_t windows = 0;
    std::uint64_t over_budget_windows = 0;
    double peak_window_power = 0.0;  ///< [W]
    double mean_window_power = 0.0;  ///< [W], running mean
  };

  PowerGovernor(sim::Module* parent, std::string name, AhbPowerEstimator& est,
                Config cfg);

  /// High while the bus must back off. Hand this to the masters.
  [[nodiscard]] sim::Signal<bool>& throttle() { return throttle_; }

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

  void on_cycle(const CycleView& v) override;

private:
  AhbPowerEstimator& est_;
  Config cfg_;
  Stats stats_;
  sim::Signal<bool> throttle_;
  double window_start_energy_ = 0.0;
  unsigned cycles_in_window_ = 0;
  double power_sum_ = 0.0;
};

}  // namespace ahbp::power
