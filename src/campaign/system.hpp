#pragma once
// One system description: the paper's Sec. 5 testbench and its CLI
// generalisation as plain data (SystemSpec), elaborated by System. A
// default master, one TrafficMaster per seed and `slaves` 4 KiB memory
// slaves on a 100 MHz AHB; master m targets slave m % slaves.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ahb/ahb.hpp"
#include "campaign/campaign.hpp"
#include "fault/injector.hpp"
#include "power/estimator.hpp"

namespace ahbp::campaign {

/// One bus cycle of the 100 MHz clock.
inline constexpr sim::SimTime kCycle = sim::SimTime::ns(10);

/// The paper testbench's seeds, {101, 202}.
[[nodiscard]] std::vector<std::uint64_t> paper_seeds();
/// The CLI's --seed rule: master m draws from base + 97 * m.
[[nodiscard]] std::vector<std::uint64_t> strided_seeds(std::uint64_t base,
                                                       unsigned masters);

/// A complete system as a value; SystemSpec{} is the paper testbench.
/// Every field but `metrics` determines results.
struct SystemSpec {
  ahb::ArbitrationPolicy policy = ahb::ArbitrationPolicy::kFixedPriority;
  unsigned wait_states = 0;  ///< on every slave
  unsigned slaves = 3;
  std::vector<std::uint64_t> seeds = paper_seeds();  ///< one per master
  /// Seeds 2 % RETRY, 0.5 % ERROR and 5 % jitter (1..3 waits) on every
  /// slave; no SPLIT, which TrafficMaster does not rework.
  std::optional<std::uint64_t> fault_seed = std::nullopt;
  bool monitor = false;  ///< non-fatal BusMonitor; fills transfers
  bool power = true;     ///< attach the estimator
  std::uint64_t telemetry_window_cycles = 0;  ///< estimator window; 0 = off
  bool txn_trace = false;  ///< per-master attribution
  /// Sink (not owned) for estimator, monitor and injector metrics.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// One line naming every results-determining field of `spec`, the fault
/// rate card included: equal texts mean bit-identical runs.
[[nodiscard]] std::string canonical_text(const SystemSpec& spec);

/// A SystemSpec elaborated, in member order and under the CLI's module
/// names. More modules may attach to `top` and `bus` before a run.
class System {
public:
  explicit System(const SystemSpec& spec = {});

  /// Runs `cycles` bus cycles, flushes the estimator's telemetry and
  /// reports energy, blocks, cycles and the data/arbitration shares,
  /// plus transfers when monitored and attribution when traced.
  PowerReport run(std::uint64_t cycles);

  sim::Kernel kernel;
  sim::Module top;
  sim::Clock clk;
  ahb::AhbBus bus;
  ahb::DefaultMaster dm;
  std::vector<std::unique_ptr<ahb::TrafficMaster>> masters;
  std::unique_ptr<fault::FaultInjector> injector;  ///< null without faults
  std::vector<std::unique_ptr<ahb::MemorySlave>> slaves;
  std::unique_ptr<ahb::BusMonitor> mon;           ///< null unless monitored
  std::unique_ptr<power::AhbPowerEstimator> est;  ///< null without power
};

/// Campaign spec returning System(spec).run(cycles) on the executing
/// thread. A `metrics` sink is shared by every execution.
[[nodiscard]] RunSpec run_spec(std::string name, SystemSpec spec,
                               std::uint64_t cycles);

struct SweepPoint {
  std::string name;
  SystemSpec spec;
};

/// The journal and event-log fingerprint: FNV-1a over the points' names
/// and canonical texts, the cycle count and the pool's run budget.
/// Thread count, isolation and metrics sinks leave results bit-identical
/// and are left out.
[[nodiscard]] std::uint64_t sweep_fingerprint(
    const std::vector<SweepPoint>& points, std::uint64_t cycles,
    const Campaign::Config& pool);

}  // namespace ahbp::campaign
