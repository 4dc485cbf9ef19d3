#pragma once
// AHB bus masters: the abstract base, the paper's traffic-generating
// master (WRITE-READ non-interruptible sequences + IDLE), the default
// master, and a scripted master for directed tests.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ahb/signals.hpp"
#include "ahb/traffic.hpp"
#include "sim/clock.hpp"
#include "sim/module.hpp"
#include "sim/process.hpp"

namespace ahbp::ahb {

class AhbBus;

/// Base class for bus masters: owns the outgoing signal bundle and the
/// attachment to the bus.
class AhbMaster : public sim::Module {
public:
  AhbMaster(sim::Module* parent, std::string name, AhbBus& bus);

  [[nodiscard]] MasterSignals& signals() { return sig_; }
  [[nodiscard]] unsigned index() const { return index_; }

protected:
  /// True when this master owns the bus (HGRANT asserted).
  [[nodiscard]] bool granted() const;
  /// The shared bus signals (read-only use intended).
  [[nodiscard]] BusSignals& bus_signals() const;
  /// The bus clock.
  [[nodiscard]] sim::Clock& clock() const;

  AhbBus& bus_;
  MasterSignals sig_;
  unsigned index_;
};

/// The paper's testbench master.
///
/// Forever: IDLE for a random number of cycles, then request the bus and
/// run a random number of non-interruptible WRITE-READ pairs (write a
/// random word, read it back, verify), then release. Handover can only
/// happen while it idles, exactly as in the paper's testbench.
class TrafficMaster final : public AhbMaster {
public:
  using Config = TrafficConfig;

  struct Stats {
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t read_mismatches = 0;  ///< read-back value != written value
    std::uint64_t error_responses = 0;
    std::uint64_t sequences = 0;  ///< bus tenures completed
    std::uint64_t throttled_cycles = 0;  ///< cycles stalled by DPM throttle
  };

  TrafficMaster(sim::Module* parent, std::string name, AhbBus& bus, Config cfg);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Optional cooperative throttle (see power::PowerGovernor): while the
  /// signal is high the master delays its next bus tenure. Bound late:
  /// the governor is typically built after the bus is finalized.
  void set_throttle(sim::Signal<bool>* throttle) { throttle_ = throttle; }

private:
  sim::Task body();

  TrafficPattern pattern_;
  sim::Signal<bool>* throttle_ = nullptr;
  Stats stats_;
  sim::Thread thread_;
};

/// The "simple default master": drives IDLE forever and never requests
/// the bus. It is granted whenever nobody else wants the bus.
class DefaultMaster final : public AhbMaster {
public:
  DefaultMaster(sim::Module* parent, std::string name, AhbBus& bus);
  // No process needed: the signal bundle's reset values are exactly the
  // IDLE pattern, and they are never changed.
};

/// A master driven by an explicit list of operations -- the workhorse of
/// the protocol unit tests.
class ScriptedMaster final : public AhbMaster {
public:
  struct Op {
    enum class Kind { kWrite, kRead, kIdle } kind = Kind::kIdle;
    std::uint32_t addr = 0;
    std::uint32_t data = 0;      ///< write value
    unsigned idle_cycles = 1;    ///< for kIdle
  };

  struct Result {
    std::uint32_t addr = 0;
    bool write = false;
    std::uint32_t data = 0;  ///< data written or read
    Resp resp = Resp::kOkay;
  };

  struct Options {
    /// Re-issue transfers that receive a RETRY or SPLIT response.
    /// Retrying masters run their transfers serialized (one in flight)
    /// so a re-issued transfer has no pipelined successor to cancel.
    /// After a SPLIT the master is masked at the arbiter; the re-issue
    /// waits for the re-grant (the HSPLITx resume).
    bool retry = false;
    unsigned max_retries = 8;  ///< per transfer; then the response is recorded
  };

  ScriptedMaster(sim::Module* parent, std::string name, AhbBus& bus,
                 std::vector<Op> script);
  ScriptedMaster(sim::Module* parent, std::string name, AhbBus& bus,
                 std::vector<Op> script, Options opts);

  /// One entry per completed kWrite/kRead op, in script order.
  [[nodiscard]] const std::vector<Result>& results() const { return results_; }
  [[nodiscard]] bool finished() const { return thread_.done(); }
  /// Number of RETRY/SPLIT-triggered re-issues performed.
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Number of SPLIT responses absorbed (subset of retries()).
  [[nodiscard]] std::uint64_t splits() const { return splits_; }

private:
  sim::Task body();

  std::vector<Op> script_;
  Options opts_;
  std::vector<Result> results_;
  std::uint64_t retries_ = 0;
  std::uint64_t splits_ = 0;
  sim::Thread thread_;
};

}  // namespace ahbp::ahb
