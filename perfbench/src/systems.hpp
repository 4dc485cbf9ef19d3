#pragma once
// The simulated systems the benchmark drives, built only through the
// simulator's public API.
//
// CaSystem is the cycle-accurate topology of `ahbpower_cli` (the paper's
// Sec. 5 testbench by default: two TrafficMasters, the default master
// and three MemorySlaves at 100 MHz), with each instrumentation layer
// switchable so the traced run can climb the layer ladder one rung at a
// time. TlmSystem is the transaction-level model with the same seeds and
// address map.

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ahb/ahb.hpp"
#include "harness.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"
#include "telemetry/telemetry.hpp"
#include "tlm/tlm.hpp"

namespace perfbench {

namespace ahb = ahbp::ahb;
namespace power = ahbp::power;

/// Bus clock period [ns] (100 MHz).
constexpr std::int64_t kClockNs = 10;

/// Seed of master `m` (0-based) for benchmark seed `seed`: the CLI's
/// rule, so `paper_ca` with seed N is `ahbpower_cli --seed N`.
[[nodiscard]] constexpr std::uint64_t master_seed(std::uint64_t seed,
                                                  unsigned m) {
  return seed + 97 * static_cast<std::uint64_t>(m);
}

/// MemorySlaves of every cycle-accurate system (the paper testbench's).
constexpr unsigned kSlaves = 3;

struct CaOptions {
  unsigned masters = 2;
  unsigned waits = 0;
  ahb::ArbitrationPolicy policy = ahb::ArbitrationPolicy::kFixedPriority;
  std::uint64_t seed = 1;
  /// Layer switches, in ladder order.
  bool monitor = true;
  bool estimator = true;
  /// Metrics registry for monitor and estimator (the CLI's --telemetry).
  bool metrics = false;
  /// Telemetry window in bus cycles (0 = off).
  std::uint64_t window_cycles = 0;
  bool txn_trace = false;
  /// Benchmark-owned negedge process recording every cycle's
  /// AhbPowerEstimator::sample_view() for replay (needs the estimator).
  bool record_views = false;
};

/// One elaborated cycle-accurate system. Construction is the benchmark's
/// set-up: kernel, modules, bus.finalize() and the attached monitors.
class CaSystem {
public:
  explicit CaSystem(const CaOptions& o);
  CaSystem(const CaSystem&) = delete;
  CaSystem& operator=(const CaSystem&) = delete;

  /// Simulates `n` more bus cycles (one Kernel::run call).
  void run_cycles(std::uint64_t n);
  /// Bus cycles the power FSM has sampled (0 without an estimator).
  [[nodiscard]] std::uint64_t sampled_cycles() const;
  /// Read-back mismatches over every traffic master.
  [[nodiscard]] std::uint64_t read_mismatches() const;

  const CaOptions opts;
  ahbp::sim::Kernel kernel;
  std::unique_ptr<ahbp::telemetry::MetricsRegistry> metrics;
  ahbp::sim::Module top;
  ahbp::sim::Clock clk;
  ahb::AhbBus bus;
  ahb::DefaultMaster dm;
  std::vector<std::unique_ptr<ahb::TrafficMaster>> masters;
  std::vector<std::unique_ptr<ahb::MemorySlave>> slaves;
  std::unique_ptr<ahb::BusMonitor> monitor;
  std::unique_ptr<power::AhbPowerEstimator> est;
  std::vector<power::CycleView> views;

private:
  std::unique_ptr<ahbp::sim::Method> recorder_;
};

/// The paper_ca CycleView stream of seed `seed`, recorded over `cycles`
/// bus cycles by the benchmark-owned negedge process, and a fresh
/// PowerFsm stepped through it.
struct Replay {
  std::vector<power::CycleView> views;
  /// Per-cycle block energies of the replayed PowerFsm, as the
  /// downstream per-cycle layers consume them.
  std::vector<power::BlockEnergy> blocks;
  power::PowerFsm::Config fsm_config;
  double live_energy_j = 0.0;
  unsigned n_masters = 0;
  unsigned n_slaves = 0;
  /// Whether the replay reproduced the live estimator bit for bit.
  bool identical = false;
};
[[nodiscard]] Replay record_and_replay(std::uint64_t seed,
                                       std::uint64_t cycles);

/// Wall time and size of one exporter call.
struct ExportCost {
  std::string artifact;  ///< window_csv, window_json, chrome_trace, ...
  double ms = 0.0;
  double mb = 0.0;
};

/// Writes every telemetry artifact of a finished run into `dir`, as
/// `ahbpower_cli --telemetry DIR --txn-trace` does (window CSV/JSON,
/// bus-mode Chrome trace, txns CSV/JSON, txn Chrome trace, metrics
/// snapshot), timing each write_*_file call. Needs metrics, a window
/// and the tracer; flushes the estimator first. Calls `after_each`, when
/// set, after each exporter call.
std::vector<ExportCost> export_all(
    CaSystem& sys, const std::filesystem::path& dir, Spans* spans,
    const std::function<void()>& after_each = {});

/// The TLM bus with the paper_ca seeds and address map.
class TlmSystem {
public:
  explicit TlmSystem(std::uint64_t seed);
  TlmSystem(const TlmSystem&) = delete;
  TlmSystem& operator=(const TlmSystem&) = delete;

  /// Interleaves the two runners' tenures in 2000-cycle turns until the
  /// bus passes `cycles`. Each run_until call is one slice:
  /// on_slice(cycles advanced, host seconds).
  template <typename OnSlice>
  void run(std::uint64_t cycles, OnSlice&& on_slice) {
    while (bus.cycles() < cycles) {
      step(r1, std::min(next_, cycles), on_slice);
      step(r2, std::min(next_ + 2000, cycles), on_slice);
      next_ += 4000;
    }
  }

  ahbp::tlm::TlmBus bus;
  ahbp::tlm::TlmMemory s1, s2, s3;
  ahbp::tlm::TlmTrafficRunner r1, r2;

private:
  template <typename OnSlice>
  void step(ahbp::tlm::TlmTrafficRunner& r, std::uint64_t until,
            OnSlice& on_slice) {
    const std::uint64_t c0 = bus.cycles();
    const Clock::time_point t0 = Clock::now();
    r.run_until(until);
    on_slice(bus.cycles() - c0, seconds_since(t0));
  }

  std::uint64_t next_ = 2000;
};

/// |TLM energy per cycle / cycle-accurate energy per cycle - 1| for the
/// paper topology on seed `seed`, both over their first `cycles` bus
/// cycles. Also returns both models' transfers per 1000 cycles.
struct EnergyGap {
  double gap = 0.0;
  double tlm_transfers_per_kcycle = 0.0;
  double ca_transfers_per_kcycle = 0.0;
};
[[nodiscard]] EnergyGap energy_gap(std::uint64_t seed, std::uint64_t cycles);

/// The paper's Table 1 (average energy per instruction, pJ) and its
/// headline split, for the simulated-statistics digest.
struct Table1Row {
  const char* instruction;
  double avg_pj;
};
inline constexpr Table1Row kTable1[] = {
    {"IDLE_HO_IDLE_HO", 14.7}, {"IDLE_HO_WRITE", 16.7}, {"READ_WRITE", 19.8},
    {"READ_IDLE_HO", 22.4},    {"WRITE_READ", 14.7},
};
inline constexpr double kPaperDataShare = 0.873;
inline constexpr double kPaperArbShare = 0.127;

inline constexpr std::size_t kTable1Rows = std::size(kTable1);

/// Simulated statistics of one or more runs, printed as a `digest` line.
/// A change that only touches the simulator's speed must leave it
/// identical.
struct Digest {
  std::uint64_t runs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t transfers = 0;
  double energy_j = 0.0;
  double data_j = 0.0;  ///< data-transfer instructions, no handover
  double arb_j = 0.0;   ///< arbitration-related instructions
  std::array<double, kTable1Rows> t1_energy_j{};
  std::array<std::uint64_t, kTable1Rows> t1_count{};

  /// One run's statistics from its power FSM.
  static Digest of(const power::PowerFsm& fsm, std::uint64_t transfers);
  void merge(const Digest& o);
  /// Round trip through a campaign report's free-form metrics, so forked
  /// campaign runs can carry their digest back to the parent.
  void to_metrics(std::map<std::string, double>& m) const;
  static Digest from_metrics(const std::map<std::string, double>& m);
  /// Prints the digest line for `workload`, with the error against the
  /// paper's Table 1 and headline split.
  void print(const std::string& workload) const;
};

}  // namespace perfbench
