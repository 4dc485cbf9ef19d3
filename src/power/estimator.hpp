#pragma once
// AhbPowerEstimator: the methodology's "local model" integration style
// (Fig. 1) and the library's main power-analysis entry point.
//
// The estimator is one observer on the bus's per-cycle sampler (see
// AhbBus::attach_observer): each cycle it receives the settled-cycle
// view, feeds the power FSM, and (optionally) builds windowed power
// telemetry. The functional model is untouched, and when disabled the
// estimator costs one virtual call per cycle -- the executable-
// specification equivalent of compiling without the paper's POWERTEST
// define is simply not constructing the estimator.
//
// Observability: with `telemetry_window_cycles` set, every sampled cycle
// publishes its per-block energy into a cycle-windowed
// telemetry::WindowSeries, and runs of identical bus modes are kept as
// plain {start, dur, mode} records. trace_events() turns those into
// duration events in a telemetry::TraceEventLog at export time -- ready
// for the CSV / JSON / Chrome trace_event exporters
// (docs/OBSERVABILITY.md). With `metrics` set, hot-path counters land in
// the given MetricsRegistry.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "ahb/bus.hpp"
#include "power/attribution.hpp"
#include "power/power_fsm.hpp"
#include "sim/module.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/window.hpp"

namespace ahbp::power {

/// One run of consecutive same-mode bus cycles: a bus-instruction trace
/// slice, stored as plain bytes until AhbPowerEstimator::trace_events()
/// renders it.
struct ModeRun {
  std::uint64_t start = 0;  ///< first cycle of the run
  std::uint64_t dur = 0;    ///< cycles in the run
  BusMode mode = BusMode::kIdle;
};
static_assert(std::is_trivially_copyable_v<ModeRun>);

/// Observes a finalized AhbBus once per cycle and runs the power FSM.
class AhbPowerEstimator : public sim::Module, public ahb::CycleObserver {
public:
  struct Config {
    gate::Technology tech = gate::Technology::default_2003();
    /// Runtime bypass: when false, on_cycle() returns immediately.
    bool enabled = true;
    /// Window (in sampled bus cycles) for the power-vs-time series
    /// (Figs. 3-5) and the bus-instruction trace events; zero disables
    /// both.
    std::uint64_t telemetry_window_cycles = 0;
    /// Reconstruct per-transaction spans and attribute block energies to
    /// them (TransactionTracer); see docs/OBSERVABILITY.md.
    bool txn_trace = false;
    /// Optional metrics registry (not owned; must outlive the
    /// estimator). The estimator maintains `ahb.power.cycle_energy_pj`
    /// live, and flush_telemetry() publishes the FSM's end-of-run totals
    /// into it.
    telemetry::MetricsRegistry* metrics = nullptr;
  };

  /// The bus must already be finalized.
  AhbPowerEstimator(sim::Module* parent, std::string name, ahb::AhbBus& bus);
  AhbPowerEstimator(sim::Module* parent, std::string name, ahb::AhbBus& bus,
                    Config cfg);

  /// @name Results
  ///@{
  [[nodiscard]] const PowerFsm& fsm() const { return fsm_; }
  [[nodiscard]] double total_energy() const { return fsm_.total_energy(); }
  [[nodiscard]] const BlockEnergy& block_totals() const { return fsm_.block_totals(); }
  /// Cycle-windowed per-block energy series (tracks arb/dec/m2s/s2m);
  /// nullptr when telemetry_window_cycles is zero.
  [[nodiscard]] const telemetry::WindowSeries* windows() const {
    return windows_.get();
  }
  /// Bus-instruction duration events, one "bus" slice per closed
  /// ModeRun, named after its mode and in cycle order; nullopt when
  /// telemetry is off. Built on demand: each call renders every run
  /// again. flush_telemetry() closes the open run.
  [[nodiscard]] std::optional<telemetry::TraceEventLog> trace_events() const;
  /// Per-transaction tracer; nullptr unless Config::txn_trace was set.
  /// flush_telemetry() closes in-flight transactions before you read it.
  [[nodiscard]] const TransactionTracer* txn_tracer() const {
    return txn_.get();
  }
  /// Mutable access (runtime set_enabled for overhead experiments).
  [[nodiscard]] TransactionTracer* txn_tracer() { return txn_.get(); }
  /// Closes the telemetry window and open mode run, and publishes the
  /// FSM totals into the metrics registry (once per run).
  void flush_telemetry();
  ///@}

  void set_enabled(bool on) { cfg_.enabled = on; }
  [[nodiscard]] bool enabled() const { return cfg_.enabled; }

  /// The monitored bus's current view (AhbBus::sample_view()).
  [[nodiscard]] CycleView sample_view() const { return bus_.sample_view(); }
  /// The monitored bus (downstream observers like PowerGovernor attach
  /// to its sampler after the estimator).
  [[nodiscard]] ahb::AhbBus& bus() const { return bus_; }

  void on_cycle(const CycleView& v) override;

private:
  ahb::AhbBus& bus_;
  Config cfg_;
  PowerFsm fsm_;
  std::unique_ptr<telemetry::WindowSeries> windows_;
  std::unique_ptr<TransactionTracer> txn_;
  /// Closed bus-mode runs, in cycle order (trace_events() renders them).
  std::vector<ModeRun> runs_;
  /// Current run of consecutive same-mode cycles (dur not yet known).
  ModeRun run_;
  bool run_open_ = false;
  bool metrics_published_ = false;
  telemetry::Histogram* h_cycle_energy_ = nullptr;
};

}  // namespace ahbp::power
