#include "power/estimator.hpp"

#include "sim/report.hpp"

namespace ahbp::power {

using sim::SimError;

AhbPowerEstimator::AhbPowerEstimator(sim::Module* parent, std::string name,
                                     ahb::AhbBus& bus)
    : AhbPowerEstimator(parent, std::move(name), bus, Config{}) {}

AhbPowerEstimator::AhbPowerEstimator(sim::Module* parent, std::string name,
                                     ahb::AhbBus& bus, Config cfg)
    : Module(parent, std::move(name)),
      bus_(bus),
      cfg_(cfg),
      fsm_(PowerFsm::Config{.n_masters = bus.n_masters(),
                            .n_slaves = bus.n_slaves(),
                            .data_width = 32,
                            .addr_width = 32,
                            .control_width = 8,
                            .tech = cfg.tech}) {
  if (!bus.finalized()) {
    throw SimError("AhbPowerEstimator: bus must be finalized first");
  }
  if (cfg_.telemetry_window_cycles > 0) {
    windows_ = std::make_unique<telemetry::WindowSeries>(
        telemetry::WindowSeries::Config{
            .window_ticks = cfg_.telemetry_window_cycles,
            .tracks = {"arb", "dec", "m2s", "s2m"}});
  }
  if (cfg_.txn_trace) {
    txn_ = std::make_unique<TransactionTracer>(
        TransactionTracer::Config{.n_masters = bus.n_masters(),
                                  .n_slaves = bus.n_slaves(),
                                  .metrics = cfg_.metrics});
  }
  if (cfg_.metrics != nullptr) {
    h_cycle_energy_ = &cfg_.metrics->histogram(
        "ahb.power.cycle_energy_pj", {0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0});
  }
  bus.attach_observer(*this);
}

void AhbPowerEstimator::on_cycle(const CycleView& v) {
  if (!cfg_.enabled) return;
  const PowerFsm::StepResult r = fsm_.step(v);
  if (txn_) txn_->on_cycle(v, r.blocks);
  if (windows_) {
    const std::uint64_t cycle = fsm_.cycles() - 1;
    windows_->record(cycle, {r.blocks.arb, r.blocks.dec, r.blocks.m2s,
                             r.blocks.s2m});
    if (!run_open_) {
      run_ = ModeRun{.start = cycle, .dur = 0, .mode = r.mode};
      run_open_ = true;
    } else if (r.mode != run_.mode) {
      run_.dur = cycle - run_.start;
      runs_.push_back(run_);
      run_ = ModeRun{.start = cycle, .dur = 0, .mode = r.mode};
    }
  }
  if (h_cycle_energy_ != nullptr) {
    h_cycle_energy_->observe(r.blocks.total() * 1e12);
  }
}

void AhbPowerEstimator::flush_telemetry() {
  if (windows_) {
    if (run_open_) {
      run_.dur = fsm_.cycles() - run_.start;
      runs_.push_back(run_);
      run_open_ = false;
    }
    windows_->flush();
  }
  if (txn_) txn_->flush();
  if (cfg_.metrics != nullptr && !metrics_published_) {
    fsm_.publish_metrics(*cfg_.metrics);
    metrics_published_ = true;
  }
}

std::optional<telemetry::TraceEventLog> AhbPowerEstimator::trace_events()
    const {
  if (!windows_) return std::nullopt;
  telemetry::TraceEventLog log;
  log.reserve(runs_.size());
  for (const ModeRun& r : runs_) {
    log.add_complete(to_string(r.mode), "bus", r.start, r.dur);
  }
  return log;
}

}  // namespace ahbp::power
