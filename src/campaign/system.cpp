#include "campaign/system.hpp"

#include <charconv>
#include <utility>

#include "campaign/journal.hpp"
#include "power/report.hpp"

namespace ahbp::campaign {

std::vector<std::uint64_t> paper_seeds() { return {101, 202}; }

std::vector<std::uint64_t> strided_seeds(std::uint64_t base, unsigned masters) {
  std::vector<std::uint64_t> seeds;
  for (unsigned m = 0; m < masters; ++m) seeds.push_back(base + 97 * m);
  return seeds;
}

namespace {

const fault::SlaveFaultConfig kFaultRates{
    .retry_rate = 0.02, .error_rate = 0.005, .jitter_rate = 0.05, .max_extra_waits = 3};

/// Shortest text that reads back as exactly `v`.
std::string exact(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

}  // namespace

std::string canonical_text(const SystemSpec& spec) {
  using std::to_string;
  std::string t =
      std::string("policy=") +
      (spec.policy == ahb::ArbitrationPolicy::kFixedPriority ? "fixed" : "rr") +
      " waits=" + to_string(spec.wait_states) +
      " slaves=" + to_string(spec.slaves) + " seeds=";
  for (const std::uint64_t seed : spec.seeds) t += to_string(seed) + ',';
  t += " faults=";
  if (spec.fault_seed) {
    const fault::SlaveFaultConfig& r = kFaultRates;
    t += to_string(*spec.fault_seed) + "{retry=" + exact(r.retry_rate) +
         ",error=" + exact(r.error_rate) + ",split=" + exact(r.split_rate) +
         ",jitter=" + exact(r.jitter_rate) +
         ",max_extra_waits=" + to_string(r.max_extra_waits) +
         ",burst_interrupt=" + exact(r.burst_interrupt_rate) +
         ",split_resume=" + to_string(r.split_resume_cycles) + "}";
  } else {
    t += "off";
  }
  return t + " monitor=" + to_string(spec.monitor) + " power=" +
         to_string(spec.power) + " window=" +
         to_string(spec.telemetry_window_cycles) +
         " txn_trace=" + to_string(spec.txn_trace);
}

System::System(const SystemSpec& spec)
    : top(nullptr, "top"),
      clk(&top, "clk", kCycle, 0.5, kCycle),
      bus(&top, "ahb", clk, ahb::AhbBus::Config{.policy = spec.policy}),
      dm(&top, "default_master", bus) {
  if (spec.slaves == 0) throw sim::SimError("System: need at least one slave");
  for (unsigned m = 0; m < spec.seeds.size(); ++m) {
    masters.push_back(std::make_unique<ahb::TrafficMaster>(
        &top, "m" + std::to_string(m + 1), bus,
        ahb::TrafficMaster::Config{.addr_base = 0x1000u * (m % spec.slaves),
                                   .addr_range = 0x1000,
                                   .seed = spec.seeds[m]}));
  }
  if (spec.fault_seed) {
    injector = std::make_unique<fault::FaultInjector>(
        fault::FaultPlan::uniform(*spec.fault_seed, kFaultRates, spec.slaves),
        spec.metrics);
  }
  for (unsigned s = 0; s < spec.slaves; ++s) {
    slaves.push_back(std::make_unique<ahb::MemorySlave>(
        &top, "s" + std::to_string(s + 1), bus,
        ahb::MemorySlave::Config{
            .base = 0x1000u * s,
            .size = 0x1000,
            .wait_states = spec.wait_states,
            .fault_hook = injector ? injector->hook(s) : ahb::FaultHook{}}));
  }
  bus.finalize();
  if (spec.monitor) {
    mon = std::make_unique<ahb::BusMonitor>(
        &top, "monitor", bus,
        ahb::BusMonitor::Config{.fatal = false, .metrics = spec.metrics});
  }
  if (spec.power) {
    est = std::make_unique<power::AhbPowerEstimator>(
        &top, "power", bus,
        power::AhbPowerEstimator::Config{
            .telemetry_window_cycles = spec.telemetry_window_cycles,
            .txn_trace = spec.txn_trace,
            .metrics = spec.metrics});
  }
}

PowerReport System::run(std::uint64_t cycles) {
  kernel.run(kCycle * static_cast<std::int64_t>(cycles));
  PowerReport r;
  if (mon) r.transfers = mon->stats().transfers;
  if (!est) return r;
  est->flush_telemetry();
  r.total_energy = est->total_energy();
  r.blocks = est->block_totals();
  r.cycles = est->fsm().cycles();
  r.metrics["data_share"] = power::data_transfer_share(est->fsm());
  r.metrics["arb_share"] = power::arbitration_share(est->fsm());
  if (const power::TransactionTracer* txn = est->txn_tracer()) {
    r.bus_energy_j = txn->attribution().bus_energy();
    // Index 0 is the default master.
    for (std::size_t m = 0; m <= masters.size(); ++m) {
      r.attribution.push_back(
          {txn->attribution().master_energy()[m], txn->master_txns()[m]});
    }
  }
  return r;
}

RunSpec run_spec(std::string name, SystemSpec spec, std::uint64_t cycles) {
  return {std::move(name),
          [spec = std::move(spec), cycles] { return System(spec).run(cycles); }};
}

std::uint64_t sweep_fingerprint(const std::vector<SweepPoint>& points,
                                std::uint64_t cycles,
                                const Campaign::Config& pool) {
  const sim::RunBudget& b = pool.run_budget;
  std::string canon = "cycles=" + std::to_string(cycles) +
                      " budget=" + std::to_string(b.max_cycles) + ',' +
                      std::to_string(b.max_events) + ',' +
                      exact(b.max_wall_seconds) + ',' +
                      std::to_string(b.fail_on_deadlock) + '\n';
  for (const SweepPoint& p : points) {
    // Length-prefixed, so no name can forge a field boundary.
    canon += std::to_string(p.name.size()) + ':' + p.name + ' ' +
             canonical_text(p.spec) + '\n';
  }
  return fnv1a64(canon);
}

}  // namespace ahbp::campaign
