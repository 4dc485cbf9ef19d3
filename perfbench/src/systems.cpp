#include "systems.hpp"

#include <cmath>
#include <cstdio>
#include <string_view>

namespace perfbench {

namespace sim = ahbp::sim;
namespace telemetry = ahbp::telemetry;

CaSystem::CaSystem(const CaOptions& o)
    : opts(o),
      metrics(o.metrics ? std::make_unique<telemetry::MetricsRegistry>()
                        : nullptr),
      top(nullptr, "top"),
      clk(&top, "clk", sim::SimTime::ns(kClockNs), 0.5,
          sim::SimTime::ns(kClockNs)),
      bus(&top, "ahb", clk, ahb::AhbBus::Config{.policy = o.policy}),
      dm(&top, "default_master", bus) {
  for (unsigned m = 0; m < o.masters; ++m) {
    masters.push_back(std::make_unique<ahb::TrafficMaster>(
        &top, "m" + std::to_string(m + 1), bus,
        ahb::TrafficMaster::Config{.addr_base = 0x1000u * (m % kSlaves),
                                   .addr_range = 0x1000,
                                   .seed = master_seed(o.seed, m)}));
  }
  for (unsigned s = 0; s < kSlaves; ++s) {
    slaves.push_back(std::make_unique<ahb::MemorySlave>(
        &top, "s" + std::to_string(s + 1), bus,
        ahb::MemorySlave::Config{
            .base = 0x1000u * s, .size = 0x1000, .wait_states = o.waits}));
  }
  bus.finalize();
  if (o.monitor) {
    monitor = std::make_unique<ahb::BusMonitor>(
        &top, "monitor", bus,
        ahb::BusMonitor::Config{.fatal = false, .metrics = metrics.get()});
  }
  if (o.estimator) {
    est = std::make_unique<power::AhbPowerEstimator>(
        &top, "power", bus,
        power::AhbPowerEstimator::Config{
            .telemetry_window_cycles = o.window_cycles,
            .txn_trace = o.txn_trace,
            .metrics = metrics.get()});
    if (o.record_views) {
      recorder_ = std::make_unique<sim::Method>(
          &top, "recorder", [this] { views.push_back(est->sample_view()); });
      recorder_->sensitive(clk.negedge_event()).dont_initialize();
    }
  }
}

void CaSystem::run_cycles(std::uint64_t n) {
  kernel.run(sim::SimTime::ns(kClockNs) * static_cast<std::int64_t>(n));
}

std::uint64_t CaSystem::sampled_cycles() const {
  return est ? est->fsm().cycles() : 0;
}

std::uint64_t CaSystem::read_mismatches() const {
  std::uint64_t n = 0;
  for (const auto& m : masters) n += m->stats().read_mismatches;
  return n;
}

Replay record_and_replay(std::uint64_t seed, std::uint64_t cycles) {
  CaSystem sys(CaOptions{.seed = seed, .record_views = true});
  sys.run_cycles(cycles);
  const power::PowerFsm& live = sys.est->fsm();
  Replay r;
  r.views = std::move(sys.views);
  r.fsm_config = live.config();
  r.live_energy_j = live.total_energy();
  r.n_masters = sys.bus.n_masters();
  r.n_slaves = sys.bus.n_slaves();
  power::PowerFsm fsm(r.fsm_config);
  r.blocks.reserve(r.views.size());
  for (const power::CycleView& v : r.views) {
    r.blocks.push_back(fsm.step(v).blocks);
  }
  r.identical = fsm.cycles() == live.cycles() &&
                fsm.total_energy() == live.total_energy();
  return r;
}

std::vector<ExportCost> export_all(CaSystem& sys,
                                   const std::filesystem::path& dir,
                                   Spans* spans,
                                   const std::function<void()>& after_each) {
  power::AhbPowerEstimator& est = *sys.est;
  est.flush_telemetry();
  std::filesystem::create_directories(dir);
  const telemetry::ExportMeta meta{.tick_ns = static_cast<double>(kClockNs),
                                   .process_name = "ahbpower"};
  telemetry::ExportMeta txn_meta = meta;
  txn_meta.threads.emplace_back(telemetry::txn_track_tid(0), "default_master");
  for (unsigned m = 0; m < sys.opts.masters; ++m) {
    txn_meta.threads.emplace_back(telemetry::txn_track_tid(m + 1),
                                  "m" + std::to_string(m + 1));
  }
  // Run-level and scheduler-level context, as the CLI adds it before the
  // metrics snapshot.
  telemetry::MetricsRegistry& reg = *sys.metrics;
  reg.counter("run.transfers").add(sys.monitor->stats().transfers);
  reg.counter("run.protocol_violations").add(sys.monitor->violations().size());
  reg.counter("sim.deltas").add(sys.kernel.delta_count());
  reg.counter("sim.processes_executed")
      .add(sys.kernel.stats().processes_executed);
  reg.counter("sim.timed_notifications")
      .add(sys.kernel.stats().timed_notifications);
  reg.counter("sim.time_advances").add(sys.kernel.stats().time_advances);
  reg.gauge("run.simulated_seconds").set(sys.kernel.now().to_seconds());

  const power::TransactionTracer& txn = *est.txn_tracer();
  std::vector<ExportCost> costs;
  auto timed = [&](const char* artifact, const char* file, auto&& write) {
    const std::filesystem::path path = dir / file;
    const double t0 = now_us();
    write(path);
    const double t1 = now_us();
    if (spans != nullptr) spans->add(artifact, Spans::kExport, t0, t1);
    costs.push_back(ExportCost{
        artifact, (t1 - t0) / 1000.0,
        static_cast<double>(std::filesystem::file_size(path)) / 1e6});
    if (after_each) after_each();
  };
  timed("window_csv", "power_windows.csv", [&](const auto& p) {
    telemetry::write_window_csv_file(p, *est.windows(), meta);
  });
  timed("window_json", "power_windows.json", [&](const auto& p) {
    telemetry::write_window_json_file(p, *est.windows(), meta);
  });
  timed("chrome_trace", "trace.json", [&](const auto& p) {
    telemetry::write_chrome_trace_file(p, *est.trace_events(), est.windows(),
                                       meta);
  });
  timed("txns_csv", "txns.csv", [&](const auto& p) {
    telemetry::write_txn_csv_file(p, txn.log());
  });
  timed("txns_json", "txns.json", [&](const auto& p) {
    telemetry::write_txn_json_file(p, txn.log(),
                                   txn.summary(est.total_energy()), meta);
  });
  timed("txn_trace", "txn_trace.json", [&](const auto& p) {
    telemetry::write_chrome_trace_file(p, txn.spans(), nullptr, txn_meta);
  });
  timed("metrics_json", "metrics.json", [&](const auto& p) {
    telemetry::write_metrics_json_file(p, reg);
  });
  return costs;
}

TlmSystem::TlmSystem(std::uint64_t seed)
    : bus(ahbp::tlm::TlmBus::Config{.n_masters = 3}),
      r1(bus, 1,
         {.addr_base = 0x0000, .addr_range = 0x1000,
          .seed = master_seed(seed, 0)}),
      r2(bus, 2,
         {.addr_base = 0x1000, .addr_range = 0x1000,
          .seed = master_seed(seed, 1)}) {
  bus.map(s1, 0x0000, 0x1000);
  bus.map(s2, 0x1000, 0x1000);
  bus.map(s3, 0x2000, 0x1000);
}

EnergyGap energy_gap(std::uint64_t seed, std::uint64_t cycles) {
  TlmSystem t(seed);
  t.run(cycles, [](std::uint64_t, double) {});
  // The cycle-accurate reference covers the cycles the TLM run reached
  // (its last tenure may overshoot `cycles`).
  CaSystem ca(CaOptions{.seed = seed});
  ca.run_cycles(t.bus.cycles());
  const double tlm_epc = t.bus.total_energy() / static_cast<double>(t.bus.cycles());
  const double ca_epc = ca.est->total_energy() /
                        static_cast<double>(ca.est->fsm().cycles());
  return EnergyGap{
      .gap = std::fabs(tlm_epc / ca_epc - 1.0),
      .tlm_transfers_per_kcycle = 1000.0 * static_cast<double>(t.bus.transfers()) /
                                  static_cast<double>(t.bus.cycles()),
      .ca_transfers_per_kcycle =
          1000.0 * static_cast<double>(ca.monitor->stats().transfers) /
          static_cast<double>(ca.est->fsm().cycles())};
}

Digest Digest::of(const power::PowerFsm& fsm, std::uint64_t transfers) {
  Digest d;
  d.runs = 1;
  d.cycles = fsm.cycles();
  d.transfers = transfers;
  d.energy_j = fsm.total_energy();
  d.data_j = power::data_transfer_share(fsm) * d.energy_j;
  d.arb_j = power::arbitration_share(fsm) * d.energy_j;
  const auto table = fsm.instructions();
  for (std::size_t i = 0; i < kTable1Rows; ++i) {
    const auto it = table.find(kTable1[i].instruction);
    if (it == table.end()) continue;
    d.t1_energy_j[i] = it->second.energy;
    d.t1_count[i] = it->second.count;
  }
  return d;
}

void Digest::merge(const Digest& o) {
  runs += o.runs;
  cycles += o.cycles;
  transfers += o.transfers;
  energy_j += o.energy_j;
  data_j += o.data_j;
  arb_j += o.arb_j;
  for (std::size_t i = 0; i < kTable1Rows; ++i) {
    t1_energy_j[i] += o.t1_energy_j[i];
    t1_count[i] += o.t1_count[i];
  }
}

void Digest::to_metrics(std::map<std::string, double>& m) const {
  m["digest.data_j"] = data_j;
  m["digest.arb_j"] = arb_j;
  for (std::size_t i = 0; i < kTable1Rows; ++i) {
    const std::string key = std::string("digest.") + kTable1[i].instruction;
    m[key + ".energy_j"] = t1_energy_j[i];
    m[key + ".count"] = static_cast<double>(t1_count[i]);
  }
}

Digest Digest::from_metrics(const std::map<std::string, double>& m) {
  Digest d;
  d.data_j = m.at("digest.data_j");
  d.arb_j = m.at("digest.arb_j");
  for (std::size_t i = 0; i < kTable1Rows; ++i) {
    const std::string key = std::string("digest.") + kTable1[i].instruction;
    d.t1_energy_j[i] = m.at(key + ".energy_j");
    d.t1_count[i] = static_cast<std::uint64_t>(m.at(key + ".count"));
  }
  return d;
}

void Digest::print(const std::string& workload) const {
  const double data = energy_j > 0.0 ? data_j / energy_j : 0.0;
  const double arb = energy_j > 0.0 ? arb_j / energy_j : 0.0;
  std::string rows;
  for (std::size_t i = 0; i < kTable1Rows; ++i) {
    char buf[200];
    if (t1_count[i] == 0) {
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"paper_pj\": %.1f, \"count\": 0}",
                    i == 0 ? "" : ", ", kTable1[i].instruction,
                    kTable1[i].avg_pj);
    } else {
      const double pj =
          1e12 * t1_energy_j[i] / static_cast<double>(t1_count[i]);
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"paper_pj\": %.1f, \"count\": %llu, "
                    "\"avg_pj\": %.17g, \"rel_err\": %.6f}",
                    i == 0 ? "" : ", ", kTable1[i].instruction,
                    kTable1[i].avg_pj,
                    static_cast<unsigned long long>(t1_count[i]), pj,
                    pj / kTable1[i].avg_pj - 1.0);
    }
    rows += buf;
  }
  std::printf(
      "digest %s {\"runs\": %llu, \"cycles\": %llu, \"transfers\": %llu, "
      "\"energy_j\": %.17g, \"data_share\": %.17g, \"arb_share\": %.17g, "
      "\"paper_data_share\": %.3f, \"paper_arb_share\": %.3f, "
      "\"data_share_err_pp\": %.4f, \"arb_share_err_pp\": %.4f, "
      "\"table1\": {%s}, \"validated_against_hardware\": false}\n",
      workload.c_str(), static_cast<unsigned long long>(runs),
      static_cast<unsigned long long>(cycles),
      static_cast<unsigned long long>(transfers), energy_j, data, arb,
      kPaperDataShare, kPaperArbShare, 100.0 * (data - kPaperDataShare),
      100.0 * (arb - kPaperArbShare), rows.c_str());
}

}  // namespace perfbench
