#include "traced.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "systems.hpp"

namespace perfbench {

namespace campaign = ahbp::campaign;
namespace telemetry = ahbp::telemetry;

namespace {

/// Bus cycles of each ladder rung and of the recorded replay stream.
constexpr std::uint64_t kLadderCycles = 40'000;
/// Ladder rounds; rungs alternate within a round and each rung reports
/// its fastest round.
constexpr int kLadderRounds = 3;
/// Timed passes over the recorded stream per replayed layer.
constexpr int kReplayPasses = 5;

struct Rung {
  const char* name;
  CaOptions opts;
  bool exporters;
};

/// The layer ladder on the paper_ca topology: each rung adds one layer.
std::vector<Rung> ladder_rungs(std::uint64_t seed) {
  return {
      {"fabric", {.seed = seed, .monitor = false, .estimator = false}, false},
      {"monitor", {.seed = seed, .estimator = false}, false},
      {"estimator", {.seed = seed}, false},
      {"telemetry", {.seed = seed, .metrics = true, .window_cycles = 100},
       false},
      {"tracer",
       {.seed = seed, .metrics = true, .window_cycles = 100, .txn_trace = true},
       false},
      {"exporters",
       {.seed = seed, .metrics = true, .window_cycles = 100, .txn_trace = true},
       true},
  };
}

void ladder(Result& r, const Args& a, Spans& spans) {
  const std::vector<Rung> rungs = ladder_rungs(a.seed);
  const std::filesystem::path dir = a.workdir / "ladder";
  std::map<std::string, std::vector<double>> ns;      // per rung
  std::map<std::string, std::vector<double>> export_ms;  // per artifact
  std::map<std::string, double> export_mb;
  std::map<std::string, std::array<std::uint64_t, 3>> counts;
  double records = 0.0;
  const auto n = static_cast<double>(kLadderCycles);
  for (int round = 0; round < kLadderRounds; ++round) {
    for (const Rung& rung : rungs) {
      CaSystem sys(rung.opts);
      Checks c;
      const double u0 = now_us();
      sys.run_cycles(kLadderCycles);
      if (rung.exporters) {
        for (const ExportCost& e : export_all(sys, dir, &spans)) {
          export_ms[e.artifact].push_back(e.ms);
          export_mb[e.artifact] = e.mb;
        }
      }
      const double u1 = now_us();
      spans.add(rung.name, Spans::kLadder, u0, u1);
      ns[rung.name].push_back((u1 - u0) * 1e3 / n);

      const std::array<std::uint64_t, 3> k{
          sys.kernel.delta_count(), sys.kernel.stats().processes_executed,
          sys.kernel.stats().timed_notifications};
      if (round == 0) counts[rung.name] = k;
      c.expect(counts[rung.name] == k,
               std::string("ladder ") + rung.name +
                   ": sim.* counts differ between rounds");
      if (sys.monitor) {
        c.expect(sys.monitor->violations().empty(),
                 std::string("ladder ") + rung.name + ": BusMonitor violations");
      }
      if (rung.opts.txn_trace && !rung.exporters) {
        sys.est->flush_telemetry();
        const power::TransactionTracer& t = *sys.est->txn_tracer();
        records = static_cast<double>(t.log().size() + t.spans().size());
      }
      r.op(c.ok(), c.first_failure());
    }
  }
  r.artifacts = dir.string();

  // Minimum over rounds, as for the end-to-end metrics.
  std::map<std::string, double> best;
  for (const auto& [name, v] : ns) best[name] = *std::min_element(v.begin(), v.end());
  for (const Rung& rung : rungs) {
    const std::string p = std::string("ladder.") + rung.name;
    const std::array<std::uint64_t, 3>& k = counts[rung.name];
    r.set(p + ".ns_per_cycle", best[rung.name], "ns");
    r.set(p + ".deltas_per_cycle", static_cast<double>(k[0]) / n, "count");
    r.set(p + ".activations_per_cycle", static_cast<double>(k[1]) / n,
          "count");
  }
  // The paper_ca configuration is the estimator rung.
  const std::array<std::uint64_t, 3>& k = counts["estimator"];
  r.set("sim.deltas_per_cycle", static_cast<double>(k[0]) / n, "count");
  r.set("sim.activations_per_cycle", static_cast<double>(k[1]) / n, "count");
  r.set("sim.timed_per_cycle", static_cast<double>(k[2]) / n, "count");
  r.set("fabric.ns_per_cycle", best["fabric"], "ns");
  r.set("ahb.monitor.ns_per_cycle", best["monitor"] - best["fabric"], "ns");
  r.set("power.estimator.ns_per_cycle", best["estimator"] - best["monitor"],
        "ns");
  r.set("telemetry.window.rung_ns_per_cycle",
        best["telemetry"] - best["estimator"], "ns");
  r.set("power.tracer.rung_ns_per_cycle", best["tracer"] - best["telemetry"],
        "ns");
  r.set("power.tracer.records_retained", records, "count");
  for (const auto& [artifact, v] : export_ms) {
    r.set("telemetry.export_ms." + artifact,
          *std::min_element(v.begin(), v.end()), "ms");
    r.set("telemetry.export_mb." + artifact, export_mb[artifact], "MB");
  }
}

/// Fastest host ns per element of `pass` over kReplayPasses passes.
template <typename Pass>
double replay_ns(Spans& spans, const char* name, std::size_t n, Pass&& pass) {
  std::vector<double> ns;
  for (int i = 0; i < kReplayPasses; ++i) {
    const double u0 = now_us();
    pass();
    const double u1 = now_us();
    spans.add(name, Spans::kReplay, u0, u1);
    ns.push_back((u1 - u0) * 1e3 / static_cast<double>(n));
  }
  return *std::min_element(ns.begin(), ns.end());
}

/// Records the paper_ca CycleView stream with a benchmark-owned negedge
/// process and replays it through each per-cycle layer alone.
void replay(Result& r, const Args& a, Spans& spans) {
  const Replay rec = record_and_replay(a.seed, kLadderCycles);
  const std::vector<power::CycleView>& views = rec.views;
  const std::vector<power::BlockEnergy>& blocks = rec.blocks;
  r.op(rec.identical, "replay: PowerFsm total differs from the live estimator");

  r.set("power.fsm.ns_per_cycle",
        replay_ns(spans, "PowerFsm::step", views.size(),
                  [&] {
                    power::PowerFsm fsm(rec.fsm_config);
                    for (const power::CycleView& v : views) fsm.step(v);
                  }),
        "ns");

  const power::TransactionTracer::Config tcfg{
      .n_masters = rec.n_masters, .n_slaves = rec.n_slaves};
  bool conserved = true;
  r.set("power.tracer.ns_per_cycle",
        replay_ns(spans, "TransactionTracer::on_cycle", views.size(),
                  [&] {
                    power::TransactionTracer t(tcfg);
                    for (std::size_t i = 0; i < views.size(); ++i) {
                      t.on_cycle(views[i], blocks[i]);
                    }
                    t.flush();
                    const double attributed = t.attribution().masters_total() +
                                              t.attribution().bus_energy();
                    conserved = conserved &&
                                std::fabs(attributed - rec.live_energy_j) <=
                                    1e-9 * rec.live_energy_j;
                  }),
        "ns");
  r.op(conserved, "replay: attributed energy != PowerFsm total");

  r.set("telemetry.window.ns_per_cycle",
        replay_ns(spans, "WindowSeries::record", views.size(),
                  [&] {
                    telemetry::WindowSeries w(telemetry::WindowSeries::Config{
                        .window_ticks = 100,
                        .tracks = {"arb", "dec", "m2s", "s2m"}});
                    for (std::size_t i = 0; i < blocks.size(); ++i) {
                      const power::BlockEnergy& b = blocks[i];
                      w.record(i, {b.arb, b.dec, b.m2s, b.s2m});
                    }
                    w.flush();
                  }),
        "ns");
}

/// The sweep_attr campaign under process isolation (journal, event log,
/// spans per run) and again under thread isolation; per-run energies
/// must be bit-identical between the two.
void campaign_layer(Result& r, const Args& a, Spans& spans) {
  const std::filesystem::path dir = a.workdir / "campaign";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<campaign::RunSpec> specs =
      sweep_specs(a.seed, kSweepRunCycles);

  campaign::JournalWriter journal(dir / "campaign.journal");
  telemetry::EventLog events(
      telemetry::EventLog::Config{.file = dir / "events.jsonl"});
  const RunSpanRecorder run_spans(events, spans);
  campaign::Campaign::RunOptions opts;
  opts.journal = &journal;
  opts.events = &events;

  const campaign::Campaign process_pool(campaign::Campaign::Config{
      .threads = kSweepWorkers, .isolation = campaign::Isolation::kProcess});
  double u0 = now_us();
  const std::vector<campaign::RunOutcome> proc = process_pool.run(specs, opts);
  double u1 = now_us();
  spans.add("Campaign::run (process)", Spans::kCampaign, u0, u1);
  const double campaign_s = (u1 - u0) / 1e6;
  const double child_rss = child_peak_rss_mb();

  const campaign::Campaign thread_pool(campaign::Campaign::Config{
      .threads = kSweepWorkers, .isolation = campaign::Isolation::kThread});
  u0 = now_us();
  const std::vector<campaign::RunOutcome> thr = thread_pool.run(specs);
  u1 = now_us();
  spans.add("Campaign::run (thread)", Spans::kCampaign, u0, u1);

  std::vector<double> run_s;
  double run_sum = 0.0;
  for (std::size_t i = 0; i < proc.size(); ++i) {
    std::string why;
    bool ok = campaign_run_ok(proc[i], why) && campaign_run_ok(thr[i], why);
    if (ok) {
      const campaign::PowerReport& p = proc[i].report;
      const campaign::PowerReport& t = thr[i].report;
      bool same = p.total_energy == t.total_energy &&
                  p.bus_energy_j == t.bus_energy_j &&
                  p.attribution.size() == t.attribution.size();
      for (std::size_t m = 0; same && m < p.attribution.size(); ++m) {
        same = p.attribution[m].energy_j == t.attribution[m].energy_j;
      }
      if (!same) {
        ok = false;
        why = proc[i].name + ": energies differ between process and thread";
      }
    }
    r.op(ok, "campaign " + why);
    run_s.push_back(proc[i].wall_seconds);
    run_sum += proc[i].wall_seconds;
  }
  const auto runs = static_cast<double>(proc.size());
  r.set("campaign.run_s_p50", median(run_s), "s");
  r.set("campaign.overhead_ms_per_run",
        1000.0 * (campaign_s * process_pool.threads() - run_sum) / runs, "ms");
  r.set("campaign.child_peak_rss_mb", child_rss, "MB");
}

/// The span overhead: the workload's own rep with and without spans,
/// alternating over half of --seconds, each side's cycles_per_s taken
/// over its per-slice minima as in the untraced run.
void overhead(Workload& w, Result& r, const Args& a, Spans& spans) {
  const std::size_t pairs = std::max<std::size_t>(
      1, fixed_reps(w, a.seconds / 2) / 2);
  std::vector<double> plain, traced;
  std::uint64_t cycles = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    const RepStats p = w.rep(r, nullptr);
    keep_fastest(plain, p.slice_s);
    keep_fastest(traced, w.rep(r, &spans).slice_s);
    cycles = p.cycles;
  }
  double plain_s = 0.0;
  double traced_s = 0.0;
  for (const double s : plain) plain_s += s;
  for (const double s : traced) traced_s += s;
  const double untraced_cps = static_cast<double>(cycles) / plain_s;
  const double traced_cps = static_cast<double>(cycles) / traced_s;
  r.set("trace.cycles_per_s", traced_cps, "1/s");
  r.set("trace.untraced_cycles_per_s", untraced_cps, "1/s");
  r.set("trace.overhead_pct", 100.0 * (untraced_cps / traced_cps - 1.0), "%");
}

}  // namespace

Result run_traced(Workload& w, const Args& a) {
  Result r;
  Spans spans;
  // The campaign goes first: its workers fork from this process, and
  // their memory high-water mark should not include heap left over
  // from the ladder.
  campaign_layer(r, a, spans);
  ladder(r, a, spans);
  replay(r, a, spans);
  {
    const double u0 = now_us();
    const EnergyGap gap = energy_gap(a.seed, kGapCycles);
    spans.add("tlm vs cycle-accurate", Spans::kTlm, u0, now_us());
    r.set("tlm.transfers_per_kcycle", gap.tlm_transfers_per_kcycle, "count");
    r.set("ahb.transfers_per_kcycle", gap.ca_transfers_per_kcycle, "count");
    r.op(std::isfinite(gap.gap), "tlm: energy gap is not finite");
  }
  overhead(w, r, a, spans);
  const std::filesystem::path file = a.workdir / "spans.json";
  spans.write(file);
  std::printf("spans %s: %zu written to %s\n", a.workload.c_str(), spans.size(),
              file.string().c_str());
  return r;
}

}  // namespace perfbench
