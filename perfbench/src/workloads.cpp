#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "campaign/journal.hpp"
#include "systems.hpp"

namespace perfbench {

namespace campaign = ahbp::campaign;
namespace telemetry = ahbp::telemetry;

namespace {

/// Minimum elaborations sampled for setup_s.
constexpr std::size_t kSetupSamples = 15;
/// Elaborations back to back before each rep. All but the first reuse
/// the memory the previous one freed, so the median reflects the
/// elaboration work, not the host's page-fault cost after a rep.
constexpr int kSetupBurst = 5;
/// The timed phase runs at least this many reps...
constexpr std::size_t kMinReps = 3;
/// ...but, on a host far slower than the reference, stops at this many
/// times --seconds regardless.
constexpr double kOvertimeFactor = 1.5;

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// The CLI's one-line run summary -- the report a plain run ends with.
std::string summary_line(const CaSystem& sys) {
  const power::PowerFsm& fsm = sys.est->fsm();
  const double secs = sys.kernel.now().to_seconds();
  return std::to_string(fsm.cycles()) + " cycles | " +
         std::to_string(sys.monitor->stats().transfers) + " transfers | " +
         power::format_energy(fsm.total_energy()) + " | avg " +
         power::format_power(fsm.total_energy() / secs) + " | data " +
         fmt("%.1f%%", 100.0 * power::data_transfer_share(fsm)) + " arb " +
         fmt("%.1f%%", 100.0 * power::arbitration_share(fsm));
}

/// Runs `sys` for `cycles` in `slice`-cycle Kernel::run calls, adding
/// each slice to `s` and ending a part after each.
void run_sliced(CaSystem& sys, std::uint64_t cycles, std::uint64_t slice,
                RepStats& s, Spans* spans) {
  for (std::uint64_t done = 0; done < cycles; done += slice) {
    const std::uint64_t c0 = sys.sampled_cycles();
    const double u0 = now_us();
    sys.run_cycles(std::min(slice, cycles - done));
    const double u1 = now_us();
    if (spans != nullptr) spans->add("Kernel::run", Spans::kWorkload, u0, u1);
    s.add_slice((u1 - u0) / 1e6, sys.sampled_cycles() - c0);
    s.lap();
  }
  s.cycles += sys.sampled_cycles();
}

// --- paper_ca ---------------------------------------------------------------

/// The paper's Sec. 5 testbench as one long cycle-accurate run: the CLI's
/// plain `--quiet` run (BusMonitor + local-style estimator, no telemetry).
class PaperCa final : public Workload {
public:
  explicit PaperCa(std::uint64_t seed) : seed_(seed) {}

  double nominal_rep_s() const override { return 0.3; }

  double setup_once() override {
    const Clock::time_point t0 = Clock::now();
    CaSystem sys(CaOptions{.seed = seed_});
    return seconds_since(t0);
  }

  RepStats rep(Result& r, Spans* spans) override {
    RepStats s;
    Checks c;
    {
      SpanScope span(spans, "paper_ca", Spans::kWorkload);
      CaSystem sys(CaOptions{.seed = seed_});
      s.lap();
      run_sliced(sys, kCycles, kSlice, s, spans);
      sys.est->flush_telemetry();
      report_ = summary_line(sys);
      c.expect(sys.monitor->violations().empty(),
               "paper_ca: BusMonitor violations");
      c.expect(sys.read_mismatches() == 0, "paper_ca: read-back mismatches");
      const std::array<std::uint64_t, 3> counts{
          sys.kernel.delta_count(), sys.kernel.stats().processes_executed,
          sys.kernel.stats().timed_notifications};
      if (digest_.runs == 0) {
        first_counts_ = counts;
        digest_ = Digest::of(sys.est->fsm(), sys.monitor->stats().transfers);
      }
      c.expect(counts == first_counts_,
               "paper_ca: sim.* counts differ between repeats");
    }
    s.lap();
    r.op(c.ok(), c.first_failure());
    return s;
  }

  void finish(Result& r) override {
    // Replay gate: a fresh PowerFsm stepped through the recorded
    // CycleView stream must reproduce the live estimator bit for bit.
    r.op(record_and_replay(seed_, kCheckCycles).identical,
         "paper_ca: replayed PowerFsm total differs from the live estimator");
    std::printf("report paper_ca %s\n", report_.c_str());
    digest_.print("paper_ca");
  }

private:
  static constexpr std::uint64_t kCycles = 400'000;
  static constexpr std::uint64_t kSlice = 4'000;
  static constexpr std::uint64_t kCheckCycles = 100'000;

  std::uint64_t seed_;
  std::array<std::uint64_t, 3> first_counts_{};
  Digest digest_;
  std::string report_;
};

// --- sweep_attr -------------------------------------------------------------

/// Report-metric key of slice `i`'s host seconds ("s") or cycles ("n").
std::string slice_key(const char* what, unsigned i) {
  return std::string("slice.") + what + "." + std::to_string(i);
}

const char* policy_name(ahb::ArbitrationPolicy p) {
  return p == ahb::ArbitrationPolicy::kFixedPriority ? "fixed" : "rr";
}

/// The journal/event-log fingerprint of the sweep (everything that
/// determines its results).
std::uint64_t sweep_fingerprint(std::uint64_t seed, std::uint64_t cycles,
                                const std::vector<campaign::RunSpec>& specs) {
  std::string canon = "perfbench.sweep_attr;cycles=" + std::to_string(cycles) +
                      ";seed=" + std::to_string(seed) + ";specs=";
  for (const campaign::RunSpec& s : specs) canon += s.name + ",";
  return campaign::fnv1a64(canon);
}

/// The CLI --sweep campaign with 4 traffic masters, plus its plumbing:
/// process isolation, a write-ahead journal and an events.jsonl log.
class SweepAttr final : public Workload {
public:
  SweepAttr(std::uint64_t seed, std::filesystem::path dir)
      : seed_(seed), dir_(std::move(dir)) {}

  double nominal_rep_s() const override { return 1.0; }

  double setup_once() override {
    std::filesystem::remove_all(dir_);
    const Clock::time_point t0 = Clock::now();
    Plumbing p(*this, nullptr);
    return seconds_since(t0);
  }

  RepStats rep(Result& r, Spans* spans) override {
    RepStats s;
    {
      SpanScope span(spans, "sweep_attr", Spans::kWorkload);
      std::filesystem::remove_all(dir_);
      Plumbing p(*this, spans);
      // Each run, from the end of the previous one through fork, pipe,
      // reap and journal append, is one part.
      p.events.add_listener([&s](const telemetry::Event& ev) {
        if (ev.type == "run_finish") s.lap();
      });
      s.lap();
      const double u0 = now_us();
      const std::vector<campaign::RunOutcome> outcomes =
          p.pool.run(p.specs, p.options);
      if (spans != nullptr) {
        spans->add("Campaign::run", Spans::kWorkload, u0, now_us());
      }
      std::string rows;
      const bool first = first_energy_.empty();
      for (const campaign::RunOutcome& out : outcomes) {
        std::string why;
        bool ok = campaign_run_ok(out, why);
        const campaign::PowerReport& rep = out.report;
        if (ok) {
          s.cycles += rep.cycles;
          // Slices ran in the workers and were timed there.
          for (unsigned i = 0; i < kSweepRunSlices; ++i) {
            s.slice_s.push_back(rep.metrics.at(slice_key("s", i)));
            s.slice_cycles.push_back(static_cast<std::uint64_t>(
                rep.metrics.at(slice_key("n", i))));
          }
          rows += out.name + " " + std::to_string(rep.cycles) + " " +
                  std::to_string(rep.transfers) + " " +
                  power::format_energy(rep.total_energy) + "\n";
          if (first) {
            first_energy_.push_back(rep.total_energy);
            Digest d = Digest::from_metrics(rep.metrics);
            d.runs = 1;
            d.cycles = rep.cycles;
            d.transfers = rep.transfers;
            d.energy_j = rep.total_energy;
            digest_.merge(d);
          } else if (first_energy_.size() != outcomes.size() ||
                     first_energy_[out.index] != rep.total_energy) {
            ok = false;
            why = out.name + ": energy differs between repeats";
          }
        }
        r.op(ok, "sweep_attr " + why);
      }
      report_ = std::move(rows);
    }
    s.lap();
    return s;
  }

  void finish(Result&) override {
    std::printf("report sweep_attr %zu runs\n%s", first_energy_.size(),
                report_.c_str());
    digest_.print("sweep_attr");
  }

private:
  /// Everything the CLI builds before the first run: specs, the pool,
  /// the journal and the event log (with a span listener when traced).
  struct Plumbing {
    Plumbing(const SweepAttr& w, Spans* spans)
        : specs(sweep_specs(w.seed_, kSweepRunCycles)),
          fingerprint(sweep_fingerprint(w.seed_, kSweepRunCycles, specs)),
          pool(campaign::Campaign::Config{
              .threads = kSweepWorkers,
              .isolation = campaign::Isolation::kProcess}),
          journal(created(w.dir_) / "campaign.journal", fingerprint),
          events(telemetry::EventLog::Config{
              .file = w.dir_ / "events.jsonl",
              .config_fingerprint = fingerprint}),
          run_spans(spans != nullptr
                        ? std::make_unique<RunSpanRecorder>(events, *spans)
                        : nullptr) {
      options.journal = &journal;
      options.events = &events;
    }

    static const std::filesystem::path& created(
        const std::filesystem::path& dir) {
      std::filesystem::create_directories(dir);
      return dir;
    }

    std::vector<campaign::RunSpec> specs;
    std::uint64_t fingerprint;
    campaign::Campaign pool;
    campaign::JournalWriter journal;
    telemetry::EventLog events;
    std::unique_ptr<RunSpanRecorder> run_spans;
    campaign::Campaign::RunOptions options;
  };

  std::uint64_t seed_;
  std::filesystem::path dir_;
  std::vector<double> first_energy_;
  Digest digest_;
  std::string report_;
};

// --- telemetry_export -------------------------------------------------------

/// One `--telemetry DIR --window 100 --txn-trace` run: metrics registry,
/// windowed series, bus-mode events and the full transaction log,
/// followed by every exporter.
class TelemetryExport final : public Workload {
public:
  TelemetryExport(std::uint64_t seed, std::filesystem::path dir)
      : seed_(seed), dir_(std::move(dir)) {}

  double nominal_rep_s() const override { return 0.45; }

  double setup_once() override {
    const Clock::time_point t0 = Clock::now();
    CaSystem sys(options());
    return seconds_since(t0);
  }

  RepStats rep(Result& r, Spans* spans) override {
    RepStats s;
    Checks c;
    {
      SpanScope span(spans, "telemetry_export", Spans::kWorkload);
      CaSystem sys(options());
      s.lap();
      run_sliced(sys, kCycles, kSlice, s, spans);
      export_all(sys, dir_, spans, [&s] { s.lap(); });
      c.expect(sys.monitor->violations().empty(),
               "telemetry_export: BusMonitor violations");
      c.expect(sys.read_mismatches() == 0,
               "telemetry_export: read-back mismatches");
      if (digest_.runs == 0) {
        digest_ = Digest::of(sys.est->fsm(), sys.monitor->stats().transfers);
      }
    }
    s.lap();
    r.op(c.ok(), c.first_failure());
    r.artifacts = dir_.string();
    return s;
  }

  void finish(Result&) override { digest_.print("telemetry_export"); }

private:
  static constexpr std::uint64_t kCycles = 10'000;
  static constexpr std::uint64_t kSlice = 100;

  [[nodiscard]] CaOptions options() const {
    return CaOptions{.seed = seed_,
                     .metrics = true,
                     .window_cycles = 100,
                     .txn_trace = true};
  }

  std::uint64_t seed_;
  std::filesystem::path dir_;
  Digest digest_;
};

// --- tlm --------------------------------------------------------------------

/// TlmBus with two TlmTrafficRunners on the paper_ca seeds and address
/// map: no kernel, so the power FSM dominates.
class Tlm final : public Workload {
public:
  explicit Tlm(std::uint64_t seed) : seed_(seed) {}

  double nominal_rep_s() const override { return 0.18; }

  double setup_once() override {
    // One elaboration takes microseconds; average a batch of them.
    constexpr int kBatch = 200;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) TlmSystem t(seed_);
    return seconds_since(t0) / kBatch;
  }

  RepStats rep(Result& r, Spans* spans) override {
    RepStats s;
    Checks c;
    {
      SpanScope span(spans, "tlm", Spans::kWorkload);
      TlmSystem t(seed_);
      s.lap();
      t.run(kCycles, [&](std::uint64_t n, double secs) {
        if (spans != nullptr) {
          const double end = now_us();
          spans->add("run_until", Spans::kTlm, end - secs * 1e6, end);
        }
        s.add_slice(secs, n);
        s.lap();
      });
      s.cycles = t.bus.cycles();
      c.expect(t.r1.mismatches() == 0 && t.r2.mismatches() == 0,
               "tlm: read-back mismatches");
      c.expect(t.bus.errors() == 0, "tlm: bus errors");
      if (digest_.runs == 0) {
        digest_ = Digest::of(t.bus.fsm(), t.bus.transfers());
        first_energy_ = t.bus.total_energy();
      }
      c.expect(t.bus.total_energy() == first_energy_,
               "tlm: energy differs between repeats");
    }
    s.lap();
    r.op(c.ok(), c.first_failure());
    return s;
  }

  void finish(Result&) override { digest_.print("tlm"); }

private:
  static constexpr std::uint64_t kCycles = 2'000'000;

  std::uint64_t seed_;
  Digest digest_;
  double first_energy_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "paper_ca") return std::make_unique<PaperCa>(a.seed);
  if (a.workload == "sweep_attr") {
    return std::make_unique<SweepAttr>(a.seed, a.workdir / "sweep");
  }
  if (a.workload == "telemetry_export") {
    return std::make_unique<TelemetryExport>(a.seed, a.workdir / "telemetry");
  }
  if (a.workload == "tlm") return std::make_unique<Tlm>(a.seed);
  return nullptr;
}

std::vector<campaign::RunSpec> sweep_specs(std::uint64_t seed,
                                           std::uint64_t cycles) {
  std::vector<campaign::RunSpec> specs;
  // Wait states outermost: the 0-wait runs, which carry the most
  // transfers and are the slowest, come first.
  for (const unsigned waits : {0u, 1u, 3u}) {
    for (const auto policy : {ahb::ArbitrationPolicy::kFixedPriority,
                              ahb::ArbitrationPolicy::kRoundRobin}) {
      for (const std::uint64_t run_seed : {seed, seed + 1000}) {
        const CaOptions o{.masters = 4,
                          .waits = waits,
                          .policy = policy,
                          .seed = run_seed,
                          .txn_trace = true};
        specs.push_back(campaign::RunSpec{
            std::string(policy_name(policy)) + "/w" + std::to_string(waits) +
                "/s" + std::to_string(run_seed),
            [o, cycles] {
              CaSystem sys(o);
              // Timed slices travel back in the report, so forked runs
              // still give per-slice host times.
              std::map<std::string, double> slices;
              for (unsigned i = 0; i < kSweepRunSlices; ++i) {
                const std::uint64_t c0 = sys.sampled_cycles();
                const Clock::time_point t0 = Clock::now();
                sys.run_cycles(cycles / kSweepRunSlices);
                slices[slice_key("s", i)] = seconds_since(t0);
                slices[slice_key("n", i)] =
                    static_cast<double>(sys.sampled_cycles() - c0);
              }
              sys.est->flush_telemetry();
              const power::AhbPowerEstimator& est = *sys.est;
              campaign::PowerReport r;
              r.total_energy = est.total_energy();
              r.blocks = est.block_totals();
              r.cycles = est.fsm().cycles();
              r.transfers = sys.monitor->stats().transfers;
              r.metrics["data_share"] = power::data_transfer_share(est.fsm());
              r.metrics["arb_share"] = power::arbitration_share(est.fsm());
              r.metrics["monitor_violations"] =
                  static_cast<double>(sys.monitor->violations().size());
              Digest::of(est.fsm(), r.transfers).to_metrics(r.metrics);
              r.metrics.merge(slices);
              const power::TransactionTracer& txn = *est.txn_tracer();
              r.bus_energy_j = txn.attribution().bus_energy();
              for (unsigned m = 0; m <= o.masters; ++m) {
                r.attribution.push_back({txn.attribution().master_energy()[m],
                                         txn.master_txns()[m]});
              }
              return r;
            }});
      }
    }
  }
  return specs;
}

void keep_fastest(std::vector<double>& best, const std::vector<double>& v) {
  if (best.empty()) {
    best = v;
    return;
  }
  for (std::size_t i = 0; i < best.size() && i < v.size(); ++i) {
    best[i] = std::min(best[i], v[i]);
  }
}

RunSpanRecorder::RunSpanRecorder(telemetry::EventLog& events, Spans& spans)
    : spans_(spans) {
  events.add_listener([this](const telemetry::Event& ev) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t run = ev.u64("run");
    if (ev.type == "run_start") {
      const auto free = std::find(lane_busy_.begin(), lane_busy_.end(), false);
      const auto lane = static_cast<int>(free - lane_busy_.begin());
      if (free == lane_busy_.end()) {
        lane_busy_.push_back(true);
      } else {
        *free = true;
      }
      open_[run] = Open{now_us(), lane};
    } else if (ev.type == "run_finish") {
      const auto it = open_.find(run);
      if (it == open_.end()) return;  // restored or never started
      spans_.add(std::string(ev.str("name")),
                 Spans::kCampaignRuns + it->second.lane, it->second.start_us,
                 now_us());
      lane_busy_[static_cast<std::size_t>(it->second.lane)] = false;
      open_.erase(it);
    }
  });
}

bool campaign_run_ok(const campaign::RunOutcome& out, std::string& why) {
  if (out.status != campaign::RunStatus::kOk) {
    why = out.name + ": status " + campaign::to_string(out.status) + " " +
          out.error;
    return false;
  }
  const campaign::PowerReport& rep = out.report;
  double attributed = rep.bus_energy_j;
  for (const auto& a : rep.attribution) attributed += a.energy_j;
  if (std::fabs(attributed - rep.total_energy) >
      1e-9 * std::fabs(rep.total_energy)) {
    why = out.name + ": attribution + bus energy != total";
    return false;
  }
  if (rep.metrics.at("monitor_violations") != 0.0) {
    why = out.name + ": BusMonitor violations";
    return false;
  }
  return true;
}

std::size_t fixed_reps(const Workload& w, double seconds) {
  return std::max(kMinReps,
                  static_cast<std::size_t>(seconds / w.nominal_rep_s()));
}

Result measure(Workload& w, const Args& a) {
  Result r;
  std::vector<double> setup;
  std::vector<double> best_s;      // per-slice minimum over reps
  std::vector<double> best_part;   // per-part minimum over reps
  std::vector<std::uint64_t> slice_cycles;
  std::size_t done = 0;
  double rss_mb = 0.0;
  std::uint64_t cycles = 0;
  const std::size_t reps = fixed_reps(w, a.seconds);
  const Clock::time_point t0 = Clock::now();
  for (; done < reps; ++done) {
    if (seconds_since(t0) > kOvertimeFactor * a.seconds) {
      std::fprintf(stderr, "warning: stopped after %zu of %zu reps\n", done,
                   reps);
      break;
    }
    // Set-up samples are spread over the timed phase, a burst per rep,
    // so they see the same host conditions as the reps.
    for (int i = 0; i < kSetupBurst; ++i) setup.push_back(w.setup_once());
    const RepStats s = w.rep(r, nullptr);
    if (done == 0) {
      // The high-water mark of doing the work once. Later reps only add
      // heap fragmentation.
      rss_mb = peak_rss_mb();
      best_s = s.slice_s;
      best_part = s.part_s;
      slice_cycles = s.slice_cycles;
      cycles = s.cycles;
    } else if (s.slice_cycles != slice_cycles || s.cycles != cycles ||
               s.part_s.size() != best_part.size()) {
      r.op(false, a.workload + ": slicing differs between repeats");
    } else {
      keep_fastest(best_s, s.slice_s);
      keep_fastest(best_part, s.part_s);
    }
  }
  while (setup.size() < kSetupSamples) setup.push_back(w.setup_once());
  const double timed_s = seconds_since(t0);
  w.finish(r);

  const EnergyGap gap = energy_gap(a.seed, kGapCycles);
  r.op(std::isfinite(gap.gap) && gap.gap > 0.0,
       "tlm_energy_gap is not a positive number");

  std::vector<double> ns;
  double busy = 0.0;
  for (std::size_t i = 0; i < best_s.size(); ++i) {
    busy += best_s[i];
    if (slice_cycles[i] > 0) {
      ns.push_back(best_s[i] * 1e9 / static_cast<double>(slice_cycles[i]));
    }
  }
  const std::size_t beyond_p90 =
      ns.size() -
      static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(ns.size())));
  if (beyond_p90 < 10) {
    std::fprintf(stderr, "warning: only %zu slices; p90 has fewer than ten "
                 "samples beyond it\n", ns.size());
  }
  std::printf("samples %s: %zu reps in %.2f s, %zu slices and %zu parts "
              "per rep (p90 has %zu beyond it), %zu set-up samples\n",
              a.workload.c_str(), done, timed_s, ns.size(), best_part.size(),
              beyond_p90, setup.size());

  r.set("cycles_per_s", static_cast<double>(cycles) / busy, "1/s");
  r.set("ns_per_cycle_p50", percentile(ns, 0.5), "ns");
  r.set("ns_per_cycle_p90", percentile(ns, 0.9), "ns");
  double wall = 0.0;
  for (const double p : best_part) wall += p;
  r.set("wall_s", wall, "s");
  r.set("setup_s", median(setup), "s");
  r.set("peak_rss_mb", rss_mb, "MB");
  r.set("tlm_energy_gap", gap.gap, "ratio");
  return r;
}

}  // namespace perfbench
