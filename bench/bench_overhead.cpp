// Reproduces the paper's Sec. 6 cost claim: "the price to pay for the
// application of this analysis methodology ... is a doubling in the
// simulation time". Google-benchmark measures the same 20k-cycle
// testbench run with power analysis absent, disabled, and in each of the
// three integration styles, plus the telemetry layer (metrics registry
// and windowed sampling) on top.
//
// `bench_overhead --telemetry-guard` skips google-benchmark and instead
// enforces the observability contract's overhead guarantee: attaching a
// *disabled* metrics registry must cost < 2% wall clock versus no
// registry at all (median of paired per-rep ratios, the two sides run
// in turn in short slices; see run_guard). Exit 1 on violation.
// `bench_overhead --txn-guard` does the same for the transaction tracer:
// compiled in but runtime-disabled must cost < 3% versus no tracer.
// `bench_overhead --events-guard` does it for the campaign event log: a
// campaign narrating into a *disabled* EventLog (plus an attached
// ProgressTracker) must cost < 2% versus running with no log at all.

#include <benchmark/benchmark.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/progress.hpp"
#include "common.hpp"
#include "power/styles.hpp"
#include "telemetry/events.hpp"

namespace {

using namespace ahbp;

constexpr auto kSimTime = sim::SimTime::us(200);  // 20k cycles @ 100 MHz

void BM_FunctionalOnly(benchmark::State& state) {
  for (auto _ : state) {
    bench::PaperSystem sys({.power_enabled = false});
    sys.run(kSimTime);
    benchmark::DoNotOptimize(sys.m1.stats().writes);
  }
}
BENCHMARK(BM_FunctionalOnly)->Unit(benchmark::kMillisecond);

void BM_PowerDisabled(benchmark::State& state) {
  // Estimator constructed but bypassed at runtime (POWERTEST compiled in
  // but switched off).
  for (auto _ : state) {
    bench::PaperSystem sys;
    sys.est->set_enabled(false);
    sys.run(kSimTime);
    benchmark::DoNotOptimize(sys.m1.stats().writes);
  }
}
BENCHMARK(BM_PowerDisabled)->Unit(benchmark::kMillisecond);

void BM_PowerLocalStyle(benchmark::State& state) {
  double energy = 0;
  for (auto _ : state) {
    bench::PaperSystem sys;
    sys.run(kSimTime);
    energy = sys.est->total_energy();
    benchmark::DoNotOptimize(energy);
  }
  state.counters["energy_nJ"] = energy * 1e9;
}
BENCHMARK(BM_PowerLocalStyle)->Unit(benchmark::kMillisecond);

void BM_PowerLocalWithTrace(benchmark::State& state) {
  for (auto _ : state) {
    bench::PaperSystem sys({.telemetry_window_cycles = 10});
    sys.run(kSimTime);
    benchmark::DoNotOptimize(sys.est->total_energy());
  }
}
BENCHMARK(BM_PowerLocalWithTrace)->Unit(benchmark::kMillisecond);

void BM_PowerTelemetryDisabled(benchmark::State& state) {
  // Metrics registry attached but switched off: the contract says this
  // costs one well-predicted branch per update (docs/OBSERVABILITY.md).
  for (auto _ : state) {
    telemetry::MetricsRegistry metrics;
    metrics.set_enabled(false);
    bench::PaperSystem sys({.metrics = &metrics});
    sys.run(kSimTime);
    benchmark::DoNotOptimize(sys.est->total_energy());
  }
}
BENCHMARK(BM_PowerTelemetryDisabled)->Unit(benchmark::kMillisecond);

void BM_PowerTelemetryMetrics(benchmark::State& state) {
  for (auto _ : state) {
    telemetry::MetricsRegistry metrics;
    bench::PaperSystem sys({.metrics = &metrics});
    sys.run(kSimTime);
    sys.est->flush_telemetry();
    benchmark::DoNotOptimize(
        metrics.find_histogram("ahb.power.cycle_energy_pj")->count());
  }
}
BENCHMARK(BM_PowerTelemetryMetrics)->Unit(benchmark::kMillisecond);

void BM_PowerTelemetryWindows(benchmark::State& state) {
  // Full observability stack: live metrics plus 100-cycle windowed power
  // sampling and the instruction duration-event log.
  std::size_t windows = 0;
  for (auto _ : state) {
    telemetry::MetricsRegistry metrics;
    bench::PaperSystem sys(
        {.telemetry_window_cycles = 100, .metrics = &metrics});
    sys.run(kSimTime);
    sys.est->flush_telemetry();
    windows = sys.est->windows()->windows().size();
    benchmark::DoNotOptimize(windows);
  }
  state.counters["windows"] = static_cast<double>(windows);
}
BENCHMARK(BM_PowerTelemetryWindows)->Unit(benchmark::kMillisecond);

void BM_PowerTxnTrace(benchmark::State& state) {
  // Per-transaction reconstruction and energy attribution on top of the
  // base estimator.
  std::size_t txns = 0;
  for (auto _ : state) {
    bench::PaperSystem sys({.txn_trace = true});
    sys.run(kSimTime);
    sys.est->flush_telemetry();
    txns = sys.est->txn_tracer()->log().size();
    benchmark::DoNotOptimize(txns);
  }
  state.counters["txns"] = static_cast<double>(txns);
}
BENCHMARK(BM_PowerTxnTrace)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Overhead guards: a feature compiled in but runtime-disabled must cost
// less than `max_delta` wall clock versus running without it.

/// One side of a guard's workload, built without the feature or with it
/// attached but disabled. A rep builds each side twice and runs each
/// build for kGuardSlices slices.
class GuardWorkload {
public:
  virtual ~GuardWorkload() = default;
  virtual void run_slice() = 0;
};

constexpr int kGuardSlices = 25;
constexpr auto kGuardSlice =
    sim::SimTime::fs(kSimTime.femtoseconds() / (2 * kGuardSlices));

struct OverheadGuard {
  const char* name;      ///< report prefix, e.g. "txn-trace guard"
  const char* off_name;  ///< the disabled side, e.g. "disabled-tracer"
  const char* what;      ///< failure subject, e.g. "disabled txn tracing"
  int reps;
  double max_delta;
  /// Builds one side: without the feature (false) or with it attached
  /// but disabled (true).
  std::unique_ptr<GuardWorkload> (*build)(bool with_feature);
};

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Pins the calling thread to `cpu`. Best effort: where the CPU is
/// unknown (-1) or pinning is refused, the thread stays unpinned.
void pin_to_cpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// A thread, pinned to one CPU, that runs jobs on request and times
/// them. A thread hosts one simulation kernel at a time, so the two sides
/// of a guard live on two of these and take turns.
class SideThread {
public:
  explicit SideThread(int cpu)
      : thread_([this, cpu] {
          pin_to_cpu(cpu);
          loop();
        }) {}
  ~SideThread() {
    {
      const std::lock_guard lock(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  SideThread(const SideThread&) = delete;
  SideThread& operator=(const SideThread&) = delete;

  /// Runs `job` on this thread; returns its wall time in seconds.
  double run(std::function<void()> job) {
    std::unique_lock lock(mu_);
    job_ = std::move(job);
    cv_.notify_all();
    cv_.wait(lock, [this] { return !job_; });
    return seconds_;
  }

private:
  void loop() {
    std::unique_lock lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return job_ || quit_; });
      if (quit_) return;
      lock.unlock();
      const auto t0 = std::chrono::steady_clock::now();
      job_();
      const auto t1 = std::chrono::steady_clock::now();
      lock.lock();
      seconds_ = std::chrono::duration<double>(t1 - t0).count();
      job_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> job_;  ///< set while a job is pending or running
  bool quit_ = false;
  double seconds_ = 0.0;
  std::thread thread_;  ///< last: starts once the state above exists
};

int run_guard(const OverheadGuard& g) {
  // Each rep builds both sides and runs them slice by slice in turn,
  // alternating which side goes first (ABBA), and times construction
  // and every slice. The shared host's speed drifts from one millisecond
  // to the next: whole runs timed one after the other see different
  // speeds, slices of a fraction of a millisecond taken in turn see
  // nearly the same. Both side threads and this
  // one are pinned to one CPU, so a turn hands over without moving to
  // another core's caches. Each thread allocates from its own heap, and
  // where those heaps land can make one side a few percent faster for a
  // whole process, so halfway through a rep both sides are rebuilt on the
  // other thread. The guard compares the median of the per-rep time
  // ratios, which drops the reps a burst of host load hit on one side
  // only.
  const int cpu = sched_getcpu();
  pin_to_cpu(cpu);
  SideThread threads[2] = {SideThread(cpu), SideThread(cpu)};
  std::vector<double> base(g.reps), off(g.reps), ratio(g.reps);
  for (int i = -1; i < g.reps; ++i) {  // rep -1 warms up code and allocator
    double t[2] = {0.0, 0.0};
    for (const int swap : {0, 1}) {
      std::unique_ptr<GuardWorkload> side[2];
      for (int k = 0; k <= kGuardSlices; ++k) {
        const int first = (i + k + swap) & 1;
        for (const int s : {first, 1 - first}) {
          t[s] += threads[s ^ swap].run([&g, &side, s, k] {
            if (k == 0) {
              side[s] = g.build(s == 1);
            } else {
              side[s]->run_slice();
            }
          });
        }
      }
      for (const int s : {0, 1}) {
        threads[s ^ swap].run([&side, s] { side[s].reset(); });
      }
    }
    if (i < 0) continue;
    base[i] = t[0];
    off[i] = t[1];
    ratio[i] = t[1] / t[0];
  }
  const double delta = median(ratio) - 1.0;
  std::printf("%s: baseline %.3f ms, %s %.3f ms (medians), paired delta "
              "%+.2f%% (bound < %.0f%%)\n",
              g.name, median(base) * 1e3, g.off_name, median(off) * 1e3,
              delta * 100.0, g.max_delta * 100.0);
  if (delta >= g.max_delta) {
    std::fprintf(stderr, "FAIL: %s exceeds the overhead bound\n", g.what);
    return 1;
  }
  std::puts("PASS");
  return 0;
}

/// --telemetry-guard: a disabled metrics registry versus none.
class TelemetryWorkload : public GuardWorkload {
public:
  explicit TelemetryWorkload(bool with_registry)
      : sys_({.metrics = with_registry ? &metrics_ : nullptr}) {}
  ~TelemetryWorkload() override {
    benchmark::DoNotOptimize(sys_.est->total_energy());
  }
  void run_slice() override { sys_.run(kGuardSlice); }

private:
  telemetry::MetricsRegistry metrics_{false};
  bench::PaperSystem sys_;
};

/// --txn-guard: a runtime-disabled transaction tracer versus none.
class TxnWorkload : public GuardWorkload {
public:
  explicit TxnWorkload(bool with_tracer) : sys_({.txn_trace = with_tracer}) {
    if (with_tracer) sys_.est->txn_tracer()->set_enabled(false);
  }
  ~TxnWorkload() override {
    benchmark::DoNotOptimize(sys_.est->total_energy());
  }
  // 3x the benchmark duration per rep: the disabled tracer costs one
  // branch, so the guard's enemy is scheduler noise, and longer runs
  // average bursts out.
  void run_slice() override { sys_.run(kGuardSlice * 3); }

private:
  bench::PaperSystem sys_;
};

/// --events-guard: a campaign narrating into a disabled event log (plus
/// an attached progress tracker) versus no log at all.
class EventsWorkload : public GuardWorkload {
public:
  // Many tiny runs so the per-run narration path (run_start/run_finish
  // emission, tracker bookkeeping) dominates over simulation work --
  // the worst case for the disabled sink's early-out branch. Each slice
  // is a campaign of its own over one run.
  explicit EventsWorkload(bool with_events) : log_(disabled()) {
    tracker_.attach(log_);
    if (with_events) {
      opts_.events = &log_;
      opts_.progress = &tracker_;
    }
  }
  void run_slice() override {
    benchmark::DoNotOptimize(pool_.run(run_, opts_).size());
  }

private:
  static telemetry::EventLog::Config disabled() {
    telemetry::EventLog::Config cfg;
    cfg.enabled = false;
    return cfg;
  }

  telemetry::EventLog log_;
  campaign::ProgressTracker tracker_;
  const std::vector<campaign::RunSpec> run_{{"guard", [] {
    bench::PaperSystem sys;
    sys.run(sim::SimTime::us(5));
    campaign::PowerReport r;
    r.total_energy = sys.est->total_energy();
    r.cycles = 500;
    return r;
  }}};
  const campaign::Campaign pool_{campaign::Campaign::Config{.threads = 1}};
  campaign::Campaign::RunOptions opts_;
};

template <class W>
std::unique_ptr<GuardWorkload> build(bool with_feature) {
  return std::make_unique<W>(with_feature);
}

constexpr OverheadGuard kTelemetryGuard{
    "telemetry-off guard", "disabled-registry", "disabled telemetry", 9, 0.02,
    build<TelemetryWorkload>};
constexpr OverheadGuard kTxnGuard{"txn-trace guard", "disabled-tracer",
                                  "disabled txn tracing", 13, 0.03,
                                  build<TxnWorkload>};
constexpr OverheadGuard kEventsGuard{"events-off guard", "disabled-log",
                                     "disabled event log", 9, 0.02,
                                     build<EventsWorkload>};

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry-guard") == 0) {
      return run_guard(kTelemetryGuard);
    }
    if (std::strcmp(argv[i], "--txn-guard") == 0) {
      return run_guard(kTxnGuard);
    }
    if (std::strcmp(argv[i], "--events-guard") == 0) {
      return run_guard(kEventsGuard);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
