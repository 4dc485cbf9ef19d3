// Integration tests for the estimator's telemetry path: cycle-windowed
// energy conservation, bus-instruction trace events, and hot-path /
// end-of-run metrics publication.

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "ahb/ahb.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"
#include "telemetry/telemetry.hpp"

namespace ahbp::power {
namespace {

using ahb::AhbBus;
using ahb::DefaultMaster;
using ahb::MemorySlave;
using ahb::TrafficMaster;

/// The paper's testbench plus a telemetry-enabled power estimator.
struct TelemetryBench {
  explicit TelemetryBench(AhbPowerEstimator::Config cfg)
      : top(nullptr, "top"),
        clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10)),
        bus(&top, "ahb", clk),
        dm(&top, "dm", bus),
        m1(&top, "m1", bus, {.addr_base = 0x0000, .addr_range = 0x1000, .seed = 11}),
        m2(&top, "m2", bus, {.addr_base = 0x1000, .addr_range = 0x1000, .seed = 22}),
        s1(&top, "s1", bus, {.base = 0x0000, .size = 0x1000}),
        s2(&top, "s2", bus, {.base = 0x1000, .size = 0x1000}),
        s3(&top, "s3", bus, {.base = 0x2000, .size = 0x1000}) {
    bus.finalize();
    est = std::make_unique<AhbPowerEstimator>(&top, "power", bus, cfg);
  }

  void run_cycles(unsigned n) {
    kernel.run(sim::SimTime::ns(10) * static_cast<std::int64_t>(n));
  }

  sim::Kernel kernel;
  sim::Module top;
  sim::Clock clk;
  AhbBus bus;
  DefaultMaster dm;
  TrafficMaster m1, m2;
  MemorySlave s1, s2, s3;
  std::unique_ptr<AhbPowerEstimator> est;
};

TEST(EstimatorTelemetry, DisabledByDefault) {
  TelemetryBench b(AhbPowerEstimator::Config{});
  b.run_cycles(100);
  EXPECT_EQ(b.est->windows(), nullptr);
  EXPECT_FALSE(b.est->trace_events().has_value());
  b.est->flush_telemetry();  // no-op, must not crash
}

TEST(EstimatorTelemetry, WindowEnergiesSumToTotal) {
  TelemetryBench b(
      AhbPowerEstimator::Config{.telemetry_window_cycles = 100});
  b.run_cycles(2000);
  b.est->flush_telemetry();

  ASSERT_NE(b.est->windows(), nullptr);
  const auto& windows = b.est->windows()->windows();
  ASSERT_GE(windows.size(), 19u);  // ~2000 cycles / 100 per window

  double sum = 0.0;
  for (const auto& w : windows) {
    for (const double v : w.values) sum += v;
  }
  const double total = b.est->total_energy();
  ASSERT_GT(total, 0.0);
  EXPECT_NEAR(sum, total, 1e-9 * total);  // the conservation guarantee
}

TEST(EstimatorTelemetry, WindowsTileTheCycleAxis) {
  TelemetryBench b(
      AhbPowerEstimator::Config{.telemetry_window_cycles = 64});
  b.run_cycles(1000);
  b.est->flush_telemetry();
  const auto& windows = b.est->windows()->windows();
  ASSERT_FALSE(windows.empty());
  std::uint64_t expect_start = windows.front().start_tick;
  std::uint64_t covered = 0;
  for (const auto& w : windows) {
    EXPECT_EQ(w.start_tick, expect_start);
    expect_start += 64;
    covered += w.ticks;
  }
  EXPECT_EQ(covered, b.est->fsm().cycles());
}

TEST(EstimatorTelemetry, TraceEventsTileTheRun) {
  TelemetryBench b(
      AhbPowerEstimator::Config{.telemetry_window_cycles = 100});
  b.run_cycles(500);
  b.est->flush_telemetry();

  const auto log = b.est->trace_events();
  ASSERT_TRUE(log.has_value());
  const auto& events = log->events();
  ASSERT_FALSE(events.empty());
  // Slices are contiguous, non-overlapping, and cover every sampled
  // cycle: each run of same-mode cycles becomes exactly one slice.
  std::uint64_t pos = events.front().start_tick;
  std::uint64_t dur_sum = 0;
  for (const auto& e : events) {
    EXPECT_EQ(e.start_tick, pos);
    EXPECT_GT(e.dur_ticks, 0u);
    EXPECT_EQ(e.category, "bus");
    pos += e.dur_ticks;
    dur_sum += e.dur_ticks;
  }
  EXPECT_EQ(dur_sum, b.est->fsm().cycles());
  // Slice names are the paper's four bus instructions.
  for (const auto& e : events) {
    EXPECT_TRUE(e.name == "IDLE" || e.name == "IDLE_HO" || e.name == "READ" ||
                e.name == "WRITE")
        << e.name;
  }
}

TEST(EstimatorTelemetry, TraceEventsAreRenderedAtExport) {
  static_assert(std::is_trivially_copyable_v<ModeRun>);
  TelemetryBench b(
      AhbPowerEstimator::Config{.telemetry_window_cycles = 100});
  b.run_cycles(400);
  // Before the flush the open run is not yet a slice; the flush adds it
  // as the tail, ending at the last sampled cycle.
  const std::size_t closed = b.est->trace_events()->size();
  b.est->flush_telemetry();
  const auto log = b.est->trace_events();
  ASSERT_TRUE(log.has_value());
  ASSERT_EQ(log->size(), closed + 1);
  const telemetry::TraceEvent& tail = log->events().back();
  EXPECT_EQ(tail.start_tick + tail.dur_ticks, b.est->fsm().cycles());
  for (std::size_t i = 0; i < log->size(); ++i) {
    const telemetry::TraceEvent& e = log->events()[i];
    EXPECT_EQ(e.tid, 1);
    EXPECT_TRUE(e.args_json.empty());
    // One slice per mode change: neighbours never share a mode.
    if (i > 0) {
      EXPECT_NE(e.name, log->events()[i - 1].name);
    }
  }
}

TEST(EstimatorTelemetry, FlushIsIdempotent) {
  TelemetryBench b(
      AhbPowerEstimator::Config{.telemetry_window_cycles = 100});
  b.run_cycles(300);
  b.est->flush_telemetry();
  const std::size_t n_windows = b.est->windows()->windows().size();
  const std::size_t n_events = b.est->trace_events()->size();
  b.est->flush_telemetry();
  EXPECT_EQ(b.est->windows()->windows().size(), n_windows);
  EXPECT_EQ(b.est->trace_events()->size(), n_events);
}

TEST(EstimatorTelemetry, LiveMetricsAndPublishedTotals) {
  telemetry::MetricsRegistry metrics;
  TelemetryBench b(AhbPowerEstimator::Config{.metrics = &metrics});
  b.run_cycles(400);

  // Hot-path metrics are live during the run.
  const telemetry::Histogram* h =
      metrics.find_histogram("ahb.power.cycle_energy_pj");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), b.est->fsm().cycles());
  // The histogram's sum is the run's energy in pJ.
  EXPECT_NEAR(h->sum() * 1e-12, b.est->total_energy(),
              1e-9 * b.est->total_energy());

  // End-of-run totals appear on flush.
  EXPECT_EQ(metrics.find_counter("ahb.power.cycles"), nullptr);
  b.est->flush_telemetry();
  const telemetry::Counter* cycles = metrics.find_counter("ahb.power.cycles");
  ASSERT_NE(cycles, nullptr);
  EXPECT_EQ(cycles->value(), b.est->fsm().cycles());
  const telemetry::Gauge* total = metrics.find_gauge("ahb.power.energy.total_j");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->value(), b.est->total_energy());

  // Publication happens once even if flushed again.
  b.est->flush_telemetry();
  EXPECT_EQ(cycles->value(), b.est->fsm().cycles());
}

TEST(EstimatorTelemetry, DisabledRegistryStaysEmptyButRunProceeds) {
  telemetry::MetricsRegistry metrics;
  metrics.set_enabled(false);
  TelemetryBench b(AhbPowerEstimator::Config{.metrics = &metrics});
  b.run_cycles(200);
  b.est->flush_telemetry();
  EXPECT_GT(b.est->total_energy(), 0.0);  // power analysis unaffected
  const telemetry::Histogram* h =
      metrics.find_histogram("ahb.power.cycle_energy_pj");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 0u);  // updates bypassed
}

TEST(EstimatorTelemetry, PerInstructionMetricsMatchFsm) {
  telemetry::MetricsRegistry metrics;
  TelemetryBench b(AhbPowerEstimator::Config{.metrics = &metrics});
  b.run_cycles(300);
  b.est->flush_telemetry();

  std::uint64_t from_metrics = 0;
  for (const auto& [name, c] : metrics.counters()) {
    if (name.rfind("ahb.power.instr.", 0) == 0) from_metrics += c.value();
  }
  // Every sampled cycle executes exactly one instruction (the first
  // cycle counts as a self-transition), so the counts sum to cycles().
  EXPECT_EQ(from_metrics, b.est->fsm().cycles());
}

}  // namespace
}  // namespace ahbp::power
