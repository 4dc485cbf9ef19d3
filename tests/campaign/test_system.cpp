// SystemSpec as a campaign's identity: every field that determines
// results moves the sweep fingerprint, and nothing else does.

#include "campaign/system.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace ahbp::campaign {
namespace {

constexpr std::uint64_t kCycles = 2000;

std::vector<SweepPoint> points_with(const SystemSpec& spec) {
  return {{"a", SystemSpec{.monitor = true}}, {"b", spec}};
}

std::uint64_t fingerprint_of(const SystemSpec& spec) {
  return sweep_fingerprint(points_with(spec), kCycles, Campaign::Config{});
}

TEST(SystemFingerprint, EveryResultFieldChangesIt) {
  const SystemSpec base;
  const std::uint64_t f0 = fingerprint_of(base);
  const std::vector<std::pair<const char*, std::function<void(SystemSpec&)>>>
      edits{
          {"policy", [](SystemSpec& s) { s.policy = ahb::ArbitrationPolicy::kRoundRobin; }},
          {"wait_states", [](SystemSpec& s) { s.wait_states = 1; }},
          {"slaves", [](SystemSpec& s) { s.slaves = 4; }},
          {"seed value", [](SystemSpec& s) { s.seeds[1] = 203; }},
          {"master count", [](SystemSpec& s) { s.seeds.push_back(303); }},
          {"fault_seed on", [](SystemSpec& s) { s.fault_seed = 7; }},
          {"monitor", [](SystemSpec& s) { s.monitor = true; }},
          {"power", [](SystemSpec& s) { s.power = false; }},
          {"telemetry_window_cycles", [](SystemSpec& s) { s.telemetry_window_cycles = 100; }},
          {"txn_trace", [](SystemSpec& s) { s.txn_trace = true; }},
      };
  for (const auto& [field, edit] : edits) {
    SystemSpec changed = base;
    edit(changed);
    EXPECT_NE(fingerprint_of(changed), f0) << field;
  }
  SystemSpec faults7 = base, faults8 = base;
  faults7.fault_seed = 7;
  faults8.fault_seed = 8;
  EXPECT_NE(fingerprint_of(faults7), fingerprint_of(faults8));
}

TEST(SystemFingerprint, CoversNamesCyclesAndRunBudget) {
  const std::vector<SweepPoint> points = points_with(SystemSpec{});
  const std::uint64_t f0 = sweep_fingerprint(points, kCycles, Campaign::Config{});
  std::vector<SweepPoint> renamed = points;
  renamed[1].name = "c";
  EXPECT_NE(sweep_fingerprint(renamed, kCycles, Campaign::Config{}), f0);
  EXPECT_NE(sweep_fingerprint(points, kCycles + 1, Campaign::Config{}), f0);
  Campaign::Config budget;
  budget.run_budget.max_wall_seconds = 60.0;
  EXPECT_NE(sweep_fingerprint(points, kCycles, budget), f0);
  budget = Campaign::Config{};
  budget.run_budget.max_cycles = 10;
  EXPECT_NE(sweep_fingerprint(points, kCycles, budget), f0);
}

TEST(SystemFingerprint, ThreadsIsolationAndMetricsSinkLeaveItUnchanged) {
  const std::uint64_t f0 = fingerprint_of(SystemSpec{});
  telemetry::MetricsRegistry metrics;
  EXPECT_EQ(fingerprint_of(SystemSpec{.metrics = &metrics}), f0);

  const std::atomic<bool> cancel{false};
  Campaign::Config pool;
  pool.threads = 7;
  pool.isolation = Isolation::kProcess;
  pool.cancel = &cancel;
  EXPECT_EQ(sweep_fingerprint(points_with(SystemSpec{}), kCycles, pool), f0);
}

TEST(SystemSpecText, NamesTheFaultRateCard) {
  EXPECT_NE(canonical_text(SystemSpec{}).find("faults=off"), std::string::npos);
  const std::string text = canonical_text(SystemSpec{.fault_seed = 7});
  EXPECT_NE(text.find("faults=7{retry=0.02,error=0.005,split=0,jitter=0.05,"
                      "max_extra_waits=3,"),
            std::string::npos)
      << text;
}

TEST(System, ElaboratesTheAddressMapAndSeeds) {
  // Round robin, so the third master is not starved by the other two.
  System sys({.policy = ahb::ArbitrationPolicy::kRoundRobin,
              .slaves = 2,
              .seeds = strided_seeds(5, 3),
              .monitor = true});
  ASSERT_EQ(sys.masters.size(), 3u);
  ASSERT_EQ(sys.slaves.size(), 2u);
  EXPECT_NE(sys.mon, nullptr);
  EXPECT_NE(sys.est, nullptr);
  EXPECT_EQ(sys.injector, nullptr);
  EXPECT_EQ(sys.masters[2]->full_name(), "top.m3");
  const PowerReport r = sys.run(1000);
  EXPECT_EQ(r.cycles, 999u);
  EXPECT_GT(r.transfers, 0u);
  // The third master wraps onto slave 0 (2 % 2): every address it
  // draws is mapped, so none ends in the default slave's ERROR.
  EXPECT_GT(sys.masters[2]->stats().writes, 0u);
  EXPECT_EQ(sys.masters[2]->stats().error_responses, 0u);
  EXPECT_TRUE(r.attribution.empty());
  EXPECT_GT(r.metrics.at("data_share"), 0.0);
}

TEST(System, RejectsAnEmptySlaveMap) {
  // Master m targets slave m % slaves: zero slaves has no address map.
  EXPECT_THROW(System({.slaves = 0}), sim::SimError);
}

TEST(System, RunSpecMatchesADirectRun) {
  const SystemSpec spec{.wait_states = 1, .txn_trace = true};
  const PowerReport direct = System(spec).run(500);
  const PowerReport via_spec = run_spec("x", spec, 500).run();
  EXPECT_EQ(direct.total_energy, via_spec.total_energy);
  EXPECT_EQ(direct.cycles, via_spec.cycles);
  ASSERT_EQ(via_spec.attribution.size(), 3u);  // default master + 2
  double sum = via_spec.bus_energy_j;
  for (const auto& a : via_spec.attribution) sum += a.energy_j;
  EXPECT_NEAR(sum, via_spec.total_energy, 1e-9 * via_spec.total_energy);
}

}  // namespace
}  // namespace ahbp::campaign
