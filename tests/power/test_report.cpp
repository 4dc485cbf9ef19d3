// Unit tests for result rendering: instruction table, block breakdown,
// shares, windowed power series, and unit formatting.

#include "power/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

namespace ahbp::power {
namespace {

TEST(Format, Energy) {
  EXPECT_EQ(format_energy(0.0), "0 J");
  EXPECT_EQ(format_energy(14.7e-12), "14.70 pJ");
  EXPECT_EQ(format_energy(839.6e-6), "839.600 uJ");
  EXPECT_EQ(format_energy(2.5e-9), "2.500 nJ");
  EXPECT_EQ(format_energy(1.5e-3), "1.500 mJ");
  EXPECT_EQ(format_energy(3e-15), "3.00 fJ");
}

TEST(Format, Power) {
  EXPECT_EQ(format_power(0.0), "0 W");
  EXPECT_EQ(format_power(2.5e-3), "2.500 mW");
  EXPECT_EQ(format_power(150e-6), "150.000 uW");
  EXPECT_EQ(format_power(1.25), "1.250 W");
}

PowerFsm make_fsm_with_history() {
  PowerFsm fsm(PowerFsm::Config{.n_masters = 3, .n_slaves = 4});
  CycleView idle;
  idle.grant_vector = 1;
  CycleView wr = idle;
  wr.data_active = true;
  wr.data_write = true;
  wr.haddr = 0xAAAA5555;
  wr.hwdata = 0x12345678;
  CycleView rd = idle;
  rd.data_active = true;
  rd.data_write = false;
  rd.haddr = 0x5555AAAA;
  rd.hrdata = 0x87654321;
  CycleView ho = idle;
  ho.req_vector = 0b010;

  fsm.step(idle);
  for (int i = 0; i < 10; ++i) {
    fsm.step(wr);
    fsm.step(rd);
  }
  fsm.step(ho);
  fsm.step(ho);
  fsm.step(idle);
  return fsm;
}

TEST(Report, InstructionTableSortedByTotal) {
  PowerFsm fsm = make_fsm_with_history();
  const auto rows = instruction_table(fsm);
  ASSERT_GE(rows.size(), 3u);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].total_j, rows[i].total_j);
  }
  double pct = 0.0;
  for (const auto& r : rows) pct += r.percent;
  EXPECT_NEAR(pct, 100.0, 1e-6);
}

TEST(Report, FormattedTableMentionsInstructions) {
  PowerFsm fsm = make_fsm_with_history();
  const std::string s = format_instruction_table(fsm);
  EXPECT_NE(s.find("WRITE_READ"), std::string::npos);
  EXPECT_NE(s.find("READ_WRITE"), std::string::npos);
  EXPECT_NE(s.find("Total simulation energy"), std::string::npos);
}

TEST(Report, SharesPartitionSensibly) {
  PowerFsm fsm = make_fsm_with_history();
  const double data = data_transfer_share(fsm);
  const double arb = arbitration_share(fsm);
  EXPECT_GT(data, 0.5);
  EXPECT_GT(arb, 0.0);
  EXPECT_LE(data + arb, 1.0 + 1e-9);
}

TEST(Report, BlockBreakdownPercentagesSumTo100) {
  BlockEnergy e{.arb = 1e-9, .dec = 2e-9, .m2s = 5e-9, .s2m = 2e-9};
  const std::string s = format_block_breakdown(e);
  EXPECT_NE(s.find("M2S"), std::string::npos);
  EXPECT_NE(s.find("50.00 %"), std::string::npos);  // m2s = 5/10
  EXPECT_NE(s.find("10.00 %"), std::string::npos);  // arb = 1/10
}

/// A four-track (arb/dec/m2s/s2m) series of 10-cycle windows, as the
/// estimator builds it for the figure benches.
telemetry::WindowSeries block_series() {
  return telemetry::WindowSeries(telemetry::WindowSeries::Config{
      .window_ticks = 10, .tracks = {"arb", "dec", "m2s", "s2m"}});
}

constexpr sim::SimTime kTick = sim::SimTime::ns(10);

TEST(Report, FormatTraceSelectsBlock) {
  telemetry::WindowSeries ws = block_series();
  for (std::uint64_t c = 0; c < 10; ++c) ws.record(c, {0.4e-12, 0, 0, 0});
  ws.flush();
  const std::string total = format_trace(ws, kTick, "total");
  const std::string arb = format_trace(ws, kTick, "arb");
  const std::string dec = format_trace(ws, kTick, "dec");
  EXPECT_NE(total.find("40.000 uW"), std::string::npos);  // 4pJ/100ns
  EXPECT_NE(arb.find("40.000 uW"), std::string::npos);
  EXPECT_NE(dec.find("0 W"), std::string::npos);
}

TEST(Report, FormatTraceHonorsUntil) {
  telemetry::WindowSeries ws = block_series();
  for (std::uint64_t c = 0; c < 100; ++c) ws.record(c, {1e-12, 0, 0, 0});
  ws.flush();
  const std::string all = format_trace(ws, kTick, "total");
  const std::string cut = format_trace(ws, kTick, "total", sim::SimTime::ns(300));
  EXPECT_EQ(std::count(all.begin(), all.end(), '\n'), 11);  // header + 10
  EXPECT_EQ(std::count(cut.begin(), cut.end(), '\n'), 4);   // header + 3
}

TEST(Report, WindowPowerUsesCoveredTicks) {
  // A flushed partial window is divided by the cycles it covers, not by
  // the nominal window length.
  telemetry::WindowSeries ws = block_series();
  for (std::uint64_t c = 0; c < 15; ++c) ws.record(c, {0, 0, 1e-12, 1e-12});
  ws.flush();
  ASSERT_EQ(ws.windows().size(), 2u);
  for (const auto& w : ws.windows()) {
    EXPECT_NEAR(window_power(ws, w, kTick, "total"), 200e-6, 1e-15);
    EXPECT_NEAR(window_power(ws, w, kTick, "m2s"), 100e-6, 1e-15);
  }
  EXPECT_EQ(window_power(ws, ws.windows()[0], kTick, "nope"), 0.0);
}

TEST(Report, InstructionCsv) {
  PowerFsm fsm = make_fsm_with_history();
  std::ostringstream os;
  write_instruction_csv(os, fsm);
  const std::string s = os.str();
  EXPECT_NE(s.find("instruction,count,avg_pj,total_pj,percent"),
            std::string::npos);
  EXPECT_NE(s.find("WRITE_READ,"), std::string::npos);
  // One header + one line per observed instruction.
  EXPECT_EQ(static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n')),
            1 + fsm.instructions().size());
}

TEST(Report, ActivityReport) {
  PowerFsm fsm = make_fsm_with_history();
  const std::string s = format_activity_report(fsm.activity());
  EXPECT_NE(s.find("haddr"), std::string::npos);
  EXPECT_NE(s.find("hwdata"), std::string::npos);
  EXPECT_NE(s.find("mean HD"), std::string::npos);
}

TEST(Report, ActivityReportChangeProbabilityBounds) {
  Activity a;
  auto& ch = a.channel("x");
  ch.store_activity(0);
  ch.store_activity(1);
  ch.store_activity(1);
  const std::string s = format_activity_report(a);
  // P(change) = 1 change / 2 transitions = 0.5.
  EXPECT_NE(s.find("0.500"), std::string::npos);
}

}  // namespace
}  // namespace ahbp::power
