#pragma once
// Result rendering: the paper's Table 1 (per-instruction energy), the
// Fig. 6 sub-block breakdown, the Figs. 3-5 power-vs-time series, the
// per-master attribution, and the data-path-vs-arbitration energy split
// the paper's conclusion rests on.

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "power/attribution.hpp"
#include "power/power_fsm.hpp"
#include "sim/time.hpp"
#include "telemetry/window.hpp"

namespace ahbp::power {

/// One row of the Table-1-style report.
struct InstructionRow {
  std::string instruction;
  std::uint64_t count = 0;
  double average_j = 0.0;  ///< average energy per execution [J]
  double total_j = 0.0;    ///< total energy [J]
  double percent = 0.0;    ///< of the whole simulation energy
};

/// Builds the instruction table, sorted by descending total energy.
[[nodiscard]] std::vector<InstructionRow> instruction_table(const PowerFsm& fsm);

/// Renders the table in the paper's format (average / total / percent).
[[nodiscard]] std::string format_instruction_table(const PowerFsm& fsm);

/// Fraction of total energy spent in data-transfer instructions with no
/// bus handover (transitions between READ/WRITE modes, plus entering a
/// transfer from plain IDLE). The paper reports ~87% for its testbench.
[[nodiscard]] double data_transfer_share(const PowerFsm& fsm);

/// Fraction of total energy in arbitration-related instructions (any
/// instruction touching the IDLE_HO mode). The paper reports ~13%.
[[nodiscard]] double arbitration_share(const PowerFsm& fsm);

/// Renders the Fig. 6 sub-block contribution breakdown (M2S / DEC /
/// ARB / S2M percentages).
[[nodiscard]] std::string format_block_breakdown(const BlockEnergy& blocks);

/// Renders the per-master energy attribution -- the per-IP budget view:
/// one row per master plus a final "bus" row for the idle/handover
/// energy no transaction owns; the rows sum to the run total.
/// `names[i]` labels master i; missing names fall back to "master <i>".
[[nodiscard]] std::string format_master_attribution(
    const EnergyAttributor& attribution,
    const std::vector<std::string>& names = {});

/// Writes the instruction table as CSV: instruction, count, avg_pj,
/// total_pj, percent.
void write_instruction_csv(std::ostream& os, const PowerFsm& fsm);

/// Renders the per-signal switching-activity summary gathered by the
/// instrumentation (mean HD, total bit changes, change probability per
/// monitored channel).
[[nodiscard]] std::string format_activity_report(const Activity& activity);

/// Average power [W] of one window of a cycle-windowed energy series
/// (AhbPowerEstimator::windows()): `block` is a track name ("arb",
/// "dec", "m2s", "s2m") or "total" for their sum, `tick` the duration
/// of one series tick (one bus cycle). An unknown track reads 0 W.
[[nodiscard]] double window_power(const telemetry::WindowSeries& series,
                                  const telemetry::WindowSeries::Window& w,
                                  sim::SimTime tick, std::string_view block);

/// Renders one block's power series as a compact fixed-width listing
/// (used by the figure benches), one line per window labelled with its
/// start time. `block` is as for window_power(); `until` truncates the
/// series (zero = everything).
[[nodiscard]] std::string format_trace(const telemetry::WindowSeries& series,
                                       sim::SimTime tick, std::string_view block,
                                       sim::SimTime until = sim::SimTime::zero());

/// Pretty-prints an energy in engineering units (pJ/nJ/uJ).
[[nodiscard]] std::string format_energy(double joules);
/// Pretty-prints a power in engineering units (uW/mW).
[[nodiscard]] std::string format_power(double watts);

}  // namespace ahbp::power
