#include "power/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace ahbp::power {

namespace {

std::string fixed(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

bool touches_idle_ho(const std::string& instruction) {
  return instruction.find("IDLE_HO") != std::string::npos;
}

bool is_data_transfer_no_handover(const std::string& instruction) {
  if (touches_idle_ho(instruction)) return false;
  // Transitions whose destination is a transfer mode: READ_WRITE,
  // WRITE_READ, WRITE_WRITE, READ_READ, IDLE_WRITE, IDLE_READ.
  return instruction.ends_with("_READ") || instruction.ends_with("_WRITE");
}

}  // namespace

std::string format_energy(double joules) {
  const double a = std::fabs(joules);
  if (a >= 1e-3) return fixed(joules * 1e3, 3) + " mJ";
  if (a >= 1e-6) return fixed(joules * 1e6, 3) + " uJ";
  if (a >= 1e-9) return fixed(joules * 1e9, 3) + " nJ";
  if (a >= 1e-12) return fixed(joules * 1e12, 2) + " pJ";
  if (a == 0.0) return "0 J";
  return fixed(joules * 1e15, 2) + " fJ";
}

std::string format_power(double watts) {
  const double a = std::fabs(watts);
  if (a >= 1.0) return fixed(watts, 3) + " W";
  if (a >= 1e-3) return fixed(watts * 1e3, 3) + " mW";
  if (a >= 1e-6) return fixed(watts * 1e6, 3) + " uW";
  if (a == 0.0) return "0 W";
  return fixed(watts * 1e9, 3) + " nW";
}

std::vector<InstructionRow> instruction_table(const PowerFsm& fsm) {
  const double total = fsm.total_energy();
  std::vector<InstructionRow> rows;
  for (const auto& [name, st] : fsm.instructions()) {
    InstructionRow r;
    r.instruction = name;
    r.count = st.count;
    r.average_j = st.average();
    r.total_j = st.energy;
    r.percent = total > 0 ? 100.0 * st.energy / total : 0.0;
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end(),
            [](const InstructionRow& a, const InstructionRow& b) {
              return a.total_j > b.total_j;
            });
  return rows;
}

std::string format_instruction_table(const PowerFsm& fsm) {
  std::ostringstream os;
  os << "Instruction            Count      Avg energy    Total energy   Share\n";
  os << "-------------------------------------------------------------------\n";
  for (const InstructionRow& r : instruction_table(fsm)) {
    char line[160];
    std::snprintf(line, sizeof line, "%-20s %9llu %13s %15s %6.2f %%\n",
                  r.instruction.c_str(), static_cast<unsigned long long>(r.count),
                  format_energy(r.average_j).c_str(),
                  format_energy(r.total_j).c_str(), r.percent);
    os << line;
  }
  os << "-------------------------------------------------------------------\n";
  os << "Total simulation energy: " << format_energy(fsm.total_energy()) << " over "
     << fsm.cycles() << " cycles\n";
  return os.str();
}

double data_transfer_share(const PowerFsm& fsm) {
  const double total = fsm.total_energy();
  if (total <= 0) return 0.0;
  double e = 0.0;
  for (const auto& [name, st] : fsm.instructions()) {
    if (is_data_transfer_no_handover(name)) e += st.energy;
  }
  return e / total;
}

double arbitration_share(const PowerFsm& fsm) {
  const double total = fsm.total_energy();
  if (total <= 0) return 0.0;
  double e = 0.0;
  for (const auto& [name, st] : fsm.instructions()) {
    if (touches_idle_ho(name)) e += st.energy;
  }
  return e / total;
}

std::string format_block_breakdown(const BlockEnergy& blocks) {
  const double total = blocks.total();
  auto pct = [&](double v) { return total > 0 ? 100.0 * v / total : 0.0; };
  std::ostringstream os;
  os << "AHB sub-block energy contribution (paper Fig. 6):\n";
  char line[128];
  std::snprintf(line, sizeof line, "  M2S  %10s  %6.2f %%\n",
                format_energy(blocks.m2s).c_str(), pct(blocks.m2s));
  os << line;
  std::snprintf(line, sizeof line, "  DEC  %10s  %6.2f %%\n",
                format_energy(blocks.dec).c_str(), pct(blocks.dec));
  os << line;
  std::snprintf(line, sizeof line, "  ARB  %10s  %6.2f %%\n",
                format_energy(blocks.arb).c_str(), pct(blocks.arb));
  os << line;
  std::snprintf(line, sizeof line, "  S2M  %10s  %6.2f %%\n",
                format_energy(blocks.s2m).c_str(), pct(blocks.s2m));
  os << line;
  return os.str();
}

std::string format_master_attribution(const EnergyAttributor& attribution,
                                      const std::vector<std::string>& names) {
  const auto& per = attribution.master_energy();
  const double total = attribution.masters_total() + attribution.bus_energy();
  std::ostringstream os;
  os << "Per-master bus energy attribution:\n";
  auto row = [&](const std::string& label, double e) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-16s %10s  %6.2f %%\n", label.c_str(),
                  format_energy(e).c_str(), total > 0 ? 100.0 * e / total : 0.0);
    os << line;
  };
  for (std::size_t m = 0; m < per.size(); ++m) {
    row(m < names.size() ? names[m] : "master " + std::to_string(m), per[m]);
  }
  row("bus", attribution.bus_energy());
  return os.str();
}

void write_instruction_csv(std::ostream& os, const PowerFsm& fsm) {
  os << "instruction,count,avg_pj,total_pj,percent\n";
  for (const InstructionRow& r : instruction_table(fsm)) {
    os << r.instruction << ',' << r.count << ',' << r.average_j * 1e12 << ','
       << r.total_j * 1e12 << ',' << r.percent << '\n';
  }
}

std::string format_activity_report(const Activity& activity) {
  std::ostringstream os;
  os << "Signal switching activity (instrumentation summary):\n";
  os << "  channel        samples     bit changes   mean HD   P(change)\n";
  // Activity stores channels unordered; sort names so the report is
  // deterministic across runs and platforms.
  std::vector<const std::string*> names;
  names.reserve(activity.channels().size());
  for (const auto& kv : activity.channels()) names.push_back(&kv.first);
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* name : names) {
    const ActivityChannel& ch = *activity.find(*name);
    const double p_change =
        ch.sample_count() > 1
            ? static_cast<double>(ch.nonzero_count()) /
                  static_cast<double>(ch.sample_count() - 1)
            : 0.0;
    char line[128];
    std::snprintf(line, sizeof line, "  %-12s %9llu %15llu %9.3f %10.3f\n",
                  name->c_str(),
                  static_cast<unsigned long long>(ch.sample_count()),
                  static_cast<unsigned long long>(ch.bit_change_count()),
                  ch.mean_hd(), p_change);
    os << line;
  }
  return os.str();
}

double window_power(const telemetry::WindowSeries& series,
                    const telemetry::WindowSeries::Window& w, sim::SimTime tick,
                    std::string_view block) {
  double e = 0.0;
  const auto& tracks = series.tracks();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    if (block == "total" || block == tracks[i]) e += w.values[i];
  }
  return e / (static_cast<double>(w.ticks) * tick.to_seconds());
}

std::string format_trace(const telemetry::WindowSeries& series,
                         sim::SimTime tick, std::string_view block,
                         sim::SimTime until) {
  std::ostringstream os;
  os << "time         P_" << block << '\n';
  for (const auto& w : series.windows()) {
    const sim::SimTime start = tick * static_cast<std::int64_t>(w.start_tick);
    if (until > sim::SimTime::zero() && start >= until) break;
    char line[96];
    std::snprintf(line, sizeof line, "%-12s %s\n", start.to_string().c_str(),
                  format_power(window_power(series, w, tick, block)).c_str());
    os << line;
  }
  return os.str();
}

}  // namespace ahbp::power
