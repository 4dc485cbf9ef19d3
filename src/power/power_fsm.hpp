#pragma once
// The power finite-state machine (Sec. 5.4 of the paper).
//
// Bus activity is abstracted into four modes -- IDLE, IDLE with bus
// handover (IDLE_HO), READ and WRITE -- and the *instruction set* is the
// set of permissible transitions between them (IDLE_WRITE, WRITE_READ,
// IDLE_HO_IDLE_HO, ...). Every simulated bus cycle executes exactly one
// instruction; its energy is computed by composing the sub-block
// macromodels with the cycle's observed switching activity, and
// accumulated per instruction -- which yields the paper's Table 1.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "ahb/cycle_view.hpp"
#include "gate/tech.hpp"
#include "power/activity.hpp"
#include "power/macromodel.hpp"
#include "telemetry/metrics.hpp"

namespace ahbp::power {

/// The four activity modes of the AHB power FSM.
enum class BusMode : std::uint8_t { kIdle, kIdleHo, kRead, kWrite };

[[nodiscard]] const char* to_string(BusMode m);
/// Instruction name in the paper's style, e.g. "WRITE_READ",
/// "IDLE_HO_IDLE_HO". The 16 possible names are interned once in a
/// static table; the view is valid for the program's lifetime.
[[nodiscard]] std::string_view instruction_view(BusMode from, BusMode to);
/// Owning copy of instruction_view() for callers that need a string.
[[nodiscard]] std::string instruction_name(BusMode from, BusMode to);

/// Per-sub-block energy amounts [J] (the paper's Fig. 6 quantities).
struct BlockEnergy {
  double arb = 0.0;  ///< arbiter
  double dec = 0.0;  ///< address decoder
  double m2s = 0.0;  ///< masters-to-slaves data/control mux
  double s2m = 0.0;  ///< slaves-to-masters data/control mux

  [[nodiscard]] double total() const { return arb + dec + m2s + s2m; }
  BlockEnergy& operator+=(const BlockEnergy& o) {
    arb += o.arb;
    dec += o.dec;
    m2s += o.m2s;
    s2m += o.s2m;
    return *this;
  }
};

/// One cycle's settled bus values; defined beside the bus sampler that
/// builds it.
using CycleView = ahb::CycleView;

/// The instruction-level power model of the AHB bus.
///
/// Drive step() once per bus cycle with the settled signal values; query
/// the per-instruction energy table and the per-block totals afterwards.
class PowerFsm {
public:
  struct Config {
    unsigned n_masters = 3;
    unsigned n_slaves = 4;       ///< including the default slave
    unsigned data_width = 32;    ///< HWDATA/HRDATA bits
    unsigned addr_width = 32;    ///< HADDR bits
    unsigned control_width = 8;  ///< HTRANS+HWRITE+HSIZE+HBURST bundle
    gate::Technology tech = gate::Technology::default_2003();
    /// Mux macromodel coefficients; replace with charlib-fitted values
    /// (MuxCharacterization::calibrated) to sharpen absolute accuracy.
    MuxModel::Coefficients m2s_coefficients{};
    MuxModel::Coefficients s2m_coefficients{};
  };

  struct InstrStats {
    std::uint64_t count = 0;
    double energy = 0.0;  ///< total [J]
    [[nodiscard]] double average() const {
      return count == 0 ? 0.0 : energy / static_cast<double>(count);
    }
  };

  struct StepResult {
    BusMode from;        ///< previous mode
    BusMode mode;        ///< mode of the cycle just classified
    BlockEnergy blocks;  ///< energy of this cycle per block
    /// Executed instruction name (interned; the hot path carries only
    /// the mode pair and the lookup allocates nothing).
    [[nodiscard]] std::string_view instruction() const {
      return instruction_view(from, mode);
    }
  };

  explicit PowerFsm(Config cfg);

  /// Classifies and accounts one bus cycle.
  StepResult step(const CycleView& v);

  /// Accounts `n` consecutive cycles with the *same* view. After the
  /// first repetition all Hamming distances are zero, so the remaining
  /// cycles cost a constant steady-state energy -- this computes them in
  /// O(1) instead of O(n). Used by the transaction-level fast model.
  void step_repeated(const CycleView& v, std::uint64_t n);

  /// @name Results
  ///@{
  /// The instruction table (name -> stats), built from the internal
  /// 4x4 transition array; only executed instructions appear.
  [[nodiscard]] std::map<std::string, InstrStats> instructions() const;
  [[nodiscard]] const BlockEnergy& block_totals() const { return blocks_; }
  [[nodiscard]] double total_energy() const { return blocks_.total(); }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] BusMode mode() const { return mode_; }
  /// The instrumentation-side activity storage (paper's Activity
  /// object). The hot path accumulates into an SoA PackedActivity; this
  /// accessor materializes the map-of-channels view on demand, with
  /// per-channel statistics identical to the former per-channel
  /// storage.
  [[nodiscard]] const Activity& activity() const {
    packed_.export_to(activity_view_);
    return activity_view_;
  }
  ///@}

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Publishes the accumulated results into a metrics registry under
  /// `prefix` (default "ahb.power"), following the naming contract of
  /// docs/OBSERVABILITY.md: `<prefix>.cycles`,
  /// `<prefix>.instr.<name>.count` / `.energy_j` for every *executed*
  /// instruction (names lowercased), `<prefix>.energy.<block>_j`,
  /// and `<prefix>.energy.total_j`. Per-master energy is the
  /// TransactionTracer's (`ahb.txn.master.<i>.energy_j`).
  /// Counters are cumulative -- call once per run.
  void publish_metrics(telemetry::MetricsRegistry& registry,
                       const std::string& prefix = "ahb.power") const;

  void reset();

private:
  [[nodiscard]] BusMode classify(const CycleView& v, bool handover) const;

  Config cfg_;
  DecoderModel dec_model_;
  MuxModel m2s_model_;
  MuxModel s2m_model_;
  ArbiterFsmModel arb_model_;

  /// Monitored-signal indices into the packed SoA capture. Order is the
  /// store order of the former per-channel code; the names live in
  /// kChannelNames (power_fsm.cpp).
  enum Channel : std::size_t {
    kChHaddr = 0,
    kChHcontrol,
    kChHwdata,
    kChHrdata,
    kChHresp,
    kChHbusreq,
    kChHgrant,
    kChDataSlave,
    kChHmaster,
    kNumChannels,
  };
  /// Hot-path activity storage: all nine channels observed with one
  /// packed XOR+popcount pass per cycle (SoA; no pointer chasing).
  PackedActivity packed_;
  /// Lazily materialized map view handed out by activity().
  mutable Activity activity_view_;

  BusMode mode_ = BusMode::kIdle;
  bool first_cycle_ = true;
  CycleView prev_;
  std::uint64_t cycles_ = 0;
  BlockEnergy blocks_;
  /// Transition-indexed stats: [from * 4 + to].
  std::array<InstrStats, 16> instr_{};
};

}  // namespace ahbp::power
