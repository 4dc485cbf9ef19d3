#pragma once
// Live gate-level co-simulation cross-check.
//
// The paper validated its macromodels offline with SIS. This module goes
// one step further: while the system-level bus simulates, the generated
// gate-level structures for two sub-blocks (the address-path M2S mux and
// the arbiter FSM) are driven with the *same live stimulus* the bus
// sees, and their toggle-accounted energy is recorded next to the
// macromodel's per-cycle estimate. The result is a direct, workload-
// faithful accuracy measurement (totals ratio + per-cycle correlation).

#include <cstdint>
#include <optional>
#include <vector>

#include "ahb/bus.hpp"
#include "gate/bitsim.hpp"
#include "gate/gatesim.hpp"
#include "gate/synth.hpp"
#include "power/macromodel.hpp"
#include "sim/module.hpp"

namespace ahbp::power {

/// Paired per-cycle energy series and their agreement statistics.
struct CosimSeries {
  std::vector<double> model;  ///< macromodel energy per cycle [J]
  std::vector<double> gate;   ///< gate-level reference energy per cycle [J]

  [[nodiscard]] double model_total() const;
  [[nodiscard]] double gate_total() const;
  /// Pearson correlation of the two series (0 if degenerate).
  [[nodiscard]] double correlation() const;
  /// model_total / gate_total (0 if the reference never switched).
  [[nodiscard]] double totals_ratio() const;
};

/// Runs the gate-level address mux and arbiter beside a live bus, as an
/// observer on its per-cycle sampler.
class GateLevelCrossCheck : public sim::Module, public ahb::CycleObserver {
public:
  /// How the gate-level references are evaluated.
  enum class Engine : std::uint8_t {
    kPerCycle,  ///< one GateSim eval/tick per bus cycle
    /// Buffer 64 cycles of live stimulus and replay them as the 64
    /// lanes of one gate::BitSim pass (cycle base+j = lane j; every
    /// lane's "previous" assignment comes from the lane below via a
    /// word shift, carrying the last pre-batch cycle into lane 0).
    /// Per-cycle gate energies are bit-identical to kPerCycle.
    kBatched,
  };

  GateLevelCrossCheck(sim::Module* parent, std::string name, ahb::AhbBus& bus);
  GateLevelCrossCheck(sim::Module* parent, std::string name, ahb::AhbBus& bus,
                      gate::Technology tech, Engine engine = Engine::kPerCycle);

  /// Address-path (32-bit) M2S mux: gate level vs MuxModel.
  [[nodiscard]] const CosimSeries& mux_series() const;
  /// Arbiter: gate level vs ArbiterFsmModel.
  [[nodiscard]] const CosimSeries& arbiter_series() const;

  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }
  [[nodiscard]] Engine engine() const { return engine_; }

  /// Drains buffered cycles (kBatched) into the series as a partial
  /// batch. The series accessors call this themselves; recording
  /// continues seamlessly afterwards. No-op for kPerCycle.
  void flush();

  void on_cycle(const ahb::CycleView& v) override;

private:
  void flush_batch();

  ahb::AhbBus& bus_;
  gate::Technology tech_;

  gate::MuxNetlist mux_nl_;
  gate::GateSim mux_sim_;
  MuxModel mux_model_;
  CosimSeries mux_series_;
  std::vector<std::uint32_t> prev_master_addr_;

  gate::ArbiterNetlist arb_nl_;
  gate::GateSim arb_sim_;
  ArbiterFsmModel arb_model_;
  CosimSeries arb_series_;
  ahb::CycleView prev_;  ///< the previous cycle's view

  // Batched engine state: buffered stimulus for the in-flight batch and
  // the carry (the last flushed cycle's assignment, lane 0's "previous").
  Engine engine_ = Engine::kPerCycle;
  std::optional<gate::BitSim> mux_bsim_;
  std::optional<gate::BitSim> arb_bsim_;
  std::vector<std::uint32_t> pend_addr_;  ///< n_masters entries per cycle
  std::vector<std::uint8_t> pend_sel_;    ///< one entry per cycle
  std::vector<std::uint32_t> pend_req_;   ///< one entry per cycle
  std::vector<std::uint32_t> lane_prev_addr_;
  std::uint8_t lane_prev_sel_ = 0;
  std::uint32_t lane_prev_req_ = 0;
  std::vector<std::uint64_t> pin_words_;  ///< flush scratch, no per-batch alloc

  std::uint64_t cycles_ = 0;
};

}  // namespace ahbp::power
