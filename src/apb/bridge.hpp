#pragma once
// AHB-to-APB bridge: the AMBA architecture's standard way of hanging
// low-bandwidth peripherals off the high-performance bus (paper Sec. 5:
// "Also located on the high-performance bus is a bridge to the lower
// bandwidth APB, where most of the system peripheral devices are
// located").
//
// The bridge is an AHB slave; each accepted AHB transfer is converted
// into one APB access (SETUP + ENABLE), stalling HREADY for the three
// wait states the conversion takes. The AhbSlave base runs the AHB side,
// including the two-cycle ERROR for unmapped APB addresses.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ahb/decoder.hpp"
#include "ahb/slave.hpp"
#include "apb/signals.hpp"

namespace ahbp::apb {

class ApbSlave;

/// The APB bus master + decoder + read-data mux, packaged as an AHB
/// slave. Construct APB peripherals (ApbSlave subclasses) against it,
/// then call finalize() (after the AHB bus's own finalize()).
class AhbToApbBridge final : public ahb::AhbSlave {
public:
  struct Config {
    std::uint32_t base = 0;  ///< AHB window mapped onto the APB space
    std::uint32_t size = 4096;
  };

  struct Stats {
    std::uint64_t apb_reads = 0;
    std::uint64_t apb_writes = 0;
    std::uint64_t decode_errors = 0;  ///< AHB ERROR for unmapped APB addresses
  };

  AhbToApbBridge(sim::Module* parent, std::string name, ahb::AhbBus& bus,
                 Config cfg);

  /// @name APB-side attachment (called by ApbSlave constructors)
  ///@{
  unsigned attach(ApbSlaveSignals& s, std::uint32_t base, std::uint32_t size);
  ///@}

  /// Completes APB elaboration (creates PSEL lines). Call once after all
  /// peripherals exist.
  void finalize();

  /// The bus clock (shared by the AHB and APB sides; APB2 has no
  /// separate PCLK domain in this model).
  using ahb::AhbSlave::clock;

  /// @name Observability (power probes, tests)
  ///@{
  [[nodiscard]] ApbMasterSignals& apb() { return apb_sig_; }
  [[nodiscard]] sim::Signal<bool>& psel(unsigned s) { return *psel_.at(s); }
  [[nodiscard]] ApbSlaveSignals& peripheral(unsigned s) { return *peripherals_.at(s); }
  [[nodiscard]] unsigned n_peripherals() const {
    return static_cast<unsigned>(ranges_.size());
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  ///@}

private:
  ahb::FaultDecision answer(const ahb::FaultQuery& t) override;
  void on_wait(unsigned left) override;
  void supply() override;
  /// APB-relative decode; returns peripheral index or UINT_MAX.
  [[nodiscard]] unsigned decode(std::uint32_t apb_addr) const;

  Config cfg_;
  Stats stats_;
  ApbMasterSignals apb_sig_;
  std::vector<ahb::AddressRange> ranges_;
  std::vector<ApbSlaveSignals*> peripherals_;
  std::vector<std::unique_ptr<sim::Signal<bool>>> psel_;
  bool finalized_ = false;

  bool op_write_ = false;
  std::uint32_t op_addr_ = 0;  ///< APB-relative address
  unsigned op_sel_ = 0;
};

}  // namespace ahbp::apb
