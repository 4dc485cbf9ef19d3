#include "apb/bridge.hpp"

#include "ahb/bus.hpp"
#include "sim/report.hpp"

namespace ahbp::apb {

using sim::SimError;

AhbToApbBridge::AhbToApbBridge(sim::Module* parent, std::string name,
                               ahb::AhbBus& bus, Config cfg)
    : AhbSlave(parent, std::move(name), bus, cfg.base, cfg.size),
      cfg_(cfg),
      apb_sig_(this, "apb") {
  if (cfg_.size == 0 || cfg_.size % 4 != 0) {
    throw SimError("AhbToApbBridge: size must be a positive multiple of 4");
  }
}

unsigned AhbToApbBridge::attach(ApbSlaveSignals& s, std::uint32_t base,
                                std::uint32_t size) {
  if (finalized_) throw SimError("bridge: attach after finalize");
  if (size == 0) throw SimError("bridge: empty peripheral range");
  const ahb::AddressRange range{base, size};
  if (base + size > cfg_.size) {
    throw SimError("bridge: peripheral range outside the APB window");
  }
  for (const auto& r : ranges_) {
    if (r.overlaps(range)) throw SimError("bridge: overlapping peripheral ranges");
  }
  ranges_.push_back(range);
  peripherals_.push_back(&s);
  return static_cast<unsigned>(ranges_.size() - 1);
}

void AhbToApbBridge::finalize() {
  if (finalized_) throw SimError("bridge: finalize called twice");
  for (unsigned s = 0; s < ranges_.size(); ++s) {
    psel_.push_back(
        std::make_unique<sim::Signal<bool>>(this, "psel" + std::to_string(s), false));
  }
  finalized_ = true;
}

unsigned AhbToApbBridge::decode(std::uint32_t apb_addr) const {
  for (unsigned s = 0; s < ranges_.size(); ++s) {
    if (ranges_[s].contains(apb_addr)) return s;
  }
  return UINT32_MAX;
}

ahb::FaultDecision AhbToApbBridge::answer(const ahb::FaultQuery& t) {
  if (!finalized_) throw SimError("bridge: ran without finalize()");
  op_write_ = t.write;
  op_addr_ = t.addr - cfg_.base;
  op_sel_ = decode(op_addr_);
  if (op_sel_ == UINT32_MAX) {
    // Unmapped peripheral space: the protocol's two-cycle AHB ERROR.
    ++stats_.decode_errors;
    return {.resp = ahb::Resp::kError};
  }
  // One cycle for the AHB write data to settle, then SETUP and ENABLE.
  return {.extra_waits = 3};
}

void AhbToApbBridge::on_wait(unsigned left) {
  if (left == 2) {
    // The AHB data phase settled during the last cycle: write data is
    // now valid. Launch the APB SETUP cycle.
    apb_sig_.paddr.write(op_addr_);
    apb_sig_.pwrite.write(op_write_);
    if (op_write_) apb_sig_.pwdata.write(bus_signals().hwdata.read());
    psel_[op_sel_]->write(true);
    apb_sig_.penable.write(false);
  } else if (left == 1) {
    apb_sig_.penable.write(true);  // the APB ENABLE cycle
  }
}

void AhbToApbBridge::supply() {
  // The ENABLE cycle just completed: the peripheral committed a write /
  // its read data settled. Finish the AHB side.
  if (!op_write_) {
    sig_.hrdata.write(peripherals_[op_sel_]->prdata.read());
    ++stats_.apb_reads;
  } else {
    ++stats_.apb_writes;
  }
  psel_[op_sel_]->write(false);
  apb_sig_.penable.write(false);
}

}  // namespace ahbp::apb
