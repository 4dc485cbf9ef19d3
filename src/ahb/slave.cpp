#include "ahb/slave.hpp"

#include <algorithm>

#include "ahb/bus.hpp"
#include "sim/report.hpp"

namespace ahbp::ahb {

using sim::SimError;

// ---------------------------------------------------------------------------
// AhbSlave

AhbSlave::AhbSlave(sim::Module* parent, std::string name, AhbBus& bus,
                   std::uint32_t base, std::uint32_t size)
    : Module(parent, std::move(name)),
      bus_(bus),
      sig_(this, "out"),
      proc_(this, "clocked", [this] { on_clock(); }) {
  index_ = bus_.attach_slave(sig_, AddressRange{base, size});
  proc_.sensitive(clock().posedge_event()).dont_initialize();
}

bool AhbSlave::selected() const { return bus_.hsel(index_).read(); }

BusSignals& AhbSlave::bus_signals() const { return bus_.bus(); }

sim::Clock& AhbSlave::clock() const { return bus_.clock(); }

FaultDecision AhbSlave::answer(const FaultQuery&) { return {}; }
void AhbSlave::on_wait(unsigned) {}
void AhbSlave::supply() {}
void AhbSlave::commit() {}

void AhbSlave::ready() {
  supply();
  sig_.hreadyout.write(true);
  phase_ = Phase::kData;
}

void AhbSlave::on_clock() {
  BusSignals& bus = bus_signals();

  // Count down outstanding SPLIT resumes, unmasking each master at the
  // arbiter when its countdown expires. Order within a cycle is
  // irrelevant: resumes only toggle independent mask bits.
  for (std::size_t i = 0; i < pending_resumes_.size();) {
    if (--pending_resumes_[i].second == 0) {
      bus_.arbiter().resume(pending_resumes_[i].first);
      pending_resumes_[i] = pending_resumes_.back();
      pending_resumes_.pop_back();
    } else {
      ++i;
    }
  }

  switch (phase_) {
    case Phase::kIdle:
      break;
    case Phase::kWait:
      on_wait(--waits_left_);
      if (waits_left_ == 0) ready();
      return;  // cannot accept a new address phase while stalled
    case Phase::kData:
      commit();
      phase_ = Phase::kIdle;
      break;
    case Phase::kResp1:
      // First response cycle (HREADY low, HRESP set) done: raise HREADY.
      sig_.hreadyout.write(true);
      phase_ = Phase::kResp2;
      return;  // cannot accept a new address phase mid-response
    case Phase::kResp2:
      // Second response cycle done: back to OKAY, ready for a transfer.
      sig_.hresp.write(raw(Resp::kOkay));
      phase_ = Phase::kIdle;
      break;
  }

  // Accept the address phase that was on the bus during the cycle that
  // just ended (only valid if the bus was ready).
  const auto htrans = static_cast<Trans>(bus.htrans.read());
  if (!(selected() && is_active(htrans) && bus.hready.read())) return;

  // HMASTER still carries the owner that issued this address phase
  // (settled value from the cycle that just ended).
  const FaultQuery t{.transfer_index = transfer_index_++,
                     .write = bus.hwrite.read(),
                     .addr = bus.haddr.read(),
                     .htrans = htrans,
                     .master = bus.hmaster.read()};
  const FaultDecision d = answer(t);
  if (d.resp != Resp::kOkay) {
    if (d.resp == Resp::kSplit) {
      bus_.arbiter().split(t.master);
      pending_resumes_.emplace_back(t.master, std::max(d.split_resume_cycles, 1u));
    }
    sig_.hresp.write(raw(d.resp));
    sig_.hreadyout.write(false);
    phase_ = Phase::kResp1;
  } else if (d.extra_waits == 0) {
    ready();
  } else {
    waits_left_ = d.extra_waits;
    sig_.hreadyout.write(false);
    phase_ = Phase::kWait;
  }
}

// ---------------------------------------------------------------------------
// MemorySlave

MemorySlave::MemorySlave(sim::Module* parent, std::string name, AhbBus& bus,
                         Config cfg)
    : AhbSlave(parent, std::move(name), bus, cfg.base, cfg.size), cfg_(cfg) {
  if (cfg_.size == 0 || cfg_.size % 4 != 0) {
    throw SimError("MemorySlave: size must be a positive multiple of 4");
  }
}

std::uint32_t MemorySlave::peek(std::uint32_t addr) const {
  const auto it = mem_.find(addr / 4);
  return it == mem_.end() ? 0 : it->second;
}

void MemorySlave::poke(std::uint32_t addr, std::uint32_t value) {
  mem_[addr / 4] = value;
}

FaultDecision MemorySlave::answer(const FaultQuery& t) {
  op_write_ = t.write;
  op_addr_ = t.addr - cfg_.base;
  FaultDecision d = cfg_.fault_hook ? cfg_.fault_hook(t) : FaultDecision{};
  switch (d.resp) {
    case Resp::kOkay:
      stats_.jitter_cycles += d.extra_waits;
      d.extra_waits += cfg_.wait_states;
      break;
    case Resp::kRetry:
      ++stats_.retries;
      break;
    case Resp::kError:
      ++stats_.errors;
      break;
    case Resp::kSplit:
      ++stats_.splits;
      break;
  }
  return d;
}

void MemorySlave::on_wait(unsigned) { ++stats_.wait_cycles; }

void MemorySlave::supply() {
  if (!op_write_) sig_.hrdata.write(peek(op_addr_));
}

void MemorySlave::commit() {
  // HWDATA was driven by the master during the cycle that just ended.
  if (op_write_) {
    poke(op_addr_, bus_signals().hwdata.read());
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }
}

// ---------------------------------------------------------------------------
// DefaultSlave

DefaultSlave::DefaultSlave(sim::Module* parent, std::string name, AhbBus& bus)
    : AhbSlave(parent, std::move(name), bus, 0, 0) {}

FaultDecision DefaultSlave::answer(const FaultQuery&) {
  ++errors_;
  return {.resp = Resp::kError};
}

}  // namespace ahbp::ahb
