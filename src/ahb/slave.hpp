#pragma once
// AHB slaves: the base class that runs every slave's response machine
// (accept, wait states, two-cycle RETRY/ERROR/SPLIT, HSPLITx resume), the
// memory slave with configurable wait states and an optional fault hook,
// and the default slave (ERROR to every active transfer into unmapped
// space).

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ahb/signals.hpp"
#include "sim/clock.hpp"
#include "sim/module.hpp"
#include "sim/process.hpp"

namespace ahbp::ahb {

class AhbBus;

/// How a slave answers one accepted transfer: returned by a FaultHook
/// (see MemorySlave::Config::fault_hook) and by AhbSlave::answer(). The
/// default is a clean transfer. The ahb layer stays ignorant of fault
/// *scheduling*; src/fault/ builds deterministic seed-driven hooks on top
/// of this interface.
struct FaultDecision {
  /// kOkay = complete normally; kRetry/kError/kSplit = two-cycle
  /// protocol response of that kind instead of completing.
  Resp resp = Resp::kOkay;
  /// Wait states of this transfer's data phase, OKAY responses only. A
  /// MemorySlave adds its configured wait_states to a hook's.
  unsigned extra_waits = 0;
  /// For kSplit: clock cycles after the SPLIT response until the slave
  /// signals resume (HSPLITx) and the arbiter unmasks the master.
  /// Clamped to >= 1.
  unsigned split_resume_cycles = 4;
};

/// One accepted transfer as sampled at its accept edge: everything an
/// answer (and so a FaultHook) may condition its verdict on.
struct FaultQuery {
  std::uint64_t transfer_index = 0;  ///< slave-local accept counter
  bool write = false;
  std::uint32_t addr = 0;
  Trans htrans = Trans::kNonSeq;  ///< kSeq = mid-burst beat
  unsigned master = 0;            ///< address-phase owner (HMASTER)
};

/// Decides the fate of one accepted transfer.
using FaultHook = std::function<FaultDecision(const FaultQuery&)>;

/// Base class for bus slaves, and the one slave response machine.
///
/// Owns the response bundle, the attachment (address range) on the bus
/// and one posedge process that every slave shares. At a ready edge it
/// accepts the address phase a selected slave sees, asks the subclass
/// for its answer() and then drives the protocol:
///  - OKAY: HREADYOUT stays low for `extra_waits` wait states (on_wait()
///    at the end of each), rises with the read data (supply()), and the
///    data phase completes at the next edge (commit(), HWDATA valid);
///  - RETRY/ERROR/SPLIT: the two-cycle response, HREADYOUT low with HRESP
///    set and then high; HRESP returns to OKAY at the following edge,
///    which may accept a new transfer. SPLIT masks the address-phase owner
///    at the arbiter and resumes it (HSPLITx) `split_resume_cycles` later.
/// A subclass only answers accepted transfers and supplies or commits
/// their data; the default answers every transfer with a zero-wait OKAY.
class AhbSlave : public sim::Module {
public:
  /// Attaches to `bus` at [base, base+size). A size of 0 creates an
  /// unmapped slave reachable only as the decoder fallback.
  AhbSlave(sim::Module* parent, std::string name, AhbBus& bus, std::uint32_t base,
           std::uint32_t size);

  [[nodiscard]] SlaveSignals& signals() { return sig_; }
  [[nodiscard]] unsigned index() const { return index_; }

protected:
  /// Answers the transfer accepted at this edge. For OKAY, `extra_waits`
  /// is every wait state of its data phase.
  virtual FaultDecision answer(const FaultQuery& t);
  /// At the edge ending a wait state, with `left` wait states to go.
  virtual void on_wait(unsigned left);
  /// At the edge HREADYOUT rises for an OKAY data phase: drive HRDATA.
  virtual void supply();
  /// At the edge the OKAY data phase completes: HWDATA is valid.
  virtual void commit();

  /// True when the decoder addresses this slave.
  [[nodiscard]] bool selected() const;
  [[nodiscard]] BusSignals& bus_signals() const;
  [[nodiscard]] sim::Clock& clock() const;

  AhbBus& bus_;
  SlaveSignals sig_;
  unsigned index_;

private:
  void on_clock();
  /// Raises HREADYOUT with the read data; the data phase ends next edge.
  void ready();

  enum class Phase { kIdle, kWait, kData, kResp1, kResp2 } phase_ = Phase::kIdle;
  unsigned waits_left_ = 0;
  std::uint64_t transfer_index_ = 0;
  /// Outstanding HSPLITx resumes: {master index, cycles until resume}.
  std::vector<std::pair<unsigned, unsigned>> pending_resumes_;
  sim::Method proc_;
};

/// A word-wide memory slave.
///
/// Supports zero-wait operation or a fixed number of wait states per
/// transfer. Storage is sparse (unordered map keyed by word address), so
/// large address ranges cost nothing until touched.
///
/// An optional FaultHook turns any memory slave into a fault injector:
/// the hook is consulted once per accepted transfer and can demand a
/// two-cycle RETRY/ERROR/SPLIT response or extra wait states.
class MemorySlave final : public AhbSlave {
public:
  struct Config {
    std::uint32_t base = 0;
    std::uint32_t size = 1024;   ///< bytes
    unsigned wait_states = 0;    ///< extra cycles per data phase
    /// Optional per-transfer fault verdict; empty = always OKAY.
    FaultHook fault_hook{};
  };

  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t wait_cycles = 0;
    std::uint64_t retries = 0;      ///< RETRY responses issued by the hook
    std::uint64_t errors = 0;       ///< ERROR responses issued by the hook
    std::uint64_t splits = 0;       ///< SPLIT responses issued by the hook
    std::uint64_t jitter_cycles = 0; ///< extra_waits cycles injected
  };

  MemorySlave(sim::Module* parent, std::string name, AhbBus& bus, Config cfg);

  /// Backdoor access for tests and initialization (word-aligned).
  [[nodiscard]] std::uint32_t peek(std::uint32_t addr) const;
  void poke(std::uint32_t addr, std::uint32_t value);

  [[nodiscard]] const Stats& stats() const { return stats_; }

private:
  FaultDecision answer(const FaultQuery& t) override;
  void on_wait(unsigned left) override;
  void supply() override;
  void commit() override;

  Config cfg_;
  Stats stats_;
  std::unordered_map<std::uint32_t, std::uint32_t> mem_;
  bool op_write_ = false;
  std::uint32_t op_addr_ = 0;  ///< slave-relative
};

/// The default slave: unmapped addresses land here. Every active
/// transfer gets the two-cycle ERROR; IDLE and BUSY see OKAY.
class DefaultSlave final : public AhbSlave {
public:
  DefaultSlave(sim::Module* parent, std::string name, AhbBus& bus);

  [[nodiscard]] std::uint64_t error_count() const { return errors_; }

private:
  FaultDecision answer(const FaultQuery& t) override;

  std::uint64_t errors_ = 0;
};

}  // namespace ahbp::ahb
