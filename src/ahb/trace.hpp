#pragma once
// Bus-transaction trace capture and replay.
//
// Real methodology deployments feed production traces into the power
// model; we have no production traces (see DESIGN.md substitutions), so
// this module closes the loop synthetically: record the transfers of any
// live run into a portable text trace, then replay them -- with their
// original pacing -- as a TraceMaster on a fresh system. Replayed
// workloads reproduce the recorded transfer stream and hence its power
// signature.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ahb/cycle_view.hpp"
#include "ahb/master.hpp"
#include "sim/process.hpp"

namespace ahbp::ahb {

/// One completed transfer (data-phase completion).
struct TransferRecord {
  std::uint64_t cycle = 0;  ///< bus cycle of completion
  std::uint8_t master = 0;  ///< data-phase owner
  bool write = false;
  std::uint32_t addr = 0;
  std::uint32_t data = 0;  ///< write data / read-back value

  bool operator==(const TransferRecord&) const = default;
};

/// An ordered list of transfers with text persistence.
class TransactionTrace {
public:
  void add(const TransferRecord& r) { records_.push_back(r); }
  [[nodiscard]] const std::vector<TransferRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Keeps only one master's transfers (for replay by a single master).
  [[nodiscard]] TransactionTrace filter_master(std::uint8_t master) const;

  /// @name Persistence: "cycle master W|R addr data" lines, '#' comments.
  ///@{
  void save(std::ostream& os) const;
  [[nodiscard]] static TransactionTrace load(std::istream& is);
  ///@}

private:
  std::vector<TransferRecord> records_;
};

/// Passive recorder: observes the bus each cycle and appends every
/// completed transfer to its trace.
class TraceRecorder : public sim::Module, public CycleObserver {
public:
  TraceRecorder(sim::Module* parent, std::string name, AhbBus& bus);

  [[nodiscard]] const TransactionTrace& trace() const { return trace_; }

  void on_cycle(const CycleView& v) override;

private:
  AhbBus& bus_;
  TransactionTrace trace_;
  std::uint64_t cycle_ = 0;
};

/// Replays a (single-master) trace: performs each recorded transfer at
/// its recorded relative cycle (or as soon after as the bus allows),
/// preserving the workload's pacing.
class TraceMaster final : public AhbMaster {
public:
  TraceMaster(sim::Module* parent, std::string name, AhbBus& bus,
              TransactionTrace trace);

  struct Stats {
    std::uint64_t replayed = 0;
    std::uint64_t read_mismatches = 0;  ///< replayed read != recorded value
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool finished() const { return thread_.done(); }

private:
  sim::Task body();

  TransactionTrace trace_;
  Stats stats_;
  sim::Thread thread_;
};

}  // namespace ahbp::ahb
