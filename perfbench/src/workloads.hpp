#pragma once
// The four benchmark workloads and the untraced measurement loop.
//
// A workload is a fixed unit of work (one "rep") that is repeated for the
// requested number of seconds; the end-to-end metrics are medians over
// reps and over slices of the simulation phase. See README.md for why
// each workload exists and which layer moves which metric.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "harness.hpp"
#include "telemetry/events.hpp"

namespace perfbench {

/// Host cost of one rep.
struct RepStats {
  /// Host seconds of the rep's consecutive parts, which together cover
  /// its fixed work from set-up through simulation, flush, export,
  /// report and tear-down: elaboration, each slice, each exporter call,
  /// each campaign run, the rest. Every rep of a workload has the same
  /// parts in the same order.
  std::vector<double> part_s;
  /// Bus cycles sampled by the power FSM(s).
  std::uint64_t cycles = 0;
  /// Host seconds and sampled bus cycles of each slice (one Kernel::run
  /// call or one TLM run_until step), in simulation order. Every rep of
  /// a workload slices its work identically.
  std::vector<double> slice_s;
  std::vector<std::uint64_t> slice_cycles;

  void add_slice(double seconds, std::uint64_t n) {
    slice_s.push_back(seconds);
    slice_cycles.push_back(n);
  }
  /// Ends the current part, which began at the previous lap or when the
  /// rep started.
  void lap() {
    const Clock::time_point t = Clock::now();
    part_s.push_back(std::chrono::duration<double>(t - part_start_).count());
    part_start_ = t;
  }

private:
  Clock::time_point part_start_ = Clock::now();
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Host seconds of one rep, set-up samples included, on the reference
  /// host (see README.md). It fixes how many reps a run of --seconds
  /// makes, so that a faster build takes its minima over as many samples
  /// as a slower one.
  [[nodiscard]] virtual double nominal_rep_s() const = 0;
  /// Elaborates the workload's system once and tears it down; returns
  /// the elaboration's host seconds.
  virtual double setup_once() = 0;
  /// Runs the fixed work once. Every simulation run is one operation in
  /// `r`, failed when a correctness check fails. Spans are recorded
  /// around each slice when `spans` is set.
  virtual RepStats rep(Result& r, Spans* spans) = 0;
  /// Checks made once after the timed phase, and the digest line.
  virtual void finish(Result& r) = 0;
};

/// The workload named by `a.workload`, or nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const Args& a);

/// Reps of a run of `seconds`: at least three, otherwise the number of
/// nominal reps that fit.
[[nodiscard]] std::size_t fixed_reps(const Workload& w, double seconds);

/// Untraced run: fixed_reps() reps with set-up samples between them,
/// final checks and every end-to-end metric. Slice and part timings are
/// minima over the identical reps, then a sum or percentiles over
/// slices, and a sum over parts for wall_s: see README.md for why.
[[nodiscard]] Result measure(Workload& w, const Args& a);

/// The `sweep_attr` campaign: {fixed, rr} x waits {0, 1, 3} x 2 seeds
/// over the 4-master CLI topology, each run with BusMonitor and a
/// txn_trace estimator, `cycles` bus cycles long.
[[nodiscard]] std::vector<ahbp::campaign::RunSpec> sweep_specs(
    std::uint64_t seed, std::uint64_t cycles);
/// Bus cycles of each `sweep_attr` run.
inline constexpr std::uint64_t kSweepRunCycles = 10'000;
/// Kernel::run slices of each `sweep_attr` run, timed inside the run.
inline constexpr unsigned kSweepRunSlices = 10;
/// Worker processes of the `sweep_attr` campaign. One, so that runs
/// follow each other and each is a part of the rep (see README.md).
inline constexpr unsigned kSweepWorkers = 1;

/// Checks one finished campaign run: status kOk, attributed energy plus
/// bus energy equal to the total within 1e-9 relative.
[[nodiscard]] bool campaign_run_ok(const ahbp::campaign::RunOutcome& out,
                                   std::string& why);

/// Element-wise minimum of `best` and `v` into `best` (which takes `v`
/// when empty): the fastest repeat of each slice or part.
void keep_fastest(std::vector<double>& best, const std::vector<double>& v);

/// Records one span per campaign run, from the event log's run_start and
/// run_finish events, on the lowest run lane free at its start. Must
/// outlive the log's last emit.
class RunSpanRecorder {
public:
  RunSpanRecorder(ahbp::telemetry::EventLog& events, Spans& spans);
  RunSpanRecorder(const RunSpanRecorder&) = delete;
  RunSpanRecorder& operator=(const RunSpanRecorder&) = delete;

private:
  struct Open {
    double start_us;
    int lane;
  };
  Spans& spans_;
  std::mutex mutex_;  ///< guards the members below (listeners run on
                      ///< emitting threads)
  std::map<std::uint64_t, Open> open_;  ///< by run index
  std::vector<bool> lane_busy_;
};

/// TLM-vs-cycle-accurate comparison prefix, in bus cycles.
inline constexpr std::uint64_t kGapCycles = 200'000;

}  // namespace perfbench
