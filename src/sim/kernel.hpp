#pragma once
// The discrete-event scheduler.
//
// Implements the classic SystemC evaluate/update/delta-notify cycle:
//
//   1. evaluate : run every runnable process (writes are buffered)
//   2. update   : apply buffered signal writes; changed signals queue
//                 their value-changed events as delta notifications
//   3. notify   : trigger delta-queued events, making processes runnable
//                 for the next delta cycle at the same time
//   4. advance  : when no process is runnable, jump to the earliest timed
//                 notification and trigger it
//
// Two fast paths leave what every process observes unchanged:
//
//   * An update-phase notification that nothing could hear -- the event
//     has no static or dynamic subscriber and no pending notification to
//     override -- is not queued; only Event::last_triggered() advances.
//     No process runs between the update and notify phases, so no
//     subscriber can appear before the skipped trigger would have fired.
//   * When every valid timed notification at the new instant is a Clock
//     tick, the advance runs the clock drivers and applies their levels
//     itself, so edge-sensitive processes run in the first delta of the
//     instant instead of the second. The drivers still count as process
//     activations (RunBudget::max_events holds as before). If any other
//     timed notification shares the instant, the drivers run in the
//     first delta as usual, so a thread woken by a timed wait there
//     still reads the pre-edge level (IEEE 1666).
//
// One Kernel instance is alive *per thread* (enforced); top-level objects
// attach to Kernel::current(), which is thread-local. Independent
// simulations may therefore run concurrently, one kernel per
// std::jthread -- the contract the campaign runner (src/campaign/)
// builds on. A single Kernel and the objects attached to it must only
// ever be touched from the thread that constructed it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "sim/process.hpp"
#include "sim/report.hpp"
#include "sim/time.hpp"

namespace ahbp::sim {

class Object;
class Event;
class SignalBase;

/// Execution budget enforced by Kernel::run() -- the watchdog that keeps
/// a hung or runaway simulation from stalling its hosting thread forever
/// (the campaign runner's per-RunSpec guard; see src/campaign/).
///
/// All limits are zero-initialized to "unlimited"; enforcing them costs
/// one integer compare per delta / time advance, so an unlimited budget
/// is free on the hot path. Limits count from the start of each run()
/// call, not from kernel construction.
struct RunBudget {
  /// Max distinct simulated instants (time advances); 0 = unlimited.
  std::uint64_t max_cycles = 0;
  /// Max process activations (catches delta storms too); 0 = unlimited.
  std::uint64_t max_events = 0;
  /// Wall-clock deadline for one run() call in seconds; 0 = unlimited.
  /// Checked every 1024 time advances, so enforcement lags by up to one
  /// check interval.
  double max_wall_seconds = 0.0;
  /// When true, a run() that drains its event queues while coroutine
  /// processes are still suspended (waiting on events that can never
  /// fire) throws DeadlockError naming the blocked set instead of
  /// returning as if the simulation had finished.
  bool fail_on_deadlock = false;

  [[nodiscard]] bool limited() const {
    return max_cycles != 0 || max_events != 0 || max_wall_seconds > 0.0 ||
           fail_on_deadlock;
  }
};

/// Thrown by Kernel::run() when a RunBudget limit is hit. The message
/// names the exhausted limit, the simulated time reached and the set of
/// still-waiting thread processes.
class BudgetExceededError : public SimError {
public:
  explicit BudgetExceededError(const std::string& what) : SimError(what) {}
};

/// Thrown by Kernel::run() when the cooperative cancel flag (see
/// Kernel::set_cancel_flag) is observed set.
class RunCancelledError : public SimError {
public:
  explicit RunCancelledError(const std::string& what) : SimError(what) {}
};

/// Thrown by Kernel::run() on deadlock diagnosis (RunBudget::
/// fail_on_deadlock): no runnable or pending events remain but thread
/// processes are still suspended.
class DeadlockError : public SimError {
public:
  explicit DeadlockError(const std::string& what) : SimError(what) {}
};

/// The simulation scheduler and object registry.
class Kernel {
public:
  Kernel();
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// The kernel top-level objects attach to. Fatal if none is alive on
  /// the calling thread.
  [[nodiscard]] static Kernel& current();
  /// Nullptr-safe variant of current().
  [[nodiscard]] static Kernel* current_or_null();

  /// Current simulation time.
  [[nodiscard]] SimTime now() const { return now_; }
  /// Number of delta cycles executed so far. Inside an evaluation phase
  /// this is the index of the running delta; it is incremented before
  /// that delta's update phase, so values applied there first become
  /// visible in the delta numbered delta_count().
  [[nodiscard]] std::uint64_t delta_count() const { return delta_count_; }

  /// Scheduler activity counters, maintained on the hot path at the
  /// cost of one increment each -- the kernel's own observability feed
  /// (exported as `sim.*` metrics by the CLI's --telemetry mode).
  struct Stats {
    std::uint64_t processes_executed = 0;  ///< process activations
    std::uint64_t timed_notifications = 0; ///< timed events triggered
    std::uint64_t time_advances = 0;       ///< distinct simulated instants
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Runs the simulation for `duration` (default: until no activity
  /// remains). On return, now() has advanced to start + duration, or to
  /// the last activity if the event queues drained first (or if duration
  /// is SimTime::max()).
  void run(SimTime duration = SimTime::max());

  /// Requests run() to return after the current delta cycle completes.
  void stop() { stop_requested_ = true; }

  /// True while inside run() -- processes can check this.
  [[nodiscard]] bool running() const { return running_; }

  /// @name Watchdog: budgets, cancellation and deadlock diagnosis
  ///@{
  /// Budget applied to subsequent run() calls. A freshly constructed
  /// kernel inherits the thread default (see set_thread_defaults).
  void set_budget(const RunBudget& b) { budget_ = b; }
  [[nodiscard]] const RunBudget& budget() const { return budget_; }

  /// Cooperative cancellation: run() polls `flag` once per time advance
  /// and throws RunCancelledError when it reads true. The flag is not
  /// owned and must outlive every run() call; nullptr disables polling.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_flag_ = flag; }

  /// Ambient per-thread defaults picked up by every Kernel constructed
  /// on the calling thread afterwards -- how the campaign runner imposes
  /// a budget on a RunSpec that builds its own kernel internally.
  /// clear_thread_defaults() restores the unlimited defaults.
  static void set_thread_defaults(const RunBudget& budget,
                                  const std::atomic<bool>* cancel_flag);
  static void clear_thread_defaults();

  /// Thread processes that are neither done nor runnable -- the set a
  /// deadlocked simulation is blocked on. Hierarchical names, in
  /// construction order.
  [[nodiscard]] std::vector<std::string> blocked_processes() const;
  ///@}

  /// Registers a callback invoked whenever simulated time is about to
  /// advance (all deltas at the current time done) and once when run()
  /// returns. Used by the VCD tracer to sample settled values.
  void add_timestep_callback(std::function<void()> cb);

  /// All objects currently registered, in construction order.
  [[nodiscard]] const std::vector<Object*>& objects() const { return objects_; }

  /// @name Internal interfaces (used by Object/Event/Process/Signal)
  /// The per-event entry points are defined here so they inline into
  /// the trigger and update loops that call them every cycle.
  ///@{
  void register_object(Object& o);
  void unregister_object(Object& o);
  void register_process(Process& p);
  void unregister_process(Process& p);
  void make_runnable(Process& p) {
    if (p.in_runnable_ || p.done_) return;
    p.in_runnable_ = true;
    runnable_.push_back(&p);
  }
  void schedule_delta(Event& e) { delta_queue_.push_back(&e); }
  void schedule_timed(Event& e, SimTime abs_time, std::uint64_t stamp) {
    timed_queue_.push(TimedEntry{abs_time, timed_seq_++, &e, stamp});
  }
  void request_update(SignalBase& s) { update_queue_.push_back(&s); }
  ///@}

private:
  void initialize();
  /// Runs one delta cycle: evaluate, then update and delta-notify.
  void do_delta();
  /// The update and delta-notify phases: applies buffered signal writes
  /// and triggers the delta-queued events.
  void update_and_notify();
  /// Advances time to `next` and triggers the notifications due there,
  /// taking the clock-edge fast path when only clock ticks are due.
  void advance_to(SimTime next);
  void fire_timestep_callbacks();

  struct TimedEntry {
    SimTime time;
    std::uint64_t seq;  ///< FIFO order among equal times
    Event* event;
    std::uint64_t stamp;
    bool operator>(const TimedEntry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  /// Builds the "budget exhausted at ..." diagnosis shared by every
  /// watchdog throw site (simulated time, counters, blocked set).
  [[nodiscard]] std::string watchdog_context() const;

  SimTime now_;
  std::uint64_t delta_count_ = 0;
  Stats stats_;
  std::uint64_t timed_seq_ = 0;
  bool initialized_ = false;
  bool running_ = false;
  bool stop_requested_ = false;

  RunBudget budget_;
  const std::atomic<bool>* cancel_flag_ = nullptr;
  static thread_local RunBudget thread_default_budget_;
  static thread_local const std::atomic<bool>* thread_default_cancel_;

  std::vector<Object*> objects_;
  std::vector<Process*> processes_;
  std::vector<Process*> runnable_;
  std::vector<Event*> delta_queue_;
  std::vector<SignalBase*> update_queue_;
  std::priority_queue<TimedEntry, std::vector<TimedEntry>, std::greater<>> timed_queue_;
  std::vector<std::function<void()>> timestep_callbacks_;

  /// Scratch buffers swapped with update_queue_/delta_queue_ each delta
  /// so the hot loop reuses capacity instead of allocating per cycle.
  std::vector<SignalBase*> update_scratch_;
  std::vector<Event*> delta_scratch_;
  /// Valid timed notifications due at the instant being advanced to.
  std::vector<Event*> due_;

  static thread_local Kernel* current_;
};

}  // namespace ahbp::sim
