#include "sim/kernel.hpp"

#include <algorithm>
#include <cstring>

#include "sim/event.hpp"
#include "sim/object.hpp"
#include "sim/process.hpp"
#include "sim/report.hpp"
#include "sim/signal.hpp"

namespace ahbp::sim {

thread_local Kernel* Kernel::current_ = nullptr;
thread_local RunBudget Kernel::thread_default_budget_{};
thread_local const std::atomic<bool>* Kernel::thread_default_cancel_ = nullptr;

Kernel::Kernel() {
  if (current_ != nullptr) {
    throw SimError("only one Kernel may be alive at a time per thread");
  }
  current_ = this;
  budget_ = thread_default_budget_;
  cancel_flag_ = thread_default_cancel_;
}

Kernel::~Kernel() { current_ = nullptr; }

Kernel& Kernel::current() {
  if (current_ == nullptr) throw SimError("no Kernel is alive on this thread");
  return *current_;
}

Kernel* Kernel::current_or_null() { return current_; }

void Kernel::register_object(Object& o) { objects_.push_back(&o); }

void Kernel::unregister_object(Object& o) {
  objects_.erase(std::remove(objects_.begin(), objects_.end(), &o), objects_.end());
}

void Kernel::register_process(Process& p) { processes_.push_back(&p); }

void Kernel::unregister_process(Process& p) {
  processes_.erase(std::remove(processes_.begin(), processes_.end(), &p),
                   processes_.end());
  runnable_.erase(std::remove(runnable_.begin(), runnable_.end(), &p), runnable_.end());
}

void Kernel::add_timestep_callback(std::function<void()> cb) {
  timestep_callbacks_.push_back(std::move(cb));
}

void Kernel::initialize() {
  initialized_ = true;
  for (Process* p : processes_) {
    if (p->initialize_) make_runnable(*p);
  }
}

void Kernel::do_delta() {
  // --- evaluate ---------------------------------------------------------
  // Processes made runnable during this phase (immediate notifications)
  // also run in it, so iterate by index.
  for (std::size_t i = 0; i < runnable_.size(); ++i) {
    Process* p = runnable_[i];
    p->in_runnable_ = false;
    p->execute();
  }
  stats_.processes_executed += runnable_.size();
  runnable_.clear();
  ++delta_count_;
  update_and_notify();
}

void Kernel::update_and_notify() {
  // --- update -----------------------------------------------------------
  // Applying a signal's new value may queue its value-changed event as a
  // delta notification (handled below). The queue is swapped into a
  // member scratch buffer so both vectors keep their capacity across
  // deltas -- this loop runs every simulated cycle.
  update_scratch_.clear();
  update_scratch_.swap(update_queue_);
  for (SignalBase* s : update_scratch_) s->apply_update();

  // --- delta notification ------------------------------------------------
  delta_scratch_.clear();
  delta_scratch_.swap(delta_queue_);
  for (Event* e : delta_scratch_) {
    if (e->pending_ != Event::Pending::kDelta) continue;  // cancelled
    e->pending_ = Event::Pending::kNone;
    e->trigger();
  }
}

void Kernel::advance_to(SimTime next) {
  now_ = next;
  ++stats_.time_advances;
  // Collect every valid notification scheduled for this instant, in
  // FIFO order. Triggering only makes processes runnable, so checking
  // validity up front is the same as checking it before each trigger.
  due_.clear();
  bool clocks_only = true;
  while (!timed_queue_.empty() && timed_queue_.top().time == now_) {
    const TimedEntry entry = timed_queue_.top();
    timed_queue_.pop();
    Event* e = entry.event;
    if (e->pending_ != Event::Pending::kTimed || e->stamp_ != entry.stamp) {
      continue;  // cancelled or overridden
    }
    e->pending_ = Event::Pending::kNone;
    ++stats_.timed_notifications;
    clocks_only = clocks_only && e->clock_driver_ != nullptr;
    due_.push_back(e);
  }
  if (!clocks_only) {
    for (Event* e : due_) e->trigger();
    return;
  }
  // Clock-edge fast path: a tick only wakes its clock's driver, and the
  // first delta would run nothing else, so run the drivers here (they
  // count as activations) and apply their levels. The edge events then
  // make their subscribers runnable for the first delta.
  for (Event* e : due_) {
    e->last_triggered_ = now_;
    e->clock_driver_->execute();
  }
  stats_.processes_executed += due_.size();
  update_and_notify();
}

void Kernel::fire_timestep_callbacks() {
  for (const auto& cb : timestep_callbacks_) cb();
}

void Kernel::set_thread_defaults(const RunBudget& budget,
                                 const std::atomic<bool>* cancel_flag) {
  thread_default_budget_ = budget;
  thread_default_cancel_ = cancel_flag;
}

void Kernel::clear_thread_defaults() {
  thread_default_budget_ = RunBudget{};
  thread_default_cancel_ = nullptr;
}

std::vector<std::string> Kernel::blocked_processes() const {
  std::vector<std::string> blocked;
  for (const Process* p : processes_) {
    if (p->done() || p->in_runnable_) continue;
    if (std::strcmp(p->kind(), "thread") != 0) continue;
    blocked.push_back(p->full_name());
  }
  return blocked;
}

std::string Kernel::watchdog_context() const {
  std::string msg = " at t=" + now_.to_string() + " (" +
                    std::to_string(stats_.time_advances) + " time advances, " +
                    std::to_string(stats_.processes_executed) +
                    " process activations)";
  const std::vector<std::string> blocked = blocked_processes();
  if (!blocked.empty()) {
    msg += "; waiting processes:";
    for (const std::string& name : blocked) msg += " " + name;
  }
  return msg;
}

void Kernel::run(SimTime duration) {
  const SimTime end =
      duration == SimTime::max() ? SimTime::max() : now_ + duration;
  if (!initialized_) initialize();
  running_ = true;
  stop_requested_ = false;

  // Watchdog bookkeeping: absolute thresholds computed once so the loop
  // pays a single compare per limit. The wall clock is only sampled when
  // a deadline is armed, and then only every 1024 time advances.
  const std::uint64_t event_limit =
      budget_.max_events != 0 ? stats_.processes_executed + budget_.max_events
                              : UINT64_MAX;
  const std::uint64_t cycle_limit =
      budget_.max_cycles != 0 ? stats_.time_advances + budget_.max_cycles
                              : UINT64_MAX;
  const bool wall_limited = budget_.max_wall_seconds > 0.0;
  const auto wall_start = wall_limited ? std::chrono::steady_clock::now()
                                       : std::chrono::steady_clock::time_point{};
  std::uint64_t wall_check = 0;

  const auto check_event_budget = [&] {
    if (stats_.processes_executed < event_limit) return;
    running_ = false;
    throw BudgetExceededError("max-event budget (" +
                              std::to_string(budget_.max_events) +
                              " activations) exhausted" + watchdog_context());
  };

  while (!stop_requested_) {
    if (!runnable_.empty() || !delta_queue_.empty() || !update_queue_.empty()) {
      do_delta();
      check_event_budget();
      continue;
    }
    // Time advance: settled values at the current time are final.
    fire_timestep_callbacks();
    if (timed_queue_.empty()) {
      // Genuine quiesce: nothing can ever run again. With deadlock
      // diagnosis armed, threads still suspended here are waiting on
      // events that can no longer fire.
      if (budget_.fail_on_deadlock) {
        const std::vector<std::string> blocked = blocked_processes();
        if (!blocked.empty()) {
          running_ = false;
          throw DeadlockError("deadlock: event queues drained with " +
                              std::to_string(blocked.size()) +
                              " thread process(es) still suspended" +
                              watchdog_context());
        }
      }
      break;
    }
    const SimTime next = timed_queue_.top().time;
    if (next > end) break;
    if (stats_.time_advances >= cycle_limit) {
      running_ = false;
      throw BudgetExceededError("max-cycle budget (" +
                                std::to_string(budget_.max_cycles) +
                                " time advances) exhausted" +
                                watchdog_context());
    }
    if (cancel_flag_ != nullptr &&
        cancel_flag_->load(std::memory_order_relaxed)) {
      running_ = false;
      throw RunCancelledError("run cancelled" + watchdog_context());
    }
    if (wall_limited && (++wall_check & 1023u) == 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();
      if (elapsed >= budget_.max_wall_seconds) {
        running_ = false;
        throw BudgetExceededError(
            "wall-deadline budget (" +
            std::to_string(budget_.max_wall_seconds) + " s) exhausted" +
            watchdog_context());
      }
    }
    advance_to(next);
    // The clock-edge fast path runs the drivers' activations here.
    check_event_budget();
  }

  // sc_start-style semantics: a bounded run leaves time at exactly
  // start + duration even if activity drained earlier.
  if (end != SimTime::max() && now_ < end && !stop_requested_) now_ = end;
  fire_timestep_callbacks();
  running_ = false;
}

}  // namespace ahbp::sim
