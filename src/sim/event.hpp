#pragma once
// Event: the kernel's notification primitive (cf. SystemC sc_event).

#include <concepts>
#include <cstdint>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/object.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"

namespace ahbp::sim {

class Clock;
template <std::equality_comparable T>
class Signal;

/// A notification primitive that wakes processes.
///
/// Processes can be *statically* sensitive to an event (woken on every
/// trigger) or *dynamically* waiting (coroutine threads: woken exactly
/// once, subscription cleared on trigger).
///
/// An event holds at most one pending notification. A pending notification
/// may only be overridden by an earlier one: immediate beats delta beats
/// timed, and an earlier timed notification beats a later one. This follows
/// the IEEE 1666 (SystemC) semantics.
class Event : public Object {
public:
  Event(Module* parent, std::string name);
  ~Event() override;

  [[nodiscard]] const char* kind() const override { return "event"; }

  /// Immediate notification: sensitive processes become runnable in the
  /// *current* evaluation phase. Cancels any pending notification.
  void notify();
  /// Delta notification: processes wake in the next delta cycle.
  void notify_delta() {
    if (pending_ == Pending::kDelta) return;  // already as early as possible
    // A pending timed notification is later than a delta one: override it.
    pending_ = Pending::kDelta;
    ++stamp_;
    kernel().schedule_delta(*this);
  }
  /// Timed notification at now() + delay. delay must be > 0 (use
  /// notify_delta() for zero-delay semantics).
  void notify(SimTime delay);
  /// Cancels a pending (delta or timed) notification, if any.
  void cancel();

  /// True if a delta or timed notification is pending.
  [[nodiscard]] bool pending() const { return pending_ != Pending::kNone; }

  /// Static sensitivity management (used by Process::sensitive()).
  void add_static(Process& p);
  void remove_static(Process& p);
  /// One-shot subscription for a dynamically waiting process.
  void add_dynamic(Process& p);
  void remove_dynamic(Process& p);

  /// Kernel time of the most recent trigger, or SimTime::max() if never.
  [[nodiscard]] SimTime last_triggered() const { return last_triggered_; }

private:
  friend class Kernel;
  friend class Clock;
  template <std::equality_comparable T>
  friend class Signal;

  enum class Pending : std::uint8_t { kNone, kDelta, kTimed };

  /// Wakes all sensitive processes. Called by the kernel (delta/timed
  /// queues) or directly by notify().
  void trigger() {
    Kernel& k = kernel();
    last_triggered_ = k.now();
    for (Process* p : static_sensitive_) k.make_runnable(*p);
    if (!dynamic_waiters_.empty()) wake_dynamic();
  }
  /// One-shot wake-up of the dynamic waiters; clears their subscriptions.
  void wake_dynamic();
  /// Delta notification from the kernel's update phase
  /// (Signal::apply_update). When nothing could observe the trigger --
  /// no static or dynamic subscriber and no pending notification to
  /// override -- only last_triggered() advances. That is exact because
  /// no process runs between the update and notify phases. It must not
  /// be used in an evaluation phase, where a later process may still
  /// subscribe.
  void notify_delta_from_update() {
    if (pending_ == Pending::kNone && static_sensitive_.empty() &&
        dynamic_waiters_.empty()) {
      last_triggered_ = kernel().now();
      return;
    }
    notify_delta();
  }

  Pending pending_ = Pending::kNone;
  SimTime pending_time_;
  std::uint64_t stamp_ = 0;  ///< invalidates stale timed-queue entries
  SimTime last_triggered_ = SimTime::max();
  std::vector<Process*> static_sensitive_;
  std::vector<Process*> dynamic_waiters_;
  /// For a Clock's tick event: the driver method, its only subscriber.
  /// The kernel runs it at the time advance (see kernel.hpp).
  Process* clock_driver_ = nullptr;
};

}  // namespace ahbp::sim
