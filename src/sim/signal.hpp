#pragma once
// Signal<T>: the evaluate/update communication channel.
//
// Writes during the evaluation phase are buffered; the kernel applies them
// in the update phase, and a changed value notifies the signal's
// value-changed event as a delta notification. This gives deterministic
// simulation independent of process execution order, exactly as in
// SystemC's sc_signal.

#include <concepts>
#include <string>
#include <utility>

#include "sim/event.hpp"
#include "sim/kernel.hpp"
#include "sim/object.hpp"

namespace ahbp::sim {

/// Type-erased base so the kernel can hold heterogeneous update requests.
class SignalBase : public Object {
public:
  [[nodiscard]] const char* kind() const override { return "signal"; }

  /// Applies the buffered write (kernel update phase).
  virtual void apply_update() = 0;

protected:
  SignalBase(Module* parent, std::string name) : Object(parent, std::move(name)) {}

  /// Enqueues this signal for the next update phase (idempotent per delta).
  void request_update() {
    if (update_requested_) return;
    update_requested_ = true;
    kernel().request_update(*this);
  }

  bool update_requested_ = false;
};

/// A signal carrying a value of type T (equality-comparable, copyable).
///
/// Reads always observe the *current* value; writes take effect one delta
/// cycle later. Writing the current value is a no-op (no event fires).
template <std::equality_comparable T>
class Signal : public SignalBase {
public:
  /// Creates the signal with an initial current value.
  Signal(Module* parent, std::string name, T initial = T{})
      : SignalBase(parent, std::move(name)),
        current_(initial),
        next_(std::move(initial)),
        changed_(parent, basename() + ".changed"),
        posedge_(parent, basename() + ".pos"),
        negedge_(parent, basename() + ".neg") {}

  /// Current (settled) value.
  [[nodiscard]] const T& read() const { return current_; }

  /// Buffers `v` to become the current value in the next update phase.
  ///
  /// A later write in the same evaluation phase may restore the current
  /// value; the already-queued update then finds next_ == current_ in
  /// apply_update() and degrades to a no-op (no event fires).
  void write(const T& v) {
    next_ = v;
    if (next_ != current_) request_update();
  }

  /// Fires one delta after any update that changes the value.
  [[nodiscard]] Event& value_changed_event() { return changed_; }

  /// For Signal<bool>: fires on false->true updates.
  [[nodiscard]] Event& posedge_event()
    requires std::same_as<T, bool>
  {
    return posedge_;
  }
  /// For Signal<bool>: fires on true->false updates.
  [[nodiscard]] Event& negedge_event()
    requires std::same_as<T, bool>
  {
    return negedge_;
  }

  /// True if the value changed in the immediately preceding update phase
  /// of the current time step.
  [[nodiscard]] bool event() const {
    return last_change_time_ == kernel().now() &&
           last_change_delta_ == kernel().delta_count();
  }

  void apply_update() override {
    update_requested_ = false;
    if (next_ == current_) return;
    const bool was = to_bool(current_);
    current_ = next_;
    // The delta that first sees the new value (see Kernel::delta_count).
    last_change_time_ = kernel().now();
    last_change_delta_ = kernel().delta_count();
    changed_.notify_delta_from_update();
    if constexpr (std::same_as<T, bool>) {
      if (!was && current_) posedge_.notify_delta_from_update();
      if (was && !current_) negedge_.notify_delta_from_update();
    }
  }

private:
  static bool to_bool(const T& v) {
    if constexpr (std::same_as<T, bool>) {
      return v;
    } else {
      (void)v;
      return false;
    }
  }

  T current_;
  T next_;
  Event changed_;
  Event posedge_;
  Event negedge_;
  SimTime last_change_time_ = SimTime::max();
  std::uint64_t last_change_delta_ = UINT64_MAX;
};

}  // namespace ahbp::sim
