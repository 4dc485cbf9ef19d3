#include "sim/clock.hpp"

#include "sim/report.hpp"

namespace ahbp::sim {

Clock::Clock(Module* parent, std::string name, SimTime period, double duty,
             SimTime start_delay)
    : Module(parent, std::move(name)),
      period_(period),
      start_delay_(start_delay),
      sig_(this, "clk", false),
      tick_event_(this, "tick"),
      driver_(this, "driver", [this] { tick(); }) {
  if (period <= SimTime::zero()) throw SimError("clock period must be positive");
  if (duty <= 0.0 || duty >= 1.0) throw SimError("clock duty cycle must be in (0,1)");
  high_time_ = SimTime::fs(
      static_cast<std::int64_t>(static_cast<double>(period.femtoseconds()) * duty));
  low_time_ = period - high_time_;
  if (high_time_ <= SimTime::zero() || low_time_ <= SimTime::zero()) {
    throw SimError("clock duty cycle unrepresentable at this period");
  }
  driver_.sensitive(tick_event_);
  // The tick wakes only the driver, so the kernel may run it at the time
  // advance and apply the edge there (see kernel.hpp).
  tick_event_.clock_driver_ = &driver_;
}

void Clock::tick() {
  if (!started_) {
    // Process initialization at time 0: establish the low level and wait
    // out the start delay (a zero delay means the clock rises right away,
    // still at time 0, one delta later).
    started_ = true;
    if (start_delay_ > SimTime::zero()) {
      sig_.write(false);
      tick_event_.notify(start_delay_);
      return;
    }
  }
  sig_.write(next_value_);
  tick_event_.notify(next_value_ ? high_time_ : low_time_);
  next_value_ = !next_value_;
}

}  // namespace ahbp::sim
