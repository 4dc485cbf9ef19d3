#pragma once
// The paper testbench's traffic as one draw sequence for TrafficMaster
// and the kernel-free tlm::TlmTrafficRunner, so a config replays the
// same traffic at both levels. Per tenure: idle cycles, WRITE-READ pair
// count, then per pair an address and a data word.

#include <cstdint>
#include <random>

#include "sim/report.hpp"

namespace ahbp::ahb {

/// TrafficMaster::Config and tlm::TlmTrafficRunner::Config.
struct TrafficConfig {
  std::uint32_t addr_base = 0;      ///< start of the address window used
  std::uint32_t addr_range = 1024;  ///< bytes; word-aligned addresses inside
  unsigned min_idle_cycles = 1;
  unsigned max_idle_cycles = 8;
  unsigned min_pairs = 4;   ///< WRITE-READ pairs per bus tenure
  unsigned max_pairs = 24;  ///< long tenures, as in the paper's testbench
  std::uint64_t seed = 1;
};

class TrafficPattern {
public:
  struct Pair {
    std::uint32_t addr;
    std::uint32_t data;
  };

  /// Throws sim::SimError on a window below one word or on empty or
  /// zero-based idle or pair bounds.
  explicit TrafficPattern(const TrafficConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
    if (cfg.max_idle_cycles < cfg.min_idle_cycles || cfg.min_idle_cycles == 0) {
      throw sim::SimError("traffic pattern: bad idle-cycle bounds");
    }
    if (cfg.max_pairs < cfg.min_pairs || cfg.min_pairs == 0) {
      throw sim::SimError("traffic pattern: bad pair bounds");
    }
    if (cfg.addr_range < 4) throw sim::SimError("traffic pattern: address window too small");
  }

  unsigned idle_cycles() { return between(cfg_.min_idle_cycles, cfg_.max_idle_cycles); }
  unsigned pairs() { return between(cfg_.min_pairs, cfg_.max_pairs); }
  /// The address is drawn before the data.
  Pair pair() {
    const std::uint32_t addr =
        cfg_.addr_base + 4 * static_cast<std::uint32_t>(rng_() % (cfg_.addr_range / 4));
    return {addr, static_cast<std::uint32_t>(rng_())};
  }

private:
  /// lo >= 1 keeps hi - lo + 1 from wrapping to zero.
  unsigned between(unsigned lo, unsigned hi) {
    return lo + static_cast<unsigned>(rng_() % (hi - lo + 1));
  }

  TrafficConfig cfg_;
  std::mt19937_64 rng_;
};

}  // namespace ahbp::ahb
