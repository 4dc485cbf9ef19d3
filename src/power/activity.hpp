#pragma once
// Switching-activity bookkeeping -- the paper's `Activity` class.
//
// The instrumentation phase of the methodology (Sec. 5.3) adds "a
// specialized object class ... for the dynamic monitoring and the storage
// of the activity of the I/O signals of the different blocks", with
// methods bit_change_count() and store_activity(). ActivityChannel is
// that class for one signal; Activity groups named channels (the paper's
// "Masters signals activity storage / Slaves signals activity storage").

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace ahbp::power {

/// Hamming distance between two words: the number of toggling bits --
/// the central activity measure of the paper's macromodels. A SWAR
/// popcount of a ^ b: twelve inline ALU ops, no branch. std::popcount
/// is one instruction only where the target has POPCNT; the portable
/// x86-64 build (no -mpopcnt) compiles it to a libgcc __popcountdi2
/// call, and PowerFsm::step() makes nine of these per cycle.
[[nodiscard]] constexpr unsigned hamming(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ b;
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<unsigned>((x * 0x0101010101010101ULL) >> 56);
}

/// Switching-activity accumulator for one observed signal.
///
/// Feed it the signal's value once per observation point (bus event /
/// clock cycle); it tracks the Hamming distance of consecutive values.
class ActivityChannel {
public:
  /// Records `value` as the next observation. Returns the Hamming
  /// distance to the previous observation (0 for the first).
  unsigned store_activity(std::uint64_t value);

  /// Total bits changed across all observations.
  [[nodiscard]] std::uint64_t bit_change_count() const { return bit_changes_; }
  /// Number of observations whose Hamming distance was non-zero (the
  /// empirical "signal changed" probability numerator, used by the
  /// analytic estimator for non-linear macromodel terms).
  [[nodiscard]] std::uint64_t nonzero_count() const { return nonzero_; }
  /// Hamming distance recorded by the most recent store_activity().
  [[nodiscard]] unsigned last_hd() const { return last_hd_; }
  /// Number of observations so far.
  [[nodiscard]] std::uint64_t sample_count() const { return samples_; }
  /// Mean Hamming distance per observation (0 if fewer than 2 samples).
  [[nodiscard]] double mean_hd() const;
  /// Previous observed value.
  [[nodiscard]] std::uint64_t last_value() const { return last_value_; }

  /// Overwrites the accumulated state wholesale. Used by
  /// PackedActivity::export_to() to materialize a map-of-channels view
  /// from the SoA hot-path storage; not meant for instrumentation code.
  void restore(std::uint64_t last_value, unsigned last_hd,
               std::uint64_t bit_changes, std::uint64_t nonzero,
               std::uint64_t samples);

  void reset();

private:
  std::uint64_t last_value_ = 0;
  bool has_value_ = false;
  unsigned last_hd_ = 0;
  std::uint64_t bit_changes_ = 0;
  std::uint64_t nonzero_ = 0;
  std::uint64_t samples_ = 0;
};

/// A named group of activity channels -- one per monitored bus signal.
///
/// Storage is an unordered_map for O(1) find(); per the standard,
/// unordered_map references and pointers stay valid across inserts
/// (only erase/clear invalidate), so monitors may cache the
/// ActivityChannel* returned by channel() at construction time and hit
/// it every sampled cycle without a string lookup -- the pattern
/// PowerFsm::bind_channels() and ApbPowerMonitor use. Iteration order
/// is unspecified; report formatters sort names before rendering.
class Activity {
public:
  /// Channel accessor; creates the channel on first use. The returned
  /// reference is stable for the channel's lifetime (until reset()).
  [[nodiscard]] ActivityChannel& channel(const std::string& name);
  [[nodiscard]] const ActivityChannel* find(const std::string& name) const;

  /// Sum of bit_change_count() over all channels.
  [[nodiscard]] std::uint64_t bit_change_count() const;

  [[nodiscard]] const std::unordered_map<std::string, ActivityChannel>& channels()
      const {
    return channels_;
  }

  /// Drops every channel. Invalidates all cached ActivityChannel
  /// pointers -- callers holding handles must re-bind afterwards.
  void reset();

private:
  std::unordered_map<std::string, ActivityChannel> channels_;
};

/// Structure-of-arrays activity capture for a fixed channel set -- the
/// cycle-kernel hot path behind PowerFsm (and, through it, the energy
/// attribution pipeline).
///
/// Where Activity scatters each channel's state across unordered_map
/// nodes, PackedActivity keeps the previous values and all counters in
/// contiguous arrays, so the per-cycle capture is one tight loop of
/// XOR + popcount over packed signal words -- no pointer chasing, no
/// per-channel Kernighan loops. The channel set is fixed at
/// construction; store_all() observes every channel exactly once per
/// cycle, which is precisely the sampling discipline PowerFsm::step()
/// follows.
///
/// For reporting, export_to() materializes a plain Activity with
/// identical per-channel statistics, so the map-based view (reports,
/// analytic estimator) is unchanged.
class PackedActivity {
public:
  explicit PackedActivity(std::vector<std::string> names);

  /// Observes one value per channel (vals[i] -> channel i) and writes
  /// each channel's Hamming distance to hd_out[i]. First observation
  /// yields 0 for every channel, like ActivityChannel.
  void store_all(const std::uint64_t* vals, unsigned* hd_out);

  [[nodiscard]] std::size_t size() const { return names_.size(); }
  [[nodiscard]] const std::string& name(std::size_t i) const { return names_[i]; }
  [[nodiscard]] std::uint64_t bit_change_count(std::size_t i) const {
    return bit_changes_[i];
  }
  /// Sum over all channels.
  [[nodiscard]] std::uint64_t bit_change_count() const;
  [[nodiscard]] std::uint64_t nonzero_count(std::size_t i) const {
    return nonzero_[i];
  }
  [[nodiscard]] std::uint64_t sample_count() const { return samples_; }
  [[nodiscard]] std::uint64_t last_value(std::size_t i) const {
    return last_value_[i];
  }
  [[nodiscard]] unsigned last_hd(std::size_t i) const { return last_hd_[i]; }

  /// Copies every channel's statistics into `out` (channels created on
  /// demand; existing unrelated channels are left alone).
  void export_to(Activity& out) const;

  void reset();

private:
  std::vector<std::string> names_;
  std::vector<std::uint64_t> last_value_;
  std::vector<std::uint64_t> bit_changes_;
  std::vector<std::uint64_t> nonzero_;
  std::vector<unsigned> last_hd_;
  std::uint64_t samples_ = 0;  ///< observations per channel (lock-stepped)
  bool has_value_ = false;
};

}  // namespace ahbp::power
