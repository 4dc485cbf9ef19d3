#pragma once
// Benchmark plumbing shared by every workload: host timing, order
// statistics, the result record printed as the final JSON line, and the
// in-memory span log written out when a traced run ends.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "telemetry/exporters.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Microseconds since the benchmark process started (span time base).
[[nodiscard]] double now_us();

/// Median of `v` (mean of the two middle values for even sizes).
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Host memory high-water mark [MB]: the larger of this process and its
/// largest reaped child (forked campaign workers).
[[nodiscard]] double peak_rss_mb();

/// Largest reaped child's high-water mark [MB] (0 when none).
[[nodiscard]] double child_peak_rss_mb();

/// Command-line arguments of one benchmark invocation.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for artifacts, journals and the span file.
  std::filesystem::path workdir;
};

/// One invocation's outcome: operations attempted / failed and the named
/// metrics. An operation is one simulation run; a run whose correctness
/// check fails counts as failed.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;
  /// Directory of exporter artifacts for the external validator (empty
  /// when the run exported nothing).
  std::string artifacts;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one operation and whether it passed its checks.
  void op(bool ok, const std::string& what);

  /// The final stdout line.
  [[nodiscard]] std::string to_json() const;
};

/// Checks accumulated over one simulation run: the run is one operation
/// and fails if any check fails.
class Checks {
public:
  void expect(bool ok, const std::string& what) {
    if (!ok && ok_) {
      ok_ = false;
      first_ = what;
    }
  }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& first_failure() const { return first_; }

private:
  bool ok_ = true;
  std::string first_;
};

/// Spans recorded around calls into each layer, kept in memory and
/// written as one Chrome trace_event file at the end of a traced run.
/// Each layer gets its own track; spans on one track nest by
/// containment.
class Spans {
public:
  enum Track : int {
    kWorkload = 1,
    kLadder,
    kReplay,
    kCampaign,
    kExport,
    kTlm,
    /// Concurrent campaign runs: lane i is track kCampaignRuns + i.
    kCampaignRuns,
  };

  void add(const std::string& name, int track, double start_us,
           double end_us);
  /// Writes the spans (1 tick = 1 us) through the repository's Chrome
  /// trace exporter.
  void write(const std::filesystem::path& file) const;
  [[nodiscard]] std::size_t size() const { return log_.size(); }

private:
  ahbp::telemetry::TraceEventLog log_;
  int max_track_ = 0;
};

/// RAII span: records [construction, destruction) when `spans` is set.
class SpanScope {
public:
  SpanScope(Spans* spans, std::string name, Spans::Track track)
      : spans_(spans), name_(std::move(name)), track_(track),
        start_(spans != nullptr ? now_us() : 0.0) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->add(name_, track_, start_, now_us());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

private:
  Spans* spans_;
  std::string name_;
  Spans::Track track_;
  double start_;
};

}  // namespace perfbench
