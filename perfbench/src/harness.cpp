#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

/// This process's resident-set high-water mark [MB]. Read from
/// /proc/self/status: getrusage(RUSAGE_SELF) would also report the
/// launching process's size, which Linux carries across execve.
double self_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Shortest decimal form that round-trips; metric values keep all their
/// digits.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kProcessStart)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() { return std::max(self_hwm_mb(), child_peak_rss_mb()); }

double child_peak_rss_mb() {
  struct rusage ru{};
  if (::getrusage(RUSAGE_CHILDREN, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Result::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

std::string Result::to_json() const {
  using ahbp::telemetry::json_escape;
  std::string s = "{\"correct\": ";
  s += failed == 0 && attempted > 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + json_escape(name) + "\": {\"value\": " + number(m.value) +
         ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  s += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + json_escape(failures[i]) + "\"";
  }
  s += "], \"artifacts\": \"" + json_escape(artifacts) + "\"}";
  return s;
}

void Spans::add(const std::string& name, int track, double start_us,
                double end_us) {
  const auto start = static_cast<std::uint64_t>(std::max(0.0, start_us));
  const auto end = static_cast<std::uint64_t>(std::max(start_us, end_us));
  log_.add_complete(name, "perfbench", start, end - start, track, {});
  max_track_ = std::max(max_track_, track);
}

void Spans::write(const std::filesystem::path& file) const {
  ahbp::telemetry::ExportMeta meta;
  meta.tick_ns = 1000.0;
  meta.process_name = "perfbench";
  meta.threads = {{kWorkload, "workload"}, {kLadder, "layer ladder"},
                  {kReplay, "replay"},     {kCampaign, "campaign"},
                  {kExport, "exporters"},  {kTlm, "tlm"}};
  for (int t = kCampaignRuns; t <= max_track_; ++t) {
    meta.threads.emplace_back(t, "campaign runs " +
                                     std::to_string(t - kCampaignRuns));
  }
  ahbp::telemetry::write_chrome_trace_file(file, log_, nullptr, meta);
}

}  // namespace perfbench
