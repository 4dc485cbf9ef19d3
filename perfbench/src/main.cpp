// perfbench -- end-to-end and per-layer benchmark of the AHB power
// simulator. Usually driven through run.py, which builds this binary,
// validates exported artifacts and prints the final result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Prints progress lines (build, samples, report, digest, spans) and, as
// the last line, one JSON object: correct / attempted / failed / metrics
// plus the failure messages and the artifact directory to validate.
// Exit codes: 0 ran (see "correct"), 2 bad usage, 3 refused build.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>

#include "harness.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

[[noreturn]] void usage() {
  std::fputs("usage: perfbench --workload paper_ca|sweep_attr|telemetry_export"
             "|tlm --seed N --seconds S --trace 0|1 --workdir DIR\n",
             stderr);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  bool trace_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage();
    } else if (flag == "--trace") {
      const std::string t = value;
      if (t != "0" && t != "1") usage();
      a.trace = t == "1";
      trace_set = true;
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else {
      usage();
    }
  }
  if (a.workload.empty() || a.workdir.empty() || !trace_set) usage();
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args a = parse(argc, argv);
  std::printf("build {\"flags\": \"%s\", \"optimized\": %s, \"ndebug\": %s}\n",
              PERFBENCH_FLAGS, kOptimizedBuild ? "true" : "false",
              kNdebug ? "true" : "false");
  if (!kOptimizedBuild) {
    std::fputs("perfbench: refusing to measure a non-optimized build "
               "(needs -O2 or higher and NDEBUG)\n",
               stderr);
    return 3;
  }
  std::unique_ptr<perfbench::Workload> w = perfbench::make_workload(a);
  if (!w) usage();
  try {
    std::filesystem::create_directories(a.workdir);
    const perfbench::Result r =
        a.trace ? perfbench::run_traced(*w, a) : perfbench::measure(*w, a);
    std::fflush(stdout);
    std::printf("%s\n", r.to_json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
