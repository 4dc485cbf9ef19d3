#pragma once
// The traced run: splits host time across the simulator's layers.

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Climbs the layer ladder, replays the recorded CycleView stream
/// through each per-cycle layer, times the campaign plumbing, the
/// exporters and the TLM model, and measures the span overhead on `w`.
/// Returns every per-layer metric; writes the spans to
/// `a.workdir/spans.json`.
[[nodiscard]] Result run_traced(Workload& w, const Args& a);

}  // namespace perfbench
