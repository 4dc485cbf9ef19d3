#pragma once
// Umbrella header for ahbp::power -- the paper's system-level power
// analysis methodology.
//
//   Activity, ActivityChannel      -- switching-activity instrumentation
//   DecoderModel, MuxModel,
//   ArbiterFsmModel, LinearModel   -- sub-block energy macromodels
//   PowerFsm                       -- instruction-level power FSM
//   AhbPowerEstimator              -- "local" integration style (main API)
//   PrivatePowerModel              -- "private" per-block style
//   GlobalPowerAnalyzer            -- "global" analyzer-module style
//   TransactionTracer,
//   EnergyAttributor               -- per-transaction energy attribution
//   report.hpp                     -- Table 1 / Figs 3-6 rendering
//
// Streaming observability (the cycle-windowed power-vs-time series of
// Figs 3-5, trace events, metric counters) lives in ahbp::telemetry and
// hooks in through AhbPowerEstimator::Config -- see
// docs/OBSERVABILITY.md.

#include "power/activity.hpp"
#include "power/analytic.hpp"
#include "power/attribution.hpp"
#include "power/cosim.hpp"
#include "power/estimator.hpp"
#include "power/governor.hpp"
#include "power/macromodel.hpp"
#include "power/power_fsm.hpp"
#include "power/report.hpp"
#include "power/styles.hpp"
#include "power/system.hpp"
