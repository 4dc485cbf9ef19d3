#pragma once
// Umbrella header for ahbp::ahb -- the AMBA AHB bus model.
//
//   AhbBus                        -- fabric top (arbiter/decoder/muxes)
//   TrafficMaster, DefaultMaster,
//   ScriptedMaster                -- masters
//   AhbSlave                      -- the one slave response machine
//   MemorySlave, DefaultSlave     -- slaves (faults: MemorySlave's FaultHook)
//   BusMonitor                    -- protocol checker + statistics
//   CycleView, CycleObserver      -- the per-cycle sampler's protocol

#include "ahb/arbiter.hpp"
#include "ahb/burst.hpp"
#include "ahb/bus.hpp"
#include "ahb/cycle_view.hpp"
#include "ahb/decoder.hpp"
#include "ahb/master.hpp"
#include "ahb/monitor.hpp"
#include "ahb/mux.hpp"
#include "ahb/signals.hpp"
#include "ahb/slave.hpp"
#include "ahb/trace.hpp"
#include "ahb/types.hpp"
