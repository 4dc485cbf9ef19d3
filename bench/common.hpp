#pragma once
// Shared includes for the paper-reproduction benches. The paper's Sec. 5
// testbench is campaign::SystemSpec{}, built by campaign::System.

#include "ahb/ahb.hpp"
#include "campaign/campaign.hpp"
#include "campaign/system.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"
#include "telemetry/telemetry.hpp"
