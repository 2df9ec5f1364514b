/**
 * @file
 * Simulation drivers. simulate() here and simulateMultiCore()
 * (sim/multicore.hh) share one event-driven loop over n memory-system
 * and core pairs around a shared DRAM; a single-core run is n = 1.
 */

#ifndef ECDP_SIM_SIMULATOR_HH
#define ECDP_SIM_SIMULATOR_HH

#include "obs/observability.hh"
#include "sim/config.hh"
#include "trace/trace.hh"

namespace ecdp
{

/**
 * Runs one Workload on one core under a SystemConfig and returns the
 * run statistics. The workload's image is cloned, so a Workload can be
 * reused across runs and configurations. @p obs is wired through the
 * memory system and DRAM; observability never changes simulated
 * behaviour, only what is recorded about it, so the stats are the same
 * with or without it.
 */
RunStats simulate(const SystemConfig &cfg, const Workload &workload,
                  const Observability &obs = {});

} // namespace ecdp

#endif // ECDP_SIM_SIMULATOR_HH
