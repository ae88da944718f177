/**
 * @file
 * Whole-system configuration: the public entry point's knob set.
 */

#ifndef NIMBLOCK_CORE_CONFIG_HH
#define NIMBLOCK_CORE_CONFIG_HH

#include <string>

#include "apps/app_spec.hh"
#include "energy/energy.hh"
#include "fabric/fabric.hh"
#include "hypervisor/hypervisor.hh"
#include "resilience/fault_injector.hh"

namespace nimblock {

/** Configuration of one simulated Nimblock system. */
struct SystemConfig
{
    /** Scheduler name (see sched/factory.hh). */
    std::string scheduler = "nimblock";

    FabricConfig fabric;
    HypervisorConfig hypervisor;

    /**
     * No effect: every EventQueueImpl value builds the same binary-heap
     * event queue, and the simulator does not read this field. Kept
     * because perfbench/ still does; it goes with EventQueueImpl once
     * that harness stops naming them.
     */
    EventQueueImpl eventQueue = EventQueueImpl::Heap;

    /**
     * Fault-injection model (see resilience/fault_injector.hh). Disabled
     * by default; runs with `faults.enabled == false` are byte-identical
     * to builds without the resilience subsystem.
     */
    FaultConfig faults;

    /**
     * Energy accounting (see energy/energy.hh and docs/energy.md).
     * Disabled by default; runs with `energy.enabled == false` are
     * byte-identical to builds without the energy subsystem.
     */
    EnergyConfig energy;

    /**
     * Hard progress guard: multiplier on the workload's summed
     * single-slot latency used as a simulation horizon. A run exceeding
     * the horizon is reported as a scheduler stall.
     */
    double horizonFactor = 50.0;

    /**
     * Record every slot transition into RunResult::timeline (occupancy
     * intervals, utilization, ASCII Gantt). Off by default: long runs
     * generate many events.
     */
    bool recordTimeline = false;

    /**
     * When non-empty and the scheduler is "learned", log every settled
     * (observation, action, reward) decision to this binary trace file
     * for offline training (see policy/trace.hh and docs/policy.md).
     * Empty (the default) keeps the bridge disabled: no file, no
     * allocation, byte-identical results.
     */
    std::string policyTracePath;

    /**
     * The single-slot latency of @p app at @p batch under this
     * configuration's fabric timing (deadline unit, §5.4).
     */
    SimTime singleSlotLatency(const AppSpec &app, int batch) const;

    /** Warm per-slot reconfiguration latency under this configuration. */
    SimTime reconfigLatency() const;
};

} // namespace nimblock

#endif // NIMBLOCK_CORE_CONFIG_HH
