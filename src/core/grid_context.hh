/**
 * @file
 * Cross-run interning of run-invariant state.
 *
 * An experiment grid runs the same workload sequences through many
 * schedulers, and every run used to recompute the same derived state from
 * scratch: single-slot latency estimates (one makespan estimate per
 * (app, batch) pair), Nimblock/static goal-number sweeps (one estimate
 * per slot count per pair), and the bitstream name intern table. None of
 * it depends on the scheduler or on anything that happens during a run —
 * it is a pure function of the SystemConfig and the workload's
 * (app, batch) pairs.
 *
 * A GridContext hoists that state out of the runs: built and warmed once
 * per grid (or once per benchmark process), then frozen and shared
 * read-only by every Simulation/Hypervisor. After freeze() every probe
 * is const, so one context may be shared across ExperimentGrid's worker
 * threads without synchronization.
 *
 * Consumers compute only what the context lacks (an unwarmed pair, a
 * quarantine-changed slot count, a non-default threshold): the
 * hypervisor probes it before its own latency cache, and a scheduler's
 * GoalNumberCache takes goalCache() as a read-only shared tier in front
 * of its own map. A context can never change results, only where the
 * fill cost is paid.
 */

#ifndef NIMBLOCK_CORE_GRID_CONTEXT_HH
#define NIMBLOCK_CORE_GRID_CONTEXT_HH

#include <map>
#include <utility>
#include <vector>

#include "alloc/saturation.hh"
#include "apps/registry.hh"
#include "workload/event.hh"

namespace nimblock {

struct SystemConfig;

/** Frozen-after-build shared state for one configuration. */
class GridContext
{
  public:
    /** Derive fabric timing (reconfig latency, PS bandwidth) from @p cfg. */
    explicit GridContext(const SystemConfig &cfg);

    /**
     * Pre-compute every run-invariant estimate for (spec, batch): the
     * single-slot latency and both goal-number sweeps (pipelined and
     * non-pipelined). Costs one bulk sweep, stopped one point past its
     * knee, whose one-slot point is the latency; a second, pipelined
     * sweep only when the app pipelines across the batch. Idempotent;
     * fatal()s after freeze().
     */
    void warm(const AppSpecPtr &spec, int batch);

    /** warm() every (app, batch) pair appearing in @p seq. */
    void warmSequence(const EventSequence &seq, const AppRegistry &registry);

    /** Mark the context read-only; required before cross-thread sharing. */
    void freeze() { _frozen = true; }
    bool frozen() const { return _frozen; }

    /**
     * Pre-computed single-slot latency of (spec, batch), or kTimeNone
     * when the pair was not warmed.
     */
    SimTime singleSlotLatency(const AppSpec *spec, int batch) const;

    /**
     * The pre-warmed goal-number cache matching a scheduler's exact
     * geometry (slot count, pipelining, timing, threshold), or nullptr
     * when none matches. A scheduler passes the result as the shared
     * tier of its own GoalNumberCache; with nullptr that cache computes
     * every pair, exactly as without a context.
     */
    const GoalNumberCache *goalCache(std::size_t max_slots,
                                     const MakespanParams &params,
                                     double threshold) const;

    /**
     * True when @p reconfig_latency / @p ps_bandwidth equal the fabric
     * timing this context was derived from. The hypervisor refuses a
     * context that fails this check rather than serve stale estimates.
     */
    bool matchesFabric(SimTime reconfig_latency, double ps_bandwidth) const;

    /** Number of distinct (spec, batch) pairs warmed. */
    std::size_t pairCount() const { return _latency.size(); }

  private:
    SimTime _reconfigLatency;
    double _psBandwidth;
    std::size_t _slots;

    /** Goal sweeps for both pipelining modes (Nimblock ablations). */
    GoalNumberCache _goalsPipe;
    GoalNumberCache _goalsNoPipe;

    /** (spec, batch) -> single-slot latency. Raw keys: _specs pins them. */
    std::map<std::pair<const AppSpec *, int>, SimTime> _latency;

    /** Keeps every warmed spec alive for the life of the context. */
    std::vector<AppSpecPtr> _specs;

    bool _frozen = false;
};

} // namespace nimblock

#endif // NIMBLOCK_CORE_GRID_CONTEXT_HH
