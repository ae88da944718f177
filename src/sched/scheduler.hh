/**
 * @file
 * Scheduler abstraction.
 *
 * The hypervisor exposes a narrow command surface (SchedulerOps) and
 * invokes the attached Scheduler's pass() whenever the system state
 * changes (arrival, reconfiguration completion, item boundary, task/app
 * completion, periodic tick — the paper's 400 ms scheduling interval).
 *
 * Execution discipline is expressed purely through *which tasks a
 * scheduler chooses to configure*: bulk schedulers only configure a task
 * once its predecessors finished the whole batch, pipelined schedulers
 * configure as soon as the first item's inputs exist. The execution
 * engine underneath is discipline-agnostic.
 */

#ifndef NIMBLOCK_SCHED_SCHEDULER_HH
#define NIMBLOCK_SCHED_SCHEDULER_HH

#include <string>
#include <vector>

#include "fabric/fabric.hh"
#include "hypervisor/app_instance.hh"

namespace nimblock {

class GridContext;

/** Why a scheduling pass was triggered. */
enum class SchedEvent
{
    Arrival,      //!< A new application entered the pending queue.
    ReconfigDone, //!< A slot finished reconfiguring (CAP is free).
    ItemBoundary, //!< A task finished one batch item.
    TaskDone,     //!< A task finished its whole batch; its slot is free.
    AppDone,      //!< An application retired.
    PreemptDone,  //!< A preemption request was honored; a slot is free.
    Tick,         //!< Periodic scheduling interval expired.
    CapacityChange, //!< Schedulable slot set changed (quarantine/probe).
};

/** Render a SchedEvent. */
const char *toString(SchedEvent e);

/**
 * Hypervisor services available to schedulers.
 *
 * Implemented by Hypervisor; schedulers must not reach around this
 * interface.
 */
class SchedulerOps
{
  public:
    virtual ~SchedulerOps() = default;

    /** Current simulated time. */
    virtual SimTime now() const = 0;

    /** The fabric (slot states, CAP status). Read-only use expected. */
    virtual Fabric &fabric() = 0;

    /**
     * Live (admitted, unretired) applications in arrival order.
     * Pointers remain valid until the app retires.
     */
    virtual const std::vector<AppInstance *> &liveApps() = 0;

    /**
     * Generation counter of the live-app set: bumped on every admission
     * and retirement (including migration departures). While the value
     * is unchanged, liveApps() has the same members in the same order
     * and every cached AppInstance pointer is still valid — schedulers
     * use it to reuse candidate pools across passes instead of
     * re-resolving ids.
     */
    virtual std::uint64_t liveAppsEpoch() const = 0;

    /**
     * Readiness delta for the current pass: each live app that, since
     * the previous executed pass started, was admitted, finished an
     * item, had a configure() attempt (accepted or rejected), was
     * preempted, lost an aborted placement or was requeued — once, in
     * liveApps() order. Only those events can add a task to an app's
     * configurable set, so an app left out gained no configurable task
     * since that pass ended, and none of its tasks was handed to
     * configure() during it. A scheduler that queued every configurable
     * task in the previous pass only needs to walk this list. Read it
     * from inside pass(). The default serves every live app, which
     * meets the contract in O(live).
     */
    virtual const std::vector<AppInstance *> &
    readyChangedApps()
    {
        return liveApps();
    }

    /** Look up a live app by id; nullptr when absent/retired. */
    virtual AppInstance *findApp(AppInstanceId id) = 0;

    /**
     * Start configuring @p task of @p app into slot @p slot.
     *
     * The slot must be free and the task idle with items remaining.
     *
     * @retval true  The configuration pipeline (SD load + CAP) started.
     * @retval false The request was invalid and ignored.
     */
    virtual bool configure(AppInstance &app, TaskId task, SlotId slot) = 0;

    /**
     * Request preemption of @p slot's occupant.
     *
     * If the occupant is waiting at an item boundary the preemption
     * happens synchronously (the slot is free when this returns).
     * Otherwise the request is flagged and honored when the in-flight
     * item completes, after which a PreemptDone pass fires.
     *
     * @retval true  The slot is already free upon return.
     */
    virtual bool preempt(SlotId slot) = 0;

    /**
     * Scheduler-visible single-slot latency estimate for @p app (derived
     * from HLS estimates; the unit for tokens and deadlines).
     */
    virtual SimTime estimatedSingleSlotLatency(AppInstance &app) = 0;

    /** Typical per-slot reconfiguration latency (planning input). */
    virtual SimTime reconfigLatencyEstimate() const = 0;

    /**
     * Shared run-invariant state interned across grid runs (pre-warmed
     * goal-number caches, latency tables), or nullptr when the run has
     * none. Schedulers treat it as an optional read-only cache tier and
     * must produce identical results with and without it.
     */
    virtual const GridContext *gridContext() const { return nullptr; }

    /**
     * Monotonic counter of scheduler-visible state mutations: advanced
     * by every non-tick pass trigger (arrivals, completions,
     * reconfigurations, capacity changes) and after every pass that
     * issued a configure() or preempt(). Two passes that start at the
     * same version see the same live set, task progress, slot occupancy
     * and quarantine set. What may still differ is what time drives:
     * now(), energy, the schedulers' own bookkeeping (tokens,
     * allocations), and the in-flight state that item faults, retry
     * holds and migration quiesce change (slots executing versus
     * waiting, preemption requests, an app's migrating flag). A pass's
     * own configure() calls do not advance the version before the pass
     * returns (a preemption honored on the spot may), so the version
     * does not describe the state after the pass's own actions: a cache
     * keyed on it must be invalidated after them. 0 means the
     * implementation does not track versions (treat every snapshot as
     * stale).
     */
    virtual std::uint64_t stateVersion() const { return 0; }

    /**
     * Joules accumulated by the run's energy model so far; 0.0 whenever
     * accounting is off. Energy-aware policies (themis) and the learned
     * policy's feature vector read it; everything else ignores it.
     */
    virtual double energyJoulesTotal() const { return 0.0; }

    /**
     * Pipeline occupancy of @p slot for the observation layer: bit 0
     * set when the occupant task carries a streaming kernel model
     * (kernel_model/), bit 1 when the in-flight item issued at the
     * steady pipeline interval (primed intra-slot overlap). 0 for free
     * slots and scalar tasks, so kernel-model-free runs see all-zero
     * flags and snapshots stay byte-identical.
     */
    virtual std::uint8_t
    slotPipelineFlags(SlotId slot)
    {
        (void)slot;
        return 0;
    }
};

/** Base class for all scheduling algorithms. */
class Scheduler
{
  public:
    explicit Scheduler(std::string name);
    virtual ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Algorithm name used in reports ("nimblock", "prema", ...). */
    const std::string &name() const { return _name; }

    /** Bind to the hypervisor; called once before any pass. */
    void attach(SchedulerOps &ops);

    /** True once attach() has been called. */
    bool attached() const { return _ops != nullptr; }

    /**
     * Make scheduling decisions.
     *
     * Invoked by the hypervisor outside any other scheduler activity
     * (never re-entered).
     */
    virtual void pass(SchedEvent reason) = 0;

    /** Hook: @p app was admitted into the pending queue. */
    virtual void onAppAdmitted(AppInstance &app) { (void)app; }

    /** Hook: @p app retired (all tasks complete). */
    virtual void onAppRetired(AppInstance &app) { (void)app; }

    /**
     * Hook: the schedulable slot set changed (a slot was quarantined or
     * probed back into service). Capacity-derived state — Nimblock goal
     * numbers, static reservations — must be recomputed. A
     * SchedEvent::CapacityChange pass follows.
     */
    virtual void onCapacityChanged() {}

    /**
     * Execution discipline: when true (the default), a resident task only
     * starts batch items once every predecessor has finished the entire
     * batch (bulk processing, Figure 2(a)/(b)); when false, items start
     * as soon as their own inputs exist (cross-batch pipelining,
     * Figure 2(c)). Configuration *prefetch* is separate: any scheduler
     * may configure a task before its data is ready to hide
     * reconfiguration latency behind computation.
     */
    virtual bool bulkItemGating() const { return true; }

    /**
     * Hint: up to @p n applications may be live concurrently. Schedulers
     * with per-app working structures pre-reserve them here so a warmed
     * streaming run never grows a container mid-pass (the zero-alloc
     * steady state). Optional — correctness never depends on it.
     */
    virtual void reserveApps(std::size_t n) { (void)n; }

    /**
     * Purity declaration for pass elision: a scheduler returns true iff
     * its pass() is an idempotent function of hypervisor/fabric state —
     * running it twice with no state change in between issues no action
     * the first run didn't (and mutates nothing observable, thanks to
     * already-queued dedup). The hypervisor uses this to skip the body
     * of a provable no-op tick pass: the pass event still fires and
     * counts in schedulingPasses, and purePassesElided records the
     * saving. Under EventQueue::run(horizon) or step(horizon) the clean
     * ticks after it are settled in one step, each counted as a fired
     * tick and pass. Policies with time-driven state must return false:
     * every tick accumulates PREMA's and Nimblock's tokens, and draws
     * the learned policy's RNG and updates its weights. They reach a
     * partial fixpoint instead: on a clean tick — stateVersion()
     * unchanged since a pass that issued no configure or preempt — each
     * pays only for that time-driven work and skips the placement work
     * it knows would issue nothing.
     */
    virtual bool passIsPure() const { return false; }

  protected:
    /** Bound hypervisor services; panics if unattached. */
    SchedulerOps &ops();

    /** @name Shared placement helpers */
    /// @{

    /**
     * Pick a free slot for (app, task), preferring a slot whose retained
     * bitstream matches (placement affinity); falls back to the
     * lowest-numbered free slot. kSlotNone when no slot is free.
     */
    SlotId pickFreeSlot(const AppInstance &app, TaskId task);

    /**
     * Configure each bulk-ready task of @p app into free slots, in
     * topological order, until slots run out.
     *
     * @return Number of configurations issued.
     */
    std::size_t configureBulkReady(AppInstance &app);

    /**
     * Configure @p app's idle tasks into free slots in strict topological
     * order regardless of data readiness (configuration prefetch). Safe
     * under bulk gating: a resident task whose predecessors are earlier in
     * topological order can never deadlock the board.
     *
     * @return Number of configurations issued.
     */
    std::size_t configurePrefetch(AppInstance &app);

    /// @}

    /**
     * Pass-local task-list scratch shared by the placement helpers:
     * refilled per application, never held across a configure call.
     * Member storage so steady-state passes stop allocating.
     */
    std::vector<TaskId> _taskScratch;

  private:
    std::string _name;
    SchedulerOps *_ops = nullptr;
};

} // namespace nimblock

#endif // NIMBLOCK_SCHED_SCHEDULER_HH
