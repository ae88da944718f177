/**
 * @file
 * The Nimblock hypervisor (§2.2).
 *
 * The hypervisor is the system manager running on the embedded ARM core:
 * it admits arriving applications, drives the bitstream-load /
 * reconfiguration pipeline, launches batch items on resident tasks,
 * propagates data availability through task graphs, honors preemption
 * requests at item boundaries, retires completed applications, and invokes
 * the attached scheduling algorithm on every state change plus a periodic
 * scheduling interval (400 ms in the paper).
 *
 * The hypervisor is execution-discipline agnostic: bulk vs. pipelined
 * behaviour emerges from *when* the scheduler chooses to configure tasks
 * (see sched/scheduler.hh).
 */

#ifndef NIMBLOCK_HYPERVISOR_HYPERVISOR_HH
#define NIMBLOCK_HYPERVISOR_HYPERVISOR_HH

#include <map>
#include <memory>
#include <vector>

#include "energy/energy.hh"
#include "fabric/fabric.hh"
#include "hypervisor/app_instance.hh"
#include "hypervisor/buffer_manager.hh"
#include "metrics/collector.hh"
#include "metrics/counters.hh"
#include "metrics/timeline.hh"
#include "resilience/fault_injector.hh"
#include "resilience/slot_health.hh"
#include "sched/scheduler.hh"
#include "sim/event_queue.hh"

namespace nimblock {

/** Hypervisor configuration. */
struct HypervisorConfig
{
    /** Periodic scheduling interval (slot reallocation trigger, §5.1). */
    SimTime schedInterval = simtime::ms(400);

    /**
     * Modeled decision latency of one scheduling pass on the ARM core.
     * Passes requested while one is pending coalesce.
     */
    SimTime passLatency = simtime::us(100);

    /**
     * Skip reconfiguration when the requested bitstream is already
     * configured in the chosen slot (placement-affinity optimization).
     * Off by default: the paper always pays the reconfiguration, counting
     * it as preemption overhead.
     */
    bool allowReconfigSkip = false;

    /**
     * Fine-grained preemption extension (§7 future work): honor
     * preemption requests mid-item by checkpointing the in-flight item
     * (paying checkpointLatency) instead of waiting for the batch-item
     * boundary. The checkpointed item resumes from its saved progress.
     * Only effective without PS-contention modeling (three-phase items
     * cannot be checkpointed mid-transfer); the hypervisor rejects the
     * combination at construction time (warns and disables the flag).
     */
    bool allowMidItemPreemption = false;

    /** State save/restore cost per mid-item checkpoint. */
    SimTime checkpointLatency = simtime::ms(5);

    /**
     * Record run telemetry (ready-queue depth, scheduling passes, buffer
     * occupancy, CAP backlog, bitstream-cache hit rate, ...) into a
     * CounterRegistry for the TraceExporter / CSV dump. Off by default:
     * with the flag clear no registry is created and every recording
     * site reduces to one null-pointer branch, preserving the
     * steady-state zero-allocation invariant.
     */
    bool recordCounters = false;

    /**
     * Retired-instance recycling for streaming (open-loop) workloads: up
     * to this many retired AppInstances are kept on a free list and
     * reused (with their ids) by later submits, so steady-state
     * admission/retire churn allocates nothing and the id-indexed side
     * tables stay bounded by peak concurrency instead of growing with
     * total submissions. 0 (the default) disables pooling entirely —
     * the submit/retire paths are then byte-identical to a build
     * without it.
     */
    std::size_t appPoolSize = 0;

    /**
     * Build an AppRecord for every retirement (the closed-grid result
     * path). Streaming runs turn this off — a simulated-days soak
     * retires hundreds of millions of apps, and per-app records are
     * O(run length) in memory — and observe retirements through
     * Hypervisor::setRetireListener instead.
     */
    bool collectRecords = true;

    BufferManagerConfig buffers;
};

/** Aggregate counters exposed after a run. */
struct HypervisorStats
{
    std::uint64_t appsAdmitted = 0;
    std::uint64_t appsRetired = 0;
    std::uint64_t configuresIssued = 0;
    std::uint64_t reconfigSkips = 0;
    std::uint64_t preemptionsRequested = 0;
    std::uint64_t preemptionsHonored = 0;
    std::uint64_t checkpointPreemptions = 0;
    std::uint64_t schedulingPasses = 0;
    /** Pure passes whose body was skipped (counted in schedulingPasses). */
    std::uint64_t purePassesElided = 0;
    std::uint64_t stallRescues = 0;
    std::uint64_t itemsExecuted = 0;

    /** @name Resilience (all zero without an installed FaultInjector) */
    /// @{
    std::uint64_t faultsInjected = 0;   //!< Observed injected faults.
    std::uint64_t faultRetries = 0;     //!< Operations re-issued.
    std::uint64_t quarantineEvents = 0; //!< Slot quarantine entries.
    std::uint64_t probesIssued = 0;     //!< Quarantine probes fired.
    std::uint64_t appsFailed = 0;       //!< Apps retired as failed.
    std::uint64_t appRequeues = 0;      //!< Whole-app requeues.
    /// @}

    /** @name Cluster elasticity (all zero without a migration engine) */
    /// @{
    std::uint64_t appsMigratedOut = 0; //!< Checkpoints extracted here.
    std::uint64_t appsMigratedIn = 0;  //!< Checkpoints readmitted here.
    /// @}
};

/** The hypervisor: system manager and SchedulerOps implementation. */
class Hypervisor : public SchedulerOps
{
  public:
    /**
     * @param eq        Simulation event queue.
     * @param fabric    The fabric under management.
     * @param scheduler Scheduling algorithm (attached automatically).
     * @param collector Result sink for retired applications.
     * @param cfg       Configuration.
     */
    Hypervisor(EventQueue &eq, Fabric &fabric, Scheduler &scheduler,
               MetricsCollector &collector, HypervisorConfig cfg);

    ~Hypervisor() override;

    Hypervisor(const Hypervisor &) = delete;
    Hypervisor &operator=(const Hypervisor &) = delete;

    /**
     * Admit an application (a workload event released at its arrival
     * time). Must be called at the current simulation time.
     *
     * @return The created instance's id.
     */
    AppInstanceId submit(AppSpecPtr spec, int batch, Priority priority,
                         int event_index);

    /** Begin the periodic scheduling-interval timer. */
    void start();

    /**
     * Stop the periodic timer (so the event queue can drain once all
     * applications retire).
     */
    void stop();

    /** Number of live (admitted, unretired) applications. */
    std::size_t liveCount() const { return _live.size(); }

    const HypervisorStats &stats() const { return _stats; }
    const BufferManager &buffers() const { return _buffers; }

    /** Effective configuration (after construction-time normalization). */
    const HypervisorConfig &config() const { return _cfg; }

    /**
     * Attach a slot-transition recorder (optional; may be null). The
     * timeline must outlive the hypervisor's activity.
     */
    void setTimeline(Timeline *timeline) { _timeline = timeline; }

    /**
     * Attach a counter/gauge registry (optional; may be null). Defines
     * the hypervisor's counters and wires the fabric's CAP and bitstream
     * store to the same registry. The registry must outlive the
     * hypervisor's activity.
     */
    void setCounters(CounterRegistry *counters);

    /**
     * Attach a fault injector (optional; may be null). Wires the fabric's
     * CAP and bitstream store to the same injector and arms the recovery
     * machinery (RetryPolicy, SlotHealth, per-slot retry state). With no
     * injector every fault hook is a single null-pointer branch, so the
     * default configuration stays byte-identical and allocation-free.
     * The injector must outlive the hypervisor's activity.
     */
    void setFaultInjector(FaultInjector *injector);

    /**
     * Attach an energy model (optional; may be null). Wired like the
     * fault injector: with no model every charge site is one
     * null-pointer branch, so runs with accounting off stay
     * byte-identical and allocation-free. The model must outlive the
     * hypervisor's activity.
     */
    void
    setEnergyModel(EnergyModel *energy)
    {
        _energy = energy;
        if (energy && _counters)
            energy->setCounters(_counters);
    }

    /** @name Live migration (driven by cluster/migration.hh)
     *
     * Nullable-listener wired like the resilience hooks: with no
     * listeners installed every migration site is one branch on a bool
     * or null SmallFunction, so single-board runs stay byte-identical
     * and allocation-free.
     */
    /// @{

    /** Fires once per beginMigration() when the victim is fully
        off-fabric (no task Configuring or Resident). */
    using QuiescentListener = SmallFunction<void(AppInstanceId)>;
    void
    setQuiescentListener(QuiescentListener cb)
    {
        _quiescent = std::move(cb);
    }

    /** Fires after every schedulable-slot-set change (quarantine entry
        or probe repair), after the scheduler has been notified. */
    using CapacityListener = SmallFunction<void()>;
    void
    setCapacityListener(CapacityListener cb)
    {
        _capacityListener = std::move(cb);
    }

    /**
     * Start quiescing @p id for migration: resident slots are vacated
     * through the batch-preemption path at their next item boundary and
     * the scheduler stops placing the app. The quiescent listener fires
     * when the last slot is released (immediately for queued apps).
     *
     * @return False when the app is unknown, already migrating, or
     *         failed; no state changes in that case.
     */
    bool beginMigration(AppInstanceId id);

    /**
     * Remove the quiesced app @p id and return its checkpoint. No
     * AppRecord is produced — the app is in flight, not retired; the
     * record comes from the board that readmits it. Panics unless
     * beginMigration() ran and the app is fully off-fabric.
     */
    AppCheckpoint extractCheckpoint(AppInstanceId id);

    /**
     * Readmit a migrated app from @p ck, preserving its identity,
     * progress, and accounting. Counted in appsMigratedIn, not in
     * appsAdmitted (sum of appsAdmitted across boards stays the number
     * of submitted workload events).
     *
     * @return The new instance id on this board.
     */
    AppInstanceId admitCheckpoint(const AppCheckpoint &ck);

    /** Checkpoint payload size: live per-task buffer windows plus a
        fixed descriptor (task-graph progress, remaining-work metadata). */
    std::uint64_t checkpointBytes(const AppInstance &app) const;

    /**
     * Single-slot estimate of all remaining work on this board
     * (migrating apps excluded — they are already leaving). The
     * rebalancer's load metric, independent of the dispatch policy.
     */
    SimTime pendingWorkEstimate();

    /** Single-slot estimate of one app's unfinished items; the
        rebalancer's victim filter (don't ship nearly-done apps). */
    SimTime remainingWorkEstimate(AppInstance &app);
    /// @}

    /** @name Streaming (open-loop) support
     *
     * Nullable-listener wired like the migration hooks: with no listener
     * and appPoolSize == 0 every site is one branch, so closed-grid runs
     * stay byte-identical and allocation-free.
     */
    /// @{

    /**
     * Fires at every retirement, after accounting is final (retireTime
     * set) and before the instance is recycled or destroyed. The
     * streaming path records latency into bounded histograms here
     * instead of materializing AppRecords.
     */
    using RetireListener = SmallFunction<void(const AppInstance &)>;
    void
    setRetireListener(RetireListener cb)
    {
        _retireListener = std::move(cb);
    }

    /**
     * Raise the recycling pool limit to at least @p n and pre-reserve
     * the id-indexed side tables for ~n concurrent instances, so a
     * warmed-up streaming run reaches its zero-alloc steady state
     * without mid-run vector growth.
     */
    void reserveAppPool(std::size_t n);

    /**
     * Fill the recycling pool to its limit with pre-constructed
     * instances (reinit()ed on first use), so even the first admission
     * wave never constructs on the hot path. @p spec and @p batch seed
     * the pooled instances' task storage; pass the largest graph the
     * run will admit so reinit() never has to grow it.
     */
    void prewarmAppPool(AppSpecPtr spec, int batch);

    /// @}

    /**
     * Attach the grid's shared run-invariant state (pre-warmed estimate
     * caches; see core/grid_context.hh). A context whose fabric timing
     * does not match this board is ignored — serving estimates computed
     * for different timing would silently change results. Pass nullptr
     * to detach.
     */
    void setGridContext(const GridContext *ctx);

    /** @name SchedulerOps */
    /// @{
    SimTime now() const override { return _eq.now(); }
    Fabric &fabric() override { return _fabric; }
    const std::vector<AppInstance *> &liveApps() override { return _live; }
    std::uint64_t liveAppsEpoch() const override { return _liveEpoch; }
    const std::vector<AppInstance *> &
    readyChangedApps() override
    {
        return _readyChanged;
    }
    AppInstance *
    findApp(AppInstanceId id) override
    {
        return id < _owned.size() ? _owned[id].get() : nullptr;
    }
    bool configure(AppInstance &app, TaskId task, SlotId slot) override;
    bool preempt(SlotId slot) override;
    SimTime estimatedSingleSlotLatency(AppInstance &app) override;
    SimTime reconfigLatencyEstimate() const override;
    const GridContext *gridContext() const override { return _gridCtx; }
    std::uint64_t stateVersion() const override { return _stateVersion; }
    double
    energyJoulesTotal() const override
    {
        return _energy ? _energy->totalJoules() : 0.0;
    }
    std::uint8_t slotPipelineFlags(SlotId slot) override;
    /// @}

  private:
    /** Coalescing pass request; the pass runs after passLatency. */
    void requestPass(SchedEvent reason);

    /** Execute one scheduling pass (never re-entered). */
    void runPass(SchedEvent reason);

    /** Reconfiguration completed for (app, task) in @p slot. */
    void onReconfigDone(AppInstanceId app_id, TaskId task, SlotId slot,
                        SimTime reconfig_latency);

    /** @name Resilience (active only with an installed FaultInjector) */
    /// @{

    /** Issue (or re-issue) the SD-load + CAP chain for a placement. */
    void issueConfigLoad(AppInstanceId app_id, TaskId task, SlotId slot,
                         std::uint64_t bytes, SimTime cap_latency);

    /** An injected fault failed the SD load or CAP reconfiguration. */
    void onConfigFailed(AppInstanceId app_id, TaskId task, SlotId slot,
                        std::uint64_t bytes, SimTime cap_latency,
                        bool from_sd);

    /** Dissolve a Configuring placement: task to Idle, slot freed. */
    void abortPlacement(AppInstance &app, TaskId task, SlotId slot);

    /** Quarantine @p slot (must be Free) and start probing it. */
    void quarantineSlot(SlotId slot);

    /** Schedule the next quarantine probe of @p slot. */
    void scheduleProbe(SlotId slot);

    /** Probe a quarantined slot; repair returns it to service. */
    void probeSlot(SlotId slot);

    /** An in-flight batch item crashed (or its watchdog fired). */
    void onItemFailed(SlotId slot, bool hang);

    /** An item exhausted its retries: requeue the app or fail it. */
    void requeueOrFail(AppInstance &app);

    /** Discard the app's progress and send it back to the queue. */
    void requeueApp(AppInstance &app);

    /** Retire the app as failed, vacating everything it holds. */
    void failApp(AppInstance &app);

    /** Vacate every Resident task of @p app (cancelling in-flight items). */
    void vacateResidentTasks(AppInstance &app);

    /** Tell the scheduler the slot set changed and trigger a pass. */
    void notifyCapacityChanged();

    /// @}

    /** Fire the quiescence notification once the migrating @p app holds
        no slot (no-op unless migrating and not yet notified). */
    void maybeFinishQuiesce(AppInstance &app);

    /**
     * Drive the slot: honor preemption, start the next batch item,
     * complete the task, or leave it waiting for inputs.
     */
    void advanceSlot(SlotId slot);

    /**
     * Begin one batch item in @p slot: input transfer, kernel compute,
     * output transfer. With PS-contention modeling the transfers queue on
     * the shared data port; interior (task-to-task) transfers use the
     * configured inter-slot transport.
     */
    void startItem(SlotId slot);

    /**
     * Perform a data transfer of @p bytes and invoke @p cb when done.
     *
     * @param interior True for task-to-task edges (NoC-eligible), false
     *                 for external input/output (always via the PS).
     */
    void doTransfer(std::uint64_t bytes, bool interior,
                    EventQueue::Callback cb);

    /** A batch item finished executing in @p slot. */
    void onItemDone(SlotId slot, SimTime item_duration);

    /** Vacate @p slot at an item boundary, retaining task progress. */
    void doPreempt(SlotId slot);

    /** Task finished its whole batch. */
    void completeTask(SlotId slot);

    /** All tasks of @p app complete: record metrics and drop it. */
    void retire(AppInstance &app);

    /**
     * Take ownership of a newly admitted or readmitted instance: index
     * it by id, append it to the live set, mark its readiness changed,
     * restart a parked tick and tell the scheduler.
     */
    AppInstance &addLive(std::unique_ptr<AppInstance> inst);

    /**
     * Tell the scheduler @p app is gone and drop it from the live set
     * and the readiness lists (retire and extractCheckpoint).
     *
     * @return The instance's owner, for pooling or destruction.
     */
    std::unique_ptr<AppInstance> removeLive(AppInstance &app);

    /**
     * Put @p app on the readiness-change list served to the next
     * executed pass (at most once; see readyChangedApps()).
     */
    void
    markReadyChanged(AppInstance &app)
    {
        if (app.readyMarked())
            return;
        app.setReadyMarked(true);
        _readyMarks.push_back(&app);
    }

    /**
     * Dead-state rescue: if nothing can ever make progress again (no item
     * executing, CAP idle, no free slot, every occupied slot waiting),
     * force-preempt the waiting task latest in topological order so its
     * producer can be scheduled. Counted in stats; a correctness backstop
     * for pathological pipelining states, not a scheduling feature.
     */
    void rescueStallIfNeeded();

    /** Per-item wall time (kernel + PS transfers) for (app, task). */
    SimTime itemWallTime(const AppInstance &app, TaskId task) const;

    /** Class-scaled CAP latency for a placement in @p slot_id. */
    SimTime classCapLatency(std::uint64_t bytes, SlotId slot_id) const;

    /** Record a slot transition when a timeline is attached. */
    void trace(SlotId slot, const AppInstance &app, TaskId task,
               TimelineEventKind kind);

    /** Record an app-less slot event (quarantine transitions). */
    void
    traceSlot(SlotId slot, TimelineEventKind kind)
    {
        if (_timeline) {
            _timeline->record(_eq.now(), slot, kAppNone, kTaskNone,
                              kNameNone, kind);
        }
    }

    /** Record a counter observation when a registry is attached. */
    void
    countSample(CounterId id, double value)
    {
        if (_counters)
            _counters->sample(id, _eq.now(), value);
    }

    /** Buffer bytes charged while (app, task) is resident. */
    std::uint64_t bufferBytes(const AppInstance &app, TaskId task) const;

    EventQueue &_eq;
    Fabric &_fabric;
    Scheduler &_scheduler;
    MetricsCollector &_collector;
    HypervisorConfig _cfg;
    BufferManager _buffers;

    /**
     * Owner of every live instance, indexed by AppInstanceId (ids are
     * monotonic, or recycled with pooled instances, so the table stays
     * dense); null for ids with no live instance.
     */
    std::vector<std::unique_ptr<AppInstance>> _owned;
    /** Admission order: AppInstance::admitSeq() strictly increases. */
    std::vector<AppInstance *> _live;
    std::uint64_t _liveEpoch = 0; //!< Bumped on every _live mutation.
    std::uint64_t _nextAdmitSeq = 0;
    AppInstanceId _nextAppId = 1;

    /** Apps marked since the last executed pass began, in mark order. */
    std::vector<AppInstance *> _readyMarks;
    /**
     * The executing pass's readiness delta (readyChangedApps()): the
     * marks taken at pass start, in admission order; empty between
     * passes. Both lists hold live apps only, each at most once, and
     * are kept at _live's capacity so marking never allocates.
     */
    std::vector<AppInstance *> _readyChanged;

    /** AppInstanceId -> interned timeline name (lazy; kNameNone until). */
    std::vector<NameId> _appNameId;

    /** Pending item-completion event per slot (for checkpointing). */
    std::vector<EventId> _itemEvent;
    /** Start time of the in-flight item per slot. */
    std::vector<SimTime> _itemStart;
    /** Planned wall duration of the in-flight item per slot. */
    std::vector<SimTime> _itemDuration;
    /**
     * Completion time of the slot's previous item (kTimeNone after any
     * release/abort). A pipelined task whose next item starts at this
     * exact timestamp still has a full kernel pipeline and issues at
     * the steady interval instead of paying the fill latency
     * (kernel_model/). Irrelevant to scalar tasks.
     */
    std::vector<SimTime> _pipeLastDone;
    /** In-flight item issued at the steady pipeline interval, per slot. */
    std::vector<char> _pipePrimed;
    /**
     * 1 when the slot's occupant task carries a kernel model; recorded
     * at configure, read only while the slot is Occupied.
     */
    std::vector<std::uint8_t> _slotKernel;

    /**
     * Periodic scheduling tick. Parked while no application is live and
     * restarted phase-aligned on the next admission: a tick with nothing
     * to schedule is a no-op pass, so parking it changes no result, only
     * schedulingPasses and the events fired.
     */
    std::unique_ptr<PeriodicEvent> _tick;
    /** Persistent pass timer: armed per requestPass, constructed once. */
    TimerId _passTimer = kTimerNone;
    bool _started = false;
    bool _passPending = false;
    SchedEvent _pendingReason = SchedEvent::Tick;
    bool _inPass = false;

    /**
     * True when hypervisor/fabric state may have changed since the last
     * executed scheduler pass: set by every non-tick pass trigger and by
     * any action a pass issues, cleared after an action-free pass. While
     * false, a pure scheduler's tick pass is a provable no-op, and
     * runPass() skips its body (see Scheduler::passIsPure()).
     */
    bool _stateDirty = true;
    /** Bumped on every configure/preempt attempt (dirty tracking). */
    std::uint64_t _actionCounter = 0;
    /**
     * Monotonic mutation counter behind SchedulerOps::stateVersion():
     * advanced wherever _stateDirty is raised. A pass's configure()
     * calls advance it only when runPass() returns;
     * SchedulerOps::stateVersion() says what equal versions promise.
     */
    std::uint64_t _stateVersion = 1;

    /**
     * Single-slot latency estimates this hypervisor computed itself
     * (GridContext hits are memoized on the app only), keyed by
     * (spec, batch). Holding the shared_ptr pins each spec's lifetime so
     * a later spec allocated at a recycled address (workloads that mint
     * a fresh spec per submission, e.g. withEstimateError()) can never
     * alias a stale entry; keying on the pointer still avoids rebuilding
     * a string key on every estimate (PREMA asks from inside its sort
     * pass).
     */
    std::map<std::pair<AppSpecPtr, int>, SimTime> _latencyCache;

    /** Shared read-only grid state; nullptr outside grid/bench runs. */
    const GridContext *_gridCtx = nullptr;

    Timeline *_timeline = nullptr;

    /** @name Resilience state (sized/armed by setFaultInjector) */
    /// @{
    FaultInjector *_faults = nullptr; //!< Non-owning; null when disabled.
    std::unique_ptr<RetryPolicy> _retry;
    std::unique_ptr<SlotHealth> _health;
    /** Failed attempts of the current Configuring placement, per slot. */
    std::vector<int> _configAttempts;
    /** Failed attempts of the current batch item, per slot. */
    std::vector<int> _itemAttempts;
    /** Fault class drawn for the in-flight item, per slot. */
    std::vector<ItemFault> _itemFault;
    /** True while an item-retry backoff holds the slot (no new items). */
    std::vector<char> _slotHold;
    /// @}

    /** Energy accounting; null when disabled (see setEnergyModel). */
    EnergyModel *_energy = nullptr;

    QuiescentListener _quiescent;
    CapacityListener _capacityListener;
    RetireListener _retireListener;

    /** Retired instances awaiting reuse (≤ appPoolSize; see config). */
    std::vector<std::unique_ptr<AppInstance>> _pool;

    CounterRegistry *_counters = nullptr;
    CounterId _ctrLiveApps = kCounterNone;   //!< hyp.live_apps
    CounterId _ctrRetired = kCounterNone;    //!< hyp.retired
    CounterId _ctrItemsDone = kCounterNone;  //!< hyp.items_done
    CounterId _ctrPasses = kCounterNone;     //!< hyp.sched_passes
    CounterId _ctrBufferBytes = kCounterNone; //!< hyp.buffer_bytes
    CounterId _markPass = kCounterNone;      //!< sched.pass instants
    CounterId _ctrFaults = kCounterNone;     //!< fault.injected
    CounterId _ctrFaultRetries = kCounterNone; //!< fault.retries
    CounterId _ctrQuarantined = kCounterNone; //!< fault.quarantined_slots
    CounterId _ctrAppsFailed = kCounterNone; //!< fault.apps_failed

    HypervisorStats _stats;
};

} // namespace nimblock

#endif // NIMBLOCK_HYPERVISOR_HYPERVISOR_HH
