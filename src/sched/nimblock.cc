#include "sched/nimblock.hh"

#include <algorithm>

#include "core/grid_context.hh"
#include "sim/logging.hh"

namespace nimblock {

std::string
NimblockConfig::nameFor(bool pipelining, bool preemption)
{
    std::string name = "nimblock";
    if (!preemption)
        name += "_nopreempt";
    if (!pipelining)
        name += "_nopipe";
    return name;
}

NimblockScheduler::NimblockScheduler(NimblockConfig cfg)
    : Scheduler(NimblockConfig::nameFor(cfg.enablePipelining,
                                        cfg.enablePreemption)),
      _cfg(cfg)
{
    _lastCandidateIds.reserve(64);
    _candidates.reserve(64);
    _ordered.reserve(64);
    _idsScratch.reserve(64);
    _alloc.reserve(64);
}

void
NimblockScheduler::ensureComponents()
{
    if (!_tokens) {
        _tokens = std::make_unique<TokenPolicy>(
            _cfg.tokens, [this](AppInstance &a) {
                return ops().estimatedSingleSlotLatency(a);
            });
    }
    if (!_goals && !_sharedGoals) {
        MakespanParams params;
        params.pipelined = _cfg.enablePipelining;
        params.reconfigLatency = ops().reconfigLatencyEstimate();
        params.psBandwidthBytesPerSec =
            ops().fabric().config().psBandwidthBytesPerSec;
        // A fully-quarantined board has zero schedulable slots; size the
        // cache as if one existed so passes stay well-defined (nothing
        // places anyway) until probes restore capacity.
        std::size_t max_slots =
            std::max<std::size_t>(1, ops().fabric().schedulableSlotCount());
        // Prefer the grid's pre-warmed sweep when its geometry matches
        // exactly; its entries are the same analyzeSaturation() outputs a
        // private cache would compute, just filled before the run.
        if (const GridContext *ctx = ops().gridContext())
            _sharedGoals =
                ctx->goalCache(max_slots, params, _cfg.saturationThreshold);
        if (!_sharedGoals)
            _goals = std::make_unique<GoalNumberCache>(
                max_slots, params, _cfg.saturationThreshold);
    }
}

void
NimblockScheduler::onCapacityChanged()
{
    // Goal numbers saturate against the schedulable slot count, which just
    // changed; drop the cache so ensureComponents() rebuilds it sized for
    // the new capacity (invalidating every per-instance cached goal via
    // the epoch), and reallocate on the next pass. A shared grid cache is
    // dropped too: it no longer matches the new slot count.
    _goals.reset();
    _sharedGoals = nullptr;
    ++_goalEpoch;
    _capacityDirty = true;
}

void
NimblockScheduler::onAppAdmitted(AppInstance &app)
{
    goalNumberFor(app);
}

std::size_t
NimblockScheduler::goalNumberFor(AppInstance &app)
{
    // Epoch-validated per-instance cache: reallocation asks for every
    // candidate's goal number on every tick pass, and the underlying
    // cache probe is a map lookup. The epoch advances on capacity
    // changes, which is exactly when goal numbers can change.
    if (app.cachedGoalEpoch() == _goalEpoch)
        return app.cachedGoalNumber();
    ensureComponents();
    std::size_t goal;
    if (const SaturationAnalysis *a =
            _sharedGoals ? _sharedGoals->peek(app.spec(), app.batch())
                         : nullptr) {
        goal = a->saturationPoint;
    } else {
        // No shared entry (unwarmed pair, or no grid context): fill a
        // private cache with the identical computation.
        if (!_goals && _sharedGoals) {
            _goals = std::make_unique<GoalNumberCache>(
                std::max<std::size_t>(
                    1, ops().fabric().schedulableSlotCount()),
                _sharedGoals->params(), _cfg.saturationThreshold);
        }
        goal = _goals->goalNumber(app.spec(), app.batch());
    }
    app.setCachedGoalNumber(goal, _goalEpoch);
    return goal;
}

void
NimblockScheduler::reallocate(const std::vector<AppInstance *> &ordered)
{
    ++_stats.reallocations;
    std::size_t total = ops().fabric().schedulableSlotCount();

    // Non-candidates hold no allocation target.
    for (AppInstance *app : ops().liveApps())
        app->setSlotsAllocated(0);

    auto &alloc = _alloc;
    alloc.assign(ordered.size(), 0);
    std::size_t remaining = total;

    // Phase 1: one slot per candidate, oldest first, to guarantee forward
    // progress for every candidate.
    for (std::size_t i = 0; i < ordered.size() && remaining > 0; ++i) {
        alloc[i] = 1;
        --remaining;
    }

    // Phase 2: raise allocations to the goal number (saturation point),
    // oldest candidates first.
    for (std::size_t i = 0; i < ordered.size() && remaining > 0; ++i) {
        if (alloc[i] == 0)
            break; // Ran out of slots in phase 1.
        std::size_t goal = goalNumberFor(*ordered[i]);
        while (alloc[i] < goal && remaining > 0) {
            ++alloc[i];
            --remaining;
        }
    }

    // Phase 3: surplus slots go to applications that can still use them
    // (more incomplete tasks than allocated slots), in age order.
    for (std::size_t i = 0; i < ordered.size() && remaining > 0; ++i) {
        if (alloc[i] == 0)
            break;
        const AppInstance &app = *ordered[i];
        std::size_t incomplete =
            app.graph().numTasks() -
            static_cast<std::size_t>(app.tasksCompleted());
        while (alloc[i] < incomplete && remaining > 0) {
            ++alloc[i];
            --remaining;
        }
    }

    std::size_t allocated_total = 0;
    for (std::size_t i = 0; i < ordered.size(); ++i) {
        ordered[i]->setSlotsAllocated(alloc[i]);
        allocated_total += alloc[i];
    }
    if (allocated_total > total)
        panic("slot allocation over-committed: %zu allocated, %zu slots",
              allocated_total, total);
}

bool
NimblockScheduler::configureInFlight()
{
    // O(1): the fabric counts Configuring slots on every transition, so
    // this per-pass probe no longer scans the slot array.
    Fabric &fabric = ops().fabric();
    return fabric.configuringCount() > 0 || fabric.cap().busy() ||
           fabric.store().busy();
}

SlotId
NimblockScheduler::selectPreemptionVictim()
{
    _victimSearched = true;
    // Algorithm 2 lines 1-9: the strictly largest over-consumer among
    // the applications holding a slot that waits at an item boundary
    // with no preemption already requested.
    std::int64_t over_consumption = 0;
    AppInstance *over_consumer = nullptr;
    for (const Slot &s : ops().fabric().slots()) {
        if (!s.waitingForNextItem() || s.preemptRequested())
            continue;
        AppInstance *app = ops().findApp(s.app());
        if (!app)
            continue;
        std::int64_t consumption = app->overConsumption();
        if (consumption > over_consumption) {
            over_consumption = consumption;
            over_consumer = app;
        }
    }
    if (!over_consumer)
        return kSlotNone; // No over-consumer: nothing is preempted.

    // Lines 10-11: the task latest in topological order among the
    // over-consumer's running tasks, so no pipelined dependency of another
    // running task is removed.
    over_consumer->residentTasksInto(_taskScratch); // Topological order.
    if (_taskScratch.empty())
        return kSlotNone;
    TaskId preempt_task = _taskScratch.back();
    return over_consumer->taskState(preempt_task).slot;
}

bool
NimblockScheduler::selectAndPlace(const std::vector<AppInstance *> &ordered)
{
    // Only one slot can be reconfigured at a time on the device; wait for
    // the in-flight configuration before selecting another task.
    if (configureInFlight())
        return false;

    auto pipelined_for = [this](const AppInstance &app) {
        return _cfg.enablePipelining && app.spec().pipelineAcrossBatch();
    };

    // Round A: oldest candidate still below its slot allocation.
    for (AppInstance *app : ordered) {
        if (app->slotsUsed() >= app->slotsAllocated())
            continue;
        TaskId task = app->firstConfigurableTask(pipelined_for(*app));
        if (task == kTaskNone)
            continue;

        SlotId slot = pickFreeSlot(*app, task);
        if (slot != kSlotNone)
            return ops().configure(*app, task, slot);

        if (!_cfg.enablePreemption)
            continue;

        // §4.4: a task is ready but no slot is available — batch-preempt.
        SlotId victim = selectPreemptionVictim();
        if (victim == kSlotNone)
            continue;
        ++_stats.preemptionsIssued;
        if (ops().preempt(victim)) {
            // Victim was waiting at an item boundary: the slot is free now.
            return ops().configure(*app, task, victim);
        }
        // Victim is mid-item: preemption is delayed to the item boundary
        // (a PreemptDone pass will re-run selection).
        ++_stats.delayedPreemptions;
        return false;
    }

    // Round B: opportunistic pipelining — if free slots remain, the oldest
    // candidate with a ready task may exceed its allocation ("pipelining
    // is begun automatically if an application has slots available").
    if (ops().fabric().freeSlotCount() > 0) {
        for (AppInstance *app : ordered) {
            TaskId task = app->firstConfigurableTask(pipelined_for(*app));
            if (task == kTaskNone)
                continue;
            SlotId slot = pickFreeSlot(*app, task);
            if (slot == kSlotNone)
                break;
            if (ops().configure(*app, task, slot)) {
                ++_stats.opportunisticConfigures;
                return true;
            }
        }
    }
    return false;
}

void
NimblockScheduler::pass(SchedEvent reason)
{
    ensureComponents();

    // Step 1 (Figure 3): accumulate tokens and update the candidate pool
    // on scheduling intervals, arrivals and completions; other passes
    // reuse the pool from the last accumulation. While the live-app set
    // is unchanged (same epoch) the cached _candidates pointers from the
    // previous pass are still exact, so the per-id findApp re-resolution
    // is skipped entirely.
    if (TokenPolicy::accumulatesOn(reason)) {
        _candidates = _tokens->update(ops().liveApps(), ops().now());
        _poolEpoch = ops().liveAppsEpoch();
    } else if (_poolEpoch != ops().liveAppsEpoch()) {
        _candidates.clear();
        for (AppInstanceId id : _lastCandidateIds) {
            if (AppInstance *app = ops().findApp(id))
                _candidates.push_back(app);
        }
        _poolEpoch = ops().liveAppsEpoch();
    }

    _idsScratch.clear();
    _idsScratch.reserve(_candidates.size());
    for (AppInstance *app : _candidates)
        _idsScratch.push_back(app->id());
    bool pool_changed = _idsScratch != _lastCandidateIds;

    // Candidate order by pool age (oldest first, arrival then id as the
    // tie-break), shared by reallocation and selection. Ids are unique
    // and monotonic in arrival order, so plain sort with the full key
    // reproduces the stable sort it replaces. Every key is immutable for
    // the life of the instance (candidateSince is set-once), so the
    // copy+sort is skipped entirely while the pool is unchanged — the
    // previous _ordered is still exact.
    if (pool_changed) {
        _ordered = _candidates;
        std::sort(_ordered.begin(), _ordered.end(),
                  [](AppInstance *a, AppInstance *b) {
                      if (a->candidateSince() != b->candidateSince())
                          return a->candidateSince() < b->candidateSince();
                      if (a->arrival() != b->arrival())
                          return a->arrival() < b->arrival();
                      return a->id() < b->id();
                  });
    }

    // Clean tick: the last pass that reallocated saw this version and
    // this pool, so reallocating would set the same targets, and its
    // selection issued nothing (an action advances the version when its
    // pass returns), so selecting again would issue nothing. Its victim
    // search is the exception: item faults flip slots between executing
    // and waiting without advancing the version.
    const std::uint64_t version = ops().stateVersion();
    if (version != 0 && version == _placedVersion && !pool_changed &&
        !_capacityDirty && !_victimSearched) {
        if (reason == SchedEvent::Tick)
            ++_stats.reallocations;
        std::swap(_lastCandidateIds, _idsScratch);
        return;
    }

    // Step 2: reallocate on candidate-pool changes and periodic ticks.
    if (reason == SchedEvent::Tick || _capacityDirty || pool_changed) {
        reallocate(_ordered);
        _capacityDirty = false;
        _placedVersion = version;
        _victimSearched = false;
    }
    std::swap(_lastCandidateIds, _idsScratch);

    if (_candidates.empty())
        return;

    // Steps 3-4: select a task and a slot (preempting if necessary),
    // repeating while zero-latency placements remain is unnecessary —
    // only one reconfiguration can be in flight, so one placement per
    // pass suffices; the ReconfigDone pass continues the chain.
    selectAndPlace(_ordered);
}

} // namespace nimblock
