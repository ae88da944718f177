#include "sched/static_alloc.hh"

#include <algorithm>

#include "core/grid_context.hh"
#include "sim/logging.hh"

namespace nimblock {

void
StaticAllocScheduler::ensureComponents()
{
    if (_goals || _sharedGoals)
        return;
    MakespanParams params;
    params.pipelined = true;
    params.reconfigLatency = ops().reconfigLatencyEstimate();
    params.psBandwidthBytesPerSec =
        ops().fabric().config().psBandwidthBytesPerSec;
    // Clamp like NimblockScheduler: a fully-quarantined board reports
    // zero schedulable slots, but the cache must stay constructible.
    std::size_t max_slots =
        std::max<std::size_t>(1, ops().fabric().schedulableSlotCount());
    if (const GridContext *ctx = ops().gridContext())
        _sharedGoals = ctx->goalCache(max_slots, params, 0.03);
    if (!_sharedGoals)
        _goals = std::make_unique<GoalNumberCache>(max_slots, params);
}

std::size_t
StaticAllocScheduler::goalNumberFor(AppInstance &app)
{
    if (const SaturationAnalysis *a =
            _sharedGoals ? _sharedGoals->peek(app.spec(), app.batch())
                         : nullptr)
        return a->saturationPoint;
    if (!_goals && _sharedGoals) {
        // Unwarmed pair: fall back to a private cache built with the
        // identical geometry.
        _goals = std::make_unique<GoalNumberCache>(
            std::max<std::size_t>(1, ops().fabric().schedulableSlotCount()),
            _sharedGoals->params());
    }
    return _goals->goalNumber(app.spec(), app.batch());
}

std::size_t
StaticAllocScheduler::reservationOf(AppInstanceId app) const
{
    auto it = _reservations.find(app);
    return it == _reservations.end() ? 0 : it->second;
}

void
StaticAllocScheduler::grantReservations()
{
    std::size_t total = ops().fabric().schedulableSlotCount();
    for (AppInstance *app : ops().liveApps()) {
        if (_reservations.count(app->id()))
            continue;
        if (_reservedTotal >= total)
            return; // Board fully designated; later apps wait (FIFO).
        std::size_t want = goalNumberFor(*app);
        std::size_t grant = std::min(want, total - _reservedTotal);
        _reservations[app->id()] = grant;
        _reservedTotal += grant;
        app->setSlotsAllocated(grant);
    }
}

void
StaticAllocScheduler::pass(SchedEvent reason)
{
    (void)reason;
    ensureComponents();
    grantReservations();

    // Within its fixed reservation, every application pipelines freely;
    // sum of reservations <= slots, so a free slot always exists for an
    // application below its reservation.
    for (AppInstance *app : ops().liveApps()) {
        std::size_t reserved = reservationOf(app->id());
        if (reserved == 0)
            continue;
        bool pipelined = app->spec().pipelineAcrossBatch();
        app->configurableTasksInto(_taskScratch, pipelined);
        for (TaskId t : _taskScratch) {
            if (app->slotsUsed() >= reserved)
                break;
            SlotId slot = pickFreeSlot(*app, t);
            if (slot == kSlotNone)
                return;
            ops().configure(*app, t, slot);
        }
    }
}

void
StaticAllocScheduler::onAppRetired(AppInstance &app)
{
    auto it = _reservations.find(app.id());
    if (it != _reservations.end()) {
        _reservedTotal -= it->second;
        _reservations.erase(it);
    }
}

} // namespace nimblock
