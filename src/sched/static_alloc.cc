#include "sched/static_alloc.hh"

#include <algorithm>

#include "core/grid_context.hh"
#include "sim/logging.hh"

namespace nimblock {

void
StaticAllocScheduler::ensureComponents()
{
    if (_goals)
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
    const GridContext *ctx = ops().gridContext();
    _goals.emplace(max_slots, params, 0.03,
                   ctx ? ctx->goalCache(max_slots, params, 0.03) : nullptr);
}

std::size_t
StaticAllocScheduler::reservationOf(AppInstanceId app)
{
    const AppInstance *inst = ops().findApp(app);
    return inst ? inst->slotsAllocated() : 0;
}

void
StaticAllocScheduler::grantReservations()
{
    std::size_t total = ops().fabric().schedulableSlotCount();
    for (AppInstance *app : ops().liveApps()) {
        if (app->slotsAllocated() > 0)
            continue;
        if (_reservedTotal >= total)
            return; // Board fully designated; later apps wait (FIFO).
        std::size_t want = _goals->goalNumber(app->spec(), app->batch());
        std::size_t grant = std::min(want, total - _reservedTotal);
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
        std::size_t reserved = app->slotsAllocated();
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
    _reservedTotal -= app.slotsAllocated();
}

} // namespace nimblock
