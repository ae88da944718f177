#include "policy/observation.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>

namespace nimblock {

void
ObservationBuilder::fillAppObs(AppObs &out, SchedulerOps &ops,
                               AppInstance &app)
{
    // Zero first so the padding bytes are deterministic: "same state"
    // must mean "byte-identical row" for the trace format and the
    // determinism tests.
    std::memset(&out, 0, sizeof(out));

    out.id = app.id();
    out.totalItems = static_cast<std::int64_t>(app.graph().numTasks()) *
                     app.batch();
    out.itemsRemaining = out.totalItems - app.itemsDoneTotal();
    out.estLatency = ops.estimatedSingleSlotLatency(app);
    out.priority = app.priorityValue();
    // Queue depth is the work that wants a slot regardless of execution
    // discipline (the prefetchable set); it and the held slots are the
    // app's tallies, the streaming-kernel count a property of its graph.
    const TaskGraph &graph = app.graph();
    out.queueDepth = app.idlePendingTasks();
    out.pipelinedTasks = static_cast<std::uint8_t>(
        std::min<std::size_t>(graph.numKernelTasks(), 255));
    out.slotsUsed = static_cast<std::int32_t>(app.slotsUsed());
    out.tasksIncomplete = static_cast<std::int32_t>(graph.numTasks()) -
                          app.tasksCompleted();
    out.launched = app.firstLaunch() != kTimeNone ? 1 : 0;
    refreshAppObs(out, ops, app);
}

void
ObservationBuilder::refreshAppObs(AppObs &row, SchedulerOps &ops,
                                  const AppInstance &app)
{
    row.waitingTime = ops.now() - app.arrival();
    row.deadlineSlack =
        app.arrival() +
        static_cast<SimTime>(kObsDeadlineScale *
                             static_cast<double>(row.estLatency)) -
        ops.now();
    row.candidateSince = app.candidateSince();
    row.token = app.token();
    row.slotsAllocated = static_cast<std::int32_t>(app.slotsAllocated());
    row.overConsumption = static_cast<std::int64_t>(row.slotsUsed) -
                          static_cast<std::int64_t>(app.slotsAllocated());
    row.everCandidate = app.everCandidate() ? 1 : 0;
}

bool
ObservationBuilder::sameApps(const std::vector<AppInstance *> &apps) const
{
    if (apps.size() != _obs.liveApps)
        return false;
    for (std::uint32_t i = 0; i < _obs.numApps; ++i) {
        if (apps[i]->id() != _obs.apps[i].id)
            return false;
    }
    return true;
}

const SchedObservation &
ObservationBuilder::build(SchedulerOps &ops,
                          const std::vector<AppInstance *> &apps)
{
    // Equal nonzero versions mean only time and the scheduler's own
    // bookkeeping moved since the last build; ids identify the same
    // apps while the live set stands still.
    const std::uint64_t version = ops.stateVersion();
    const bool refresh =
        version != 0 && version == _builtVersion && sameApps(apps);
    _builtVersion = version;

    // Every byte is written or zeroed: the header here, each slot row
    // in full, each app row by fillAppObs() (or kept from the build it
    // refreshes), and below any row an earlier build filled beyond
    // this one's.
    const std::uint32_t prev_slot_rows =
        std::min<std::uint32_t>(_obs.numSlots, kMaxSlotObs);
    const std::uint32_t prev_app_rows = _obs.numApps;
    std::memset(&_obs, 0, offsetof(SchedObservation, slots));

    Fabric &fabric = ops.fabric();
    _obs.now = ops.now();
    _obs.stateVersion = version;
    _obs.numSlots = static_cast<std::uint32_t>(fabric.numSlots());
    _obs.freeSlots = static_cast<std::uint32_t>(fabric.freeSlotCount());
    _obs.quarantinedSlots =
        static_cast<std::uint32_t>(fabric.quarantinedSlotCount());
    _obs.configuringSlots =
        static_cast<std::uint32_t>(fabric.configuringCount());
    _obs.capBusy = fabric.cap().busy() ? 1 : 0;
    _obs.storeBusy = fabric.store().busy() ? 1 : 0;
    // 0.0f (all bits zero, matching the old padding) when accounting is
    // off, so energy-off snapshots stay byte-identical.
    _obs.energyJoules = static_cast<float>(ops.energyJoulesTotal());

    std::size_t slot_rows = fabric.numSlots();
    if (slot_rows > kMaxSlotObs) {
        slot_rows = kMaxSlotObs;
        _obs.slotsTruncated = 1;
    }
    // Slot rows are always re-read: item faults and retry holds flip a
    // slot between executing and waiting without a version bump.
    const std::vector<Slot> &slots = fabric.slots();
    for (std::size_t i = 0; i < slot_rows; ++i) {
        const Slot &s = slots[i];
        SlotObs &row = _obs.slots[i];
        row.app = s.app();
        row.task = s.task();
        row.id = s.id();
        row.state = static_cast<std::uint8_t>(s.state());
        row.executing = s.executing() ? 1 : 0;
        row.waitingForNextItem = s.waitingForNextItem() ? 1 : 0;
        row.quarantined = s.quarantined() ? 1 : 0;
        row.preemptRequested = s.preemptRequested() ? 1 : 0;
        // 0 on uniform boards (one implicit class), matching the old
        // padding byte.
        row.slotClass = static_cast<std::uint8_t>(s.classId());
        // 0 without kernel models, matching the old padding bytes.
        std::uint8_t pipe = ops.slotPipelineFlags(s.id());
        row.pipelined = pipe & 1;
        row.pipelinePrimed = (pipe >> 1) & 1;
    }
    if (slot_rows < prev_slot_rows) {
        std::memset(&_obs.slots[slot_rows], 0,
                    (prev_slot_rows - slot_rows) * sizeof(SlotObs));
    }

    _obs.liveApps = static_cast<std::uint32_t>(apps.size());
    std::size_t app_rows = apps.size();
    if (app_rows > kMaxAppObs) {
        app_rows = kMaxAppObs;
        _obs.appsTruncated = 1;
    }
    _obs.numApps = static_cast<std::uint32_t>(app_rows);
    if (refresh) {
        ++_refreshes;
        for (std::size_t i = 0; i < app_rows; ++i)
            refreshAppObs(_obs.apps[i], ops, *apps[i]);
    } else {
        for (std::size_t i = 0; i < app_rows; ++i)
            fillAppObs(_obs.apps[i], ops, *apps[i]);
    }
    if (app_rows < prev_app_rows) {
        std::memset(&_obs.apps[app_rows], 0,
                    (prev_app_rows - app_rows) * sizeof(AppObs));
    }

    return _obs;
}

} // namespace nimblock
