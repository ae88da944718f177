#include "policy/observation.hh"

#include <algorithm>
#include <cstddef>
#include <cstring>

namespace nimblock {

namespace {

/** Fill one application feature row (padding zeroed) in O(1): the
    task-state fields come from AppInstance's tallies. */
void
fillAppObs(AppObs &out, SchedulerOps &ops, AppInstance &app)
{
    // Zero first so the padding bytes are deterministic: "same state"
    // must mean "byte-identical row" for the trace format and the
    // determinism tests.
    std::memset(&out, 0, sizeof(out));

    const SimTime now = ops.now();
    out.id = app.id();
    out.totalItems = app.totalItems();
    out.itemsRemaining = out.totalItems - app.itemsDoneTotal();
    out.estLatency = ops.estimatedSingleSlotLatency(app);
    out.waitingTime = now - app.arrival();
    out.deadlineSlack =
        app.arrival() +
        static_cast<SimTime>(kObsDeadlineScale *
                             static_cast<double>(out.estLatency)) -
        now;
    out.candidateSince = app.candidateSince();
    out.token = app.token();
    out.priority = app.priorityValue();
    // Queue depth is the work that wants a slot regardless of execution
    // discipline (the prefetchable set); it and the held slots are the
    // app's tallies, the streaming-kernel count a property of its graph.
    const TaskGraph &graph = app.graph();
    out.queueDepth = app.idlePendingTasks();
    out.pipelinedTasks = static_cast<std::uint8_t>(
        std::min<std::size_t>(graph.numKernelTasks(), 255));
    out.slotsUsed = static_cast<std::int32_t>(app.slotsUsed());
    out.slotsAllocated = static_cast<std::int32_t>(app.slotsAllocated());
    out.overConsumption = static_cast<std::int64_t>(out.slotsUsed) -
                          static_cast<std::int64_t>(app.slotsAllocated());
    out.tasksIncomplete = static_cast<std::int32_t>(graph.numTasks()) -
                          app.tasksCompleted();
    out.everCandidate = app.everCandidate() ? 1 : 0;
    out.launched = app.firstLaunch() != kTimeNone ? 1 : 0;
}

} // namespace

const SchedObservation &
ObservationBuilder::build(SchedulerOps &ops,
                          const std::vector<AppInstance *> &apps)
{
    // Every byte is written or zeroed: the header here, each slot row
    // in full, each app row by fillAppObs(), and below any row an
    // earlier build filled beyond this one's.
    const std::uint32_t prev_slot_rows =
        std::min<std::uint32_t>(_obs.numSlots, kMaxSlotObs);
    const std::uint32_t prev_app_rows = _obs.numApps;
    std::memset(&_obs, 0, offsetof(SchedObservation, slots));

    Fabric &fabric = ops.fabric();
    _obs.now = ops.now();
    _obs.stateVersion = ops.stateVersion();
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
    for (std::size_t i = 0; i < app_rows; ++i)
        fillAppObs(_obs.apps[i], ops, *apps[i]);
    if (app_rows < prev_app_rows) {
        std::memset(&_obs.apps[app_rows], 0,
                    (prev_app_rows - app_rows) * sizeof(AppObs));
    }

    return _obs;
}

} // namespace nimblock
