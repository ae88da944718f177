#include "sched/fcfs.hh"

#include <algorithm>

namespace nimblock {

void
FcfsScheduler::enqueueNewlyReady()
{
    // The delta is in arrival order, so same-pass readiness ties keep
    // arrival order, matching "selected in the order that they arrived".
    for (AppInstance *app : ops().readyChangedApps()) {
        app->configurableTasksInto(_taskScratch, /*pipelined=*/false);
        for (TaskId t : _taskScratch) {
            TaskRunState &st = app->taskState(t);
            if (st.queued)
                continue;
            st.queued = true;
            _fifo.push_back(ReadyTask{app->id(), t});
        }
    }
}

void
FcfsScheduler::popFront()
{
    ++_head;
    if (_head == _fifo.size()) {
        _fifo.clear();
        _head = 0;
    } else if (_head > 64 && _head * 2 > _fifo.size()) {
        _fifo.erase(_fifo.begin(),
                    _fifo.begin() + static_cast<std::ptrdiff_t>(_head));
        _head = 0;
    }
}

void
FcfsScheduler::pass(SchedEvent reason)
{
    (void)reason;
    enqueueNewlyReady();

    while (_head < _fifo.size() && ops().fabric().freeSlotCount() > 0) {
        ReadyTask head = _fifo[_head];
        AppInstance *app = ops().findApp(head.app);
        if (!app) {
            popFront(); // Owner retired; drop the stale entry.
            continue;
        }
        SlotId slot = pickFreeSlot(*app, head.task);
        if (slot == kSlotNone)
            break;
        popFront();
        app->taskState(head.task).queued = false;
        ops().configure(*app, head.task, slot);
    }
}

void
FcfsScheduler::onAppRetired(AppInstance &app)
{
    // Pooling recycles ids: a stale entry would alias the id's next
    // owner. Only an app with a queued task has entries to drop.
    if (!app.hasQueuedTask())
        return;
    _fifo.erase(std::remove_if(_fifo.begin() +
                                   static_cast<std::ptrdiff_t>(_head),
                               _fifo.end(),
                               [&](const ReadyTask &e) {
                                   return e.app == app.id();
                               }),
                _fifo.end());
}

} // namespace nimblock
