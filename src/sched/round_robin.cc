#include "sched/round_robin.hh"

#include <algorithm>

namespace nimblock {

std::size_t
RoundRobinScheduler::pickQueue()
{
    // Quarantined slots never pop their queues, so routing new work to
    // them would strand it; skip them whenever a healthy slot exists.
    const auto &slots = ops().fabric().slots();
    std::size_t best = _queues.size();
    std::size_t best_len = 0;
    for (std::size_t i = 0; i < _queues.size(); ++i) {
        std::size_t q = (_rrNext + i) % _queues.size();
        if (slots[q].quarantined())
            continue;
        if (best == _queues.size() || _queues[q].size() < best_len) {
            best = q;
            best_len = _queues[q].size();
        }
    }
    if (best == _queues.size())
        best = _rrNext % _queues.size(); // All quarantined: keep rotating.
    _rrNext = (best + 1) % _queues.size();
    return best;
}

void
RoundRobinScheduler::drainQuarantinedQueues()
{
    const auto &slots = ops().fabric().slots();
    bool any_quarantined = false;
    bool any_healthy = false;
    for (const Slot &s : slots) {
        (s.quarantined() ? any_quarantined : any_healthy) = true;
    }
    if (!any_quarantined || !any_healthy)
        return;
    for (std::size_t q = 0; q < _queues.size(); ++q) {
        if (!slots[q].quarantined() || _queues[q].empty())
            continue;
        // pickQueue() skips quarantined queues here because a healthy one
        // exists; entries keep their seq, so priority/FIFO order holds.
        for (const QueuedTask &e : _queues[q])
            _queues[pickQueue()].push_back(e);
        _queues[q].clear();
    }
}

void
RoundRobinScheduler::issueReadyTasks()
{
    for (AppInstance *app : ops().readyChangedApps()) {
        app->configurableTasksInto(_taskScratch, /*pipelined=*/false);
        for (TaskId t : _taskScratch) {
            TaskRunState &st = app->taskState(t);
            if (st.queued)
                continue;
            st.queued = true;
            std::size_t q = pickQueue();
            _queues[q].push_back(QueuedTask{app->id(), t,
                                            app->priorityValue(),
                                            _nextSeq++});
        }
    }
}

AppInstance *
RoundRobinScheduler::popBest(std::size_t q, TaskId &task)
{
    auto &queue = _queues[q];
    while (!queue.empty()) {
        auto best = queue.begin();
        for (auto it = queue.begin(); it != queue.end(); ++it) {
            if (it->priority > best->priority ||
                (it->priority == best->priority && it->seq < best->seq)) {
                best = it;
            }
        }
        QueuedTask picked = *best;
        queue.erase(best);
        if (AppInstance *app = ops().findApp(picked.app)) {
            task = picked.task;
            app->taskState(task).queued = false;
            return app;
        }
        // Owner retired; drop the stale entry.
    }
    return nullptr;
}

void
RoundRobinScheduler::pass(SchedEvent reason)
{
    (void)reason;
    if (_queues.empty()) {
        _queues.resize(ops().fabric().numSlots());
        for (auto &q : _queues)
            q.reserve(32);
    }

    drainQuarantinedQueues();
    issueReadyTasks();

    for (Slot &slot : ops().fabric().slots()) {
        if (!slot.isFree())
            continue;
        bool placed = false;
        TaskId task = kTaskNone;
        while (AppInstance *app = popBest(slot.id(), task)) {
            if (ops().configure(*app, task, slot.id())) {
                placed = true;
                break;
            }
        }
        if (placed)
            continue;
        // Port decision: the slot's own queue is empty, so relieve the
        // most backlogged queue (two or more waiters) instead of idling.
        // Without this, a single very long task (e.g. digit recognition
        // at batch 30) parks a queue for thousands of seconds while other
        // slots sit empty — a pathology the original Coyote deployment,
        // with its short request-sized tasks, never faced. Queues with a
        // single waiter keep it, preserving RR's head-of-line blocking.
        std::size_t longest = 0;
        std::size_t longest_len = 1;
        for (std::size_t q = 0; q < _queues.size(); ++q) {
            if (_queues[q].size() > longest_len) {
                longest = q;
                longest_len = _queues[q].size();
            }
        }
        while (longest_len > 1) {
            AppInstance *app = popBest(longest, task);
            if (!app || ops().configure(*app, task, slot.id()))
                break;
        }
    }
}

void
RoundRobinScheduler::onAppRetired(AppInstance &app)
{
    // Pooling recycles ids: a stale entry would alias the id's next
    // owner. Only an app with a queued task has entries to drop.
    if (!app.hasQueuedTask())
        return;
    for (auto &q : _queues) {
        q.erase(std::remove_if(q.begin(), q.end(),
                               [&](const QueuedTask &e) {
                                   return e.app == app.id();
                               }),
                q.end());
    }
}

} // namespace nimblock
