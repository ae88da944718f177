#include "hypervisor/app_instance.hh"

#include "sim/logging.hh"

namespace nimblock {

Priority
priorityFromInt(int value)
{
    switch (value) {
      case 1:
        return Priority::Low;
      case 3:
        return Priority::Medium;
      case 9:
        return Priority::High;
      default:
        fatal("invalid priority %d (must be 1, 3, or 9)", value);
    }
}

const char *
toString(TaskPhase p)
{
    switch (p) {
      case TaskPhase::Idle:
        return "Idle";
      case TaskPhase::Configuring:
        return "Configuring";
      case TaskPhase::Resident:
        return "Resident";
      case TaskPhase::Done:
        return "Done";
    }
    return "?";
}

AppInstance::AppInstance(AppInstanceId id, AppSpecPtr spec, int batch,
                         Priority priority, SimTime arrival, int event_index)
    : _id(id), _spec(std::move(spec)), _batch(batch), _priority(priority),
      _arrival(arrival), _eventIndex(event_index)
{
    if (!_spec)
        fatal("app instance needs a spec");
    if (_batch < 1)
        fatal("app instance '%s' needs batch >= 1, got %d",
              _spec->name().c_str(), _batch);
    _tasks.resize(_spec->graph().numTasks());
    recountTallies();
}

void
AppInstance::reinit(AppSpecPtr spec, int batch, Priority priority,
                    SimTime arrival, int event_index)
{
    _spec = std::move(spec);
    _batch = batch;
    _priority = priority;
    _arrival = arrival;
    _eventIndex = event_index;
    if (!_spec)
        fatal("app instance needs a spec");
    if (_batch < 1)
        fatal("app instance '%s' needs batch >= 1, got %d",
              _spec->name().c_str(), _batch);
    _tasks.assign(_spec->graph().numTasks(), TaskRunState{});
    _tasksCompleted = 0;
    _itemsDoneTotal = 0;
    recountTallies();
    _token = 0.0;
    _slotsAllocated = 0;
    _everCandidate = false;
    _candidateSince = kTimeNone;
    _cachedGoal = 0;
    _cachedGoalEpoch = 0;
    _latencyEstimate = kTimeNone;
    _bsName = kBitstreamNameNone;
    _admitSeq = 0;
    _readyMarked = false;
    _firstLaunch = kTimeNone;
    _retireTime = kTimeNone;
    _totalRunTime = 0;
    _totalReconfigTime = 0;
    _reconfigCount = 0;
    _preemptionCount = 0;
    _energyJoules = 0;
    _failed = false;
    _itemRetries = 0;
    _requeues = 0;
    _migrating = false;
    _migrateNotified = false;
    _migrations = 0;
    _migrationTime = 0;
}

void
AppInstance::taskRangePanic(TaskId t) const
{
    panic("task id %u out of range for app %s", t,
          _spec->name().c_str());
}

void
AppInstance::noteTaskCompleted()
{
    ++_tasksCompleted;
    if (_tasksCompleted > static_cast<int>(_tasks.size()))
        panic("app %s completed more tasks than it has",
              _spec->name().c_str());
}

bool
AppInstance::done() const
{
    return _tasksCompleted == static_cast<int>(_tasks.size());
}

void
AppInstance::tally(const TaskRunState &st, int sign)
{
    if (st.phase == TaskPhase::Configuring || st.phase == TaskPhase::Resident)
        _slotsHeld += sign;
    if (idlePending(st)) {
        _idlePending += sign;
        if (st.predsPending == 0)
            _bulkReady += sign;
    }
}

void
AppInstance::recountTallies()
{
    _slotsHeld = 0;
    _idlePending = 0;
    _bulkReady = 0;
    const TaskGraph &g = graph();
    for (TaskId t = 0; t < _tasks.size(); ++t) {
        int pending = 0;
        for (TaskId p : g.predecessors(t))
            pending += _tasks[p].itemsDone < _batch;
        _tasks[t].predsPending = pending;
        tally(_tasks[t], +1);
    }
}

void
AppInstance::setTaskPhase(TaskId t, TaskPhase p)
{
    TaskRunState &st = taskState(t);
    tally(st, -1);
    st.phase = p;
    tally(st, +1);
}

void
AppInstance::noteItemDone(TaskId t)
{
    TaskRunState &st = taskState(t);
    tally(st, -1);
    ++st.itemsDone;
    tally(st, +1);
    ++_itemsDoneTotal;
    if (st.itemsDone != _batch)
        return;
    // The batch just finished: one fewer pending predecessor for each
    // successor.
    for (TaskId s : graph().successors(t)) {
        TaskRunState &succ = _tasks[s];
        tally(succ, -1);
        --succ.predsPending;
        tally(succ, +1);
    }
}

bool
AppInstance::inputsReady(TaskId t, int item) const
{
    if (item >= _batch)
        return false;
    for (TaskId p : graph().predecessors(t)) {
        if (_tasks[p].itemsDone <= item)
            return false;
    }
    return true;
}

bool
AppInstance::taskConfigurable(TaskId t, bool pipelined) const
{
    const TaskRunState &st = _tasks[t];
    if (!idlePending(st))
        return false;
    return pipelined ? inputsReady(t, st.itemsDone) : st.predsPending == 0;
}

std::vector<TaskId>
AppInstance::configurableTasks(bool pipelined) const
{
    std::vector<TaskId> out;
    configurableTasksInto(out, pipelined);
    return out;
}

void
AppInstance::configurableTasksInto(std::vector<TaskId> &out,
                                   bool pipelined) const
{
    out.clear();
    // A quiescing app has nothing configurable: offering tasks here would
    // make schedulers burn their one placement per pass on a configure()
    // that rejects migrating apps, starving every younger candidate.
    // Configurable tasks are idle with items remaining, and under bulk
    // gating also bulk-ready: a zero tally means an empty list.
    if (_migrating || (pipelined ? _idlePending : _bulkReady) == 0)
        return;
    for (TaskId t : graph().topoOrder()) {
        if (taskConfigurable(t, pipelined))
            out.push_back(t);
    }
}

TaskId
AppInstance::firstConfigurableTask(bool pipelined) const
{
    if (_migrating || (pipelined ? _idlePending : _bulkReady) == 0)
        return kTaskNone;
    for (TaskId t : graph().topoOrder()) {
        if (taskConfigurable(t, pipelined))
            return t;
    }
    return kTaskNone;
}

std::vector<TaskId>
AppInstance::prefetchableTasks() const
{
    std::vector<TaskId> out;
    prefetchableTasksInto(out);
    return out;
}

void
AppInstance::prefetchableTasksInto(std::vector<TaskId> &out) const
{
    out.clear();
    if (_idlePending == 0)
        return;
    for (TaskId t : graph().topoOrder()) {
        if (idlePending(_tasks[t]))
            out.push_back(t);
    }
}

TaskId
AppInstance::firstPrefetchableTask() const
{
    if (_idlePending == 0)
        return kTaskNone;
    for (TaskId t : graph().topoOrder()) {
        if (idlePending(_tasks[t]))
            return t;
    }
    return kTaskNone;
}

bool
AppInstance::hasQueuedTask() const
{
    for (const auto &st : _tasks) {
        if (st.queued)
            return true;
    }
    return false;
}

std::vector<TaskId>
AppInstance::residentTasks() const
{
    std::vector<TaskId> out;
    residentTasksInto(out);
    return out;
}

void
AppInstance::residentTasksInto(std::vector<TaskId> &out) const
{
    out.clear();
    for (TaskId t : graph().topoOrder()) {
        if (_tasks[t].phase == TaskPhase::Resident)
            out.push_back(t);
    }
}

void
AppInstance::resetProgress()
{
    for (TaskRunState &st : _tasks) {
        if (st.phase == TaskPhase::Resident)
            panic("app %s requeued while still resident",
                  _spec->name().c_str());
        st.itemsDone = 0;
        st.executing = false;
        st.itemRemaining = kTimeNone;
        if (st.phase != TaskPhase::Configuring) {
            st.phase = TaskPhase::Idle;
            st.slot = kSlotNone;
        }
    }
    _tasksCompleted = 0;
    _itemsDoneTotal = 0;
    recountTallies();
}

void
AppInstance::noteLaunch(SimTime now)
{
    if (_firstLaunch == kTimeNone)
        _firstLaunch = now;
}

AppCheckpoint
AppInstance::captureCheckpoint() const
{
    AppCheckpoint ck;
    ck.spec = _spec;
    ck.batch = _batch;
    ck.priority = _priority;
    ck.arrival = _arrival;
    ck.eventIndex = _eventIndex;
    ck.itemsDone.reserve(_tasks.size());
    for (const TaskRunState &st : _tasks) {
        if (st.phase == TaskPhase::Configuring ||
            st.phase == TaskPhase::Resident)
            panic("app %s checkpointed while still on the fabric",
                  _spec->name().c_str());
        ck.itemsDone.push_back(st.itemsDone);
    }
    ck.firstLaunch = _firstLaunch;
    ck.runTime = _totalRunTime;
    ck.reconfigTime = _totalReconfigTime;
    ck.reconfigs = _reconfigCount;
    ck.preemptions = _preemptionCount;
    ck.itemRetries = _itemRetries;
    ck.requeues = _requeues;
    ck.migrations = _migrations;
    ck.migrationTime = _migrationTime;
    ck.energyJoules = _energyJoules;
    return ck;
}

void
AppInstance::restoreFromCheckpoint(const AppCheckpoint &ck)
{
    if (ck.itemsDone.size() != _tasks.size())
        panic("checkpoint of %s carries %zu task states for %zu tasks",
              _spec->name().c_str(), ck.itemsDone.size(), _tasks.size());
    for (std::size_t t = 0; t < _tasks.size(); ++t) {
        TaskRunState &st = _tasks[t];
        st.itemsDone = ck.itemsDone[t];
        _itemsDoneTotal += st.itemsDone;
        if (st.itemsDone >= _batch) {
            st.phase = TaskPhase::Done;
            noteTaskCompleted();
        }
    }
    _firstLaunch = ck.firstLaunch;
    _totalRunTime = ck.runTime;
    _totalReconfigTime = ck.reconfigTime;
    _reconfigCount = ck.reconfigs;
    _preemptionCount = ck.preemptions;
    _itemRetries = ck.itemRetries;
    _requeues = ck.requeues;
    _migrations = ck.migrations;
    _migrationTime = ck.migrationTime;
    _energyJoules = ck.energyJoules;
    recountTallies();
}

std::string
AppInstance::toString() const
{
    return formatMessage("%s#%llu[batch=%d prio=%d done=%d/%zu tok=%.2f "
                         "alloc=%zu used=%zu]",
                         _spec->name().c_str(),
                         static_cast<unsigned long long>(_id), _batch,
                         priorityValue(), _tasksCompleted, _tasks.size(),
                         _token, _slotsAllocated, slotsUsed());
}

} // namespace nimblock
