#include "alloc/makespan.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace nimblock {

namespace {

/** Max-heap comparator yielding a min-heap on (when, seq). */
constexpr auto later = [](const auto &a, const auto &b) {
    if (a.when != b.when)
        return a.when > b.when;
    return a.seq > b.seq;
};

SimTime
ioLatency(const TaskSpec &spec, double ps_bandwidth)
{
    if (ps_bandwidth <= 0)
        return 0;
    double bytes = static_cast<double>(spec.inputBytes) +
                   static_cast<double>(spec.outputBytes);
    return simtime::secF(bytes / ps_bandwidth);
}

} // namespace

SimTime
MakespanEstimator::estimate(const TaskGraph &graph,
                            const MakespanParams &params)
{
    if (params.batch < 1)
        fatal("makespan estimation needs batch >= 1");
    if (params.slots < 1)
        fatal("makespan estimation needs at least one slot");
    if (!graph.validated())
        fatal("makespan estimation needs a validated graph");

    _graph = &graph;
    _p = params;
    const std::size_t n = graph.numTasks();
    _state.assign(n, TaskState{});
    for (std::size_t t = 0; t < n; ++t) {
        const TaskSpec &spec = graph.task(static_cast<TaskId>(t));
        SimTime io = ioLatency(spec, params.psBandwidthBytesPerSec);
        TaskState &st = _state[t];
        st.itemLatency = spec.schedulerItemLatency() + io;
        // Mirror the hypervisor's intra-slot overlap: back-to-back items
        // of a streaming kernel issue at the steady interval
        // (estimate-scaled) with transfers overlapped, not the full
        // fill + drain latency.
        st.streamLatency =
            spec.kernel ? std::max(spec.schedulerItemIssueInterval(), io)
                        : st.itemLatency;
    }
    // Each task has at most one event in flight (its reconfiguration or
    // its executing item), so the heap never outgrows the task count.
    _heap.clear();
    _heap.reserve(n);
    _nextSeq = 0;
    _now = 0;
    _slotsFree = params.slots;
    _capBusy = false;
    _makespan = 0;

    scheduleReady();
    while (!_heap.empty()) {
        std::pop_heap(_heap.begin(), _heap.end(), later);
        Event e = _heap.back();
        _heap.pop_back();
        _now = e.when;
        if (e.kind == Kind::Configured) {
            _capBusy = false;
            _state[e.task].phase = Phase::Resident;
            tryStartItem(e.task);
            scheduleReady();
        } else {
            onItemDone(e.task);
        }
    }
    // Every task must have completed; otherwise the greedy policy
    // deadlocked, which would be a bug in the readiness rules.
    for (std::size_t t = 0; t < n; ++t) {
        if (_state[t].phase != Phase::Done)
            panic("makespan estimator stalled on task %zu", t);
    }
    return _makespan;
}

void
MakespanEstimator::push(SimTime delay, TaskId task, Kind kind)
{
    _heap.push_back(Event{_now + delay, _nextSeq++, task, kind});
    std::push_heap(_heap.begin(), _heap.end(), later);
}

bool
MakespanEstimator::inputsReady(TaskId t, int item) const
{
    for (TaskId p : _graph->predecessors(t)) {
        if (_state[p].itemsDone <= item)
            return false;
    }
    return true;
}

bool
MakespanEstimator::readyToConfigure(TaskId t) const
{
    const TaskState &st = _state[t];
    if (st.phase != Phase::Idle)
        return false;
    // Pipelined tasks wait for their next item's inputs; bulk tasks wait
    // until every predecessor has finished the whole batch.
    return inputsReady(t, _p.pipelined ? st.itemsDone : _p.batch - 1);
}

/** Configure as many ready tasks as slots and the CAP permit. */
void
MakespanEstimator::scheduleReady()
{
    while (_slotsFree > 0 && !_capBusy) {
        TaskId pick = kTaskNone;
        for (TaskId t : _graph->topoOrder()) {
            if (readyToConfigure(t)) {
                pick = t;
                break;
            }
        }
        if (pick == kTaskNone)
            return;
        _state[pick].phase = Phase::Configuring;
        --_slotsFree;
        _capBusy = true;
        push(_p.reconfigLatency, pick, Kind::Configured);
    }
}

void
MakespanEstimator::tryStartItem(TaskId t)
{
    TaskState &st = _state[t];
    if (st.phase != Phase::Resident || st.executing)
        return;
    if (st.itemsDone >= _p.batch || !inputsReady(t, st.itemsDone))
        return;
    st.executing = true;
    bool back_to_back = st.itemsDone > 0 && st.lastDone == _now;
    push(back_to_back ? st.streamLatency : st.itemLatency, t, Kind::ItemDone);
}

void
MakespanEstimator::onItemDone(TaskId t)
{
    TaskState &st = _state[t];
    st.executing = false;
    ++st.itemsDone;
    st.lastDone = _now;
    _makespan = std::max(_makespan, _now);

    if (st.itemsDone >= _p.batch) {
        st.phase = Phase::Done;
        ++_slotsFree;
        // A freed slot may admit the next task.
        scheduleReady();
    } else {
        tryStartItem(t);
    }

    // Newly produced output may unblock resident successors or make
    // idle successors configurable.
    for (TaskId s : _graph->successors(t))
        tryStartItem(s);
    scheduleReady();
}

SimTime
estimateMakespan(const TaskGraph &graph, const MakespanParams &params)
{
    MakespanEstimator estimator;
    return estimator.estimate(graph, params);
}

SimTime
singleSlotLatency(const TaskGraph &graph, int batch, SimTime reconfig_latency,
                  double ps_bandwidth_bytes_per_sec)
{
    MakespanParams p;
    p.batch = batch;
    p.slots = 1;
    p.pipelined = false;
    p.reconfigLatency = reconfig_latency;
    p.psBandwidthBytesPerSec = ps_bandwidth_bytes_per_sec;
    return estimateMakespan(graph, p);
}

} // namespace nimblock
