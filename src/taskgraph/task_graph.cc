#include "taskgraph/task_graph.hh"

#include <algorithm>
#include <set>

#include "sim/logging.hh"

namespace nimblock {

TaskId
TaskGraph::addTask(TaskSpec spec)
{
    if (_validated)
        panic("cannot add tasks to a validated graph");
    if (spec.kernel) {
        // The kernel model owns the cold latency; a hand-set scalar
        // that disagrees would silently desynchronize estimates from
        // execution.
        SimTime derived = spec.kernel->itemLatency();
        if (spec.itemLatency == 0) {
            spec.itemLatency = derived;
        } else if (spec.itemLatency != derived) {
            fatal("task '%s': itemLatency %lld ns disagrees with the "
                  "kernel model's derived latency %lld ns; leave it 0 "
                  "to derive",
                  spec.name.c_str(),
                  static_cast<long long>(spec.itemLatency),
                  static_cast<long long>(derived));
        }
    }
    if (spec.itemLatency <= 0)
        fatal("task '%s' needs a positive item latency", spec.name.c_str());
    if (spec.estimatedItemLatency != kTimeNone &&
        spec.estimatedItemLatency <= 0) {
        fatal("task '%s': estimated item latency must be positive "
              "(0 is ambiguous with the unset kTimeNone sentinel)",
              spec.name.c_str());
    }
    auto id = static_cast<TaskId>(_tasks.size());
    _numKernelTasks += spec.kernel != nullptr;
    _tasks.push_back(std::move(spec));
    _succs.emplace_back();
    _preds.emplace_back();
    return id;
}

void
TaskGraph::addEdge(TaskId from, TaskId to)
{
    if (_validated)
        panic("cannot add edges to a validated graph");
    checkId(from);
    checkId(to);
    if (from == to)
        fatal("self-loop on task '%s'", _tasks[from].name.c_str());
    if (std::find(_succs[from].begin(), _succs[from].end(), to) !=
        _succs[from].end()) {
        fatal("duplicate edge %s -> %s", _tasks[from].name.c_str(),
              _tasks[to].name.c_str());
    }
    _succs[from].push_back(to);
    _preds[to].push_back(from);
    ++_numEdges;
}

void
TaskGraph::validate()
{
    if (_tasks.empty())
        fatal("task graph has no tasks");

    std::set<std::string> names;
    for (const auto &t : _tasks) {
        if (!names.insert(t.name).second)
            fatal("duplicate task name '%s'", t.name.c_str());
    }

    // Kahn's algorithm; failure to order every node means a cycle.
    std::vector<std::size_t> indeg(_tasks.size(), 0);
    for (TaskId id = 0; id < _tasks.size(); ++id)
        indeg[id] = _preds[id].size();

    std::vector<TaskId> ready;
    for (TaskId id = 0; id < _tasks.size(); ++id) {
        if (indeg[id] == 0)
            ready.push_back(id);
    }

    _topo.clear();
    while (!ready.empty()) {
        // Pop the smallest id for a canonical order.
        auto it = std::min_element(ready.begin(), ready.end());
        TaskId id = *it;
        ready.erase(it);
        _topo.push_back(id);
        for (TaskId s : _succs[id]) {
            if (--indeg[s] == 0)
                ready.push_back(s);
        }
    }
    if (_topo.size() != _tasks.size())
        fatal("task graph contains a cycle");

    _topoRank.assign(_tasks.size(), 0);
    for (std::size_t i = 0; i < _topo.size(); ++i)
        _topoRank[_topo[i]] = i;

    _validated = true;
}

const TaskSpec &
TaskGraph::task(TaskId id) const
{
    checkId(id);
    return _tasks[id];
}

const std::vector<TaskId> &
TaskGraph::successors(TaskId id) const
{
    checkId(id);
    return _succs[id];
}

const std::vector<TaskId> &
TaskGraph::predecessors(TaskId id) const
{
    checkId(id);
    return _preds[id];
}

const std::vector<TaskId> &
TaskGraph::topoOrder() const
{
    if (!_validated)
        panic("topoOrder() requires a validated graph");
    return _topo;
}

std::size_t
TaskGraph::topoRank(TaskId id) const
{
    if (!_validated)
        panic("topoRank() requires a validated graph");
    checkId(id);
    return _topoRank[id];
}

std::vector<TaskId>
TaskGraph::sources() const
{
    std::vector<TaskId> out;
    for (TaskId id = 0; id < _tasks.size(); ++id) {
        if (_preds[id].empty())
            out.push_back(id);
    }
    return out;
}

std::vector<TaskId>
TaskGraph::sinks() const
{
    std::vector<TaskId> out;
    for (TaskId id = 0; id < _tasks.size(); ++id) {
        if (_succs[id].empty())
            out.push_back(id);
    }
    return out;
}

TaskId
TaskGraph::findTask(const std::string &name) const
{
    for (TaskId id = 0; id < _tasks.size(); ++id) {
        if (_tasks[id].name == name)
            return id;
    }
    return kTaskNone;
}

SimTime
TaskGraph::totalEstimatedItemLatency() const
{
    SimTime total = 0;
    for (const auto &t : _tasks)
        total += t.schedulerItemLatency();
    return total;
}

void
TaskGraph::checkId(TaskId id) const
{
    if (id >= _tasks.size())
        panic("task id %u out of range (%zu tasks)", id, _tasks.size());
}

} // namespace nimblock
