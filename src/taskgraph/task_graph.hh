/**
 * @file
 * Application task graph: a DAG of slot-sized tasks.
 *
 * Nodes are tasks, edges are data dependencies (§2.2 of the paper). The
 * graph is immutable once validated; schedulers and the batch-dependency
 * tracker hold const references.
 */

#ifndef NIMBLOCK_TASKGRAPH_TASK_GRAPH_HH
#define NIMBLOCK_TASKGRAPH_TASK_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "taskgraph/task.hh"

namespace nimblock {

/** A directed acyclic graph of tasks with dependency edges. */
class TaskGraph
{
  public:
    TaskGraph() = default;

    /**
     * Add a task node.
     * @return The new task's id.
     */
    TaskId addTask(TaskSpec spec);

    /**
     * Add a dependency edge @p from -> @p to.
     *
     * Duplicate edges and self-loops are rejected with fatal().
     */
    void addEdge(TaskId from, TaskId to);

    /**
     * Check structural invariants (acyclicity, unique names).
     *
     * Must be called once after construction; fatal()s on violation.
     * Computes and caches the topological order.
     */
    void validate();

    /** True once validate() has succeeded. */
    bool validated() const { return _validated; }

    std::size_t numTasks() const { return _tasks.size(); }
    std::size_t numEdges() const { return _numEdges; }

    /** Tasks that carry a streaming kernel model (TaskSpec::kernel). */
    std::size_t numKernelTasks() const { return _numKernelTasks; }

    /** Task descriptor by id. */
    const TaskSpec &task(TaskId id) const;

    /** Direct successors of @p id. */
    const std::vector<TaskId> &successors(TaskId id) const;

    /** Direct predecessors of @p id. */
    const std::vector<TaskId> &predecessors(TaskId id) const;

    /** All task ids in one valid topological order (requires validate()). */
    const std::vector<TaskId> &topoOrder() const;

    /**
     * Rank of a task in the cached topological order (requires validate()).
     * Used by Nimblock's preemption victim selection ("latest in
     * topological execution order").
     */
    std::size_t topoRank(TaskId id) const;

    /** Tasks with no predecessors. */
    std::vector<TaskId> sources() const;

    /** Tasks with no successors. */
    std::vector<TaskId> sinks() const;

    /** Look up a task id by name; kTaskNone when absent. */
    TaskId findTask(const std::string &name) const;

    /** Sum of scheduler-visible per-item latencies over all tasks. */
    SimTime totalEstimatedItemLatency() const;

  private:
    void checkId(TaskId id) const;

    std::vector<TaskSpec> _tasks;
    std::vector<std::vector<TaskId>> _succs;
    std::vector<std::vector<TaskId>> _preds;
    std::size_t _numEdges = 0;
    std::size_t _numKernelTasks = 0;
    bool _validated = false;
    std::vector<TaskId> _topo;
    std::vector<std::size_t> _topoRank;
};

} // namespace nimblock

#endif // NIMBLOCK_TASKGRAPH_TASK_GRAPH_HH
