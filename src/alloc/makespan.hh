/**
 * @file
 * Pipelined makespan estimation — the ILP substitute.
 *
 * The paper leverages DML's Gurobi ILP to estimate application makespan
 * across slot counts and batch sizes, inserting partial-reconfiguration
 * nodes between compute nodes (§4.2). We replace the proprietary solver
 * with a deterministic greedy list-scheduling simulation over the same
 * model: k slots, one reconfiguration in flight at a time, per-item
 * latencies from the HLS estimates, and optional cross-batch pipelining.
 * Saturation analysis only needs the *knee* of the makespan-vs-slots
 * curve, which the greedy estimate locates reliably.
 */

#ifndef NIMBLOCK_ALLOC_MAKESPAN_HH
#define NIMBLOCK_ALLOC_MAKESPAN_HH

#include <cstdint>
#include <vector>

#include "sim/time.hh"
#include "taskgraph/task_graph.hh"

namespace nimblock {

/** Inputs to makespan estimation. */
struct MakespanParams
{
    /** Batch size (independent inputs); must be >= 1. */
    int batch = 1;

    /** Number of slots available; must be >= 1. */
    std::size_t slots = 1;

    /** Whether tasks may pipeline across batch items. */
    bool pipelined = true;

    /** Uniform per-slot reconfiguration latency (SD + CAP warm path). */
    SimTime reconfigLatency = simtime::ms(80);

    /** PS bandwidth for per-item input/output transfers. */
    double psBandwidthBytesPerSec = 1e9;
};

/**
 * Greedy list-scheduling simulator with reusable scratch.
 *
 * Mirrors the hypervisor's execution engine without external
 * contention: tasks are configured greedily in topological order
 * whenever a slot and the (serialized) reconfiguration port are
 * available, and process batch items as their inputs arrive. Events
 * fire in (time, insertion) order from a binary heap of plain
 * (when, seq, task, kind) entries. The heap, the task states and the
 * per-task latencies are members that keep their capacity, so a sweep
 * over slot counts allocates only while the first estimate grows them.
 * Not thread-safe: use one estimator per thread.
 */
class MakespanEstimator
{
  public:
    /**
     * Makespan of @p graph under @p params, as defined for
     * estimateMakespan(). fatal()s on a batch or slot count below 1 or
     * an unvalidated graph.
     */
    SimTime estimate(const TaskGraph &graph, const MakespanParams &params);

  private:
    enum class Phase : std::uint8_t
    {
        Idle,
        Configuring,
        Resident,
        Done,
    };

    struct TaskState
    {
        Phase phase = Phase::Idle;
        bool executing = false;
        int itemsDone = 0;
        /** Completion time of the previous item (pipeline priming). */
        SimTime lastDone = kTimeNone;
        /** Full latency of one item, transfers included. */
        SimTime itemLatency = 0;
        /** Latency of an item issued back to back with the previous one. */
        SimTime streamLatency = 0;
    };

    enum class Kind : std::uint8_t
    {
        Configured, //!< The task's reconfiguration finished.
        ItemDone,   //!< The task's executing item finished.
    };

    struct Event
    {
        SimTime when;
        std::uint64_t seq; //!< Tie-breaker: insertion order.
        TaskId task;
        Kind kind;
    };

    void push(SimTime delay, TaskId task, Kind kind);
    bool inputsReady(TaskId t, int item) const;
    bool readyToConfigure(TaskId t) const;
    void scheduleReady();
    void tryStartItem(TaskId t);
    void onItemDone(TaskId t);

    const TaskGraph *_graph = nullptr;
    MakespanParams _p;
    std::vector<TaskState> _state;
    std::vector<Event> _heap;
    std::uint64_t _nextSeq = 0;
    SimTime _now = 0;
    std::size_t _slotsFree = 0;
    bool _capBusy = false;
    SimTime _makespan = 0;
};

/**
 * Estimate the makespan of @p graph under @p params with no external
 * contention: time from the first reconfiguration request to the last
 * batch item retiring. Reentrant: each call uses its own estimator.
 */
SimTime estimateMakespan(const TaskGraph &graph, const MakespanParams &params);

/**
 * Single-slot latency (§5.4): the latency of the application when given a
 * single slot to execute on with no resource contention or waiting times.
 * Used as the unit for deadline scaling factors.
 */
SimTime singleSlotLatency(const TaskGraph &graph, int batch,
                          SimTime reconfig_latency,
                          double ps_bandwidth_bytes_per_sec = 1e9);

} // namespace nimblock

#endif // NIMBLOCK_ALLOC_MAKESPAN_HH
