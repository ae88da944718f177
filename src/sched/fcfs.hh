/**
 * @file
 * First-come, first-served task scheduler (§5.1).
 *
 * "All tasks that are ready to execute from all applications are selected
 * in the order that they arrived": tasks enter a global FIFO when they
 * become ready (dependencies satisfied for the whole batch) and free
 * slots always take the FIFO head. Under congestion this interleaves
 * applications breadth-first — every pending application's early tasks
 * run before anyone's late tasks — which is why FCFS degrades in the
 * paper's stress and real-time tests. No priority awareness, no
 * pipelining across batches, no preemption.
 */

#ifndef NIMBLOCK_SCHED_FCFS_HH
#define NIMBLOCK_SCHED_FCFS_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sched/scheduler.hh"

namespace nimblock {

/** Naive FCFS sharing scheduler with a global ready-task FIFO. */
class FcfsScheduler : public Scheduler
{
  public:
    FcfsScheduler() : Scheduler("fcfs") { _fifo.reserve(256); }

    void pass(SchedEvent reason) override;
    void onAppRetired(AppInstance &app) override;

    /** One FIFO entry per ready task, plus the consumed prefix
        popFront() keeps until it dominates. Wide fan-out graphs (the
        library apps' parallel heads/leaves) can hold several ready
        tasks per app at once, so size by 4n with a generous floor to
        keep the steady-state window allocation-free. */
    void
    reserveApps(std::size_t n) override
    {
        _fifo.reserve(std::max<std::size_t>(4 * n, 256));
    }

    /** No tokens, no clock: re-running a pass on unchanged state finds
        no readiness change to enqueue and re-derives the same
        placements. */
    bool passIsPure() const override { return true; }

  private:
    struct ReadyTask
    {
        AppInstanceId app;
        TaskId task;
    };

    /**
     * Append tasks that became ready since the last pass: the unqueued
     * configurable tasks of the hypervisor's readiness delta. Every
     * other live app's configurable tasks are already in the FIFO.
     */
    void enqueueNewlyReady();

    /** Drop the FIFO head (keeps storage; compacts opportunistically). */
    void popFront();

    /**
     * FIFO as a vector plus a head cursor: a deque would free and
     * reallocate its blocks as tasks stream through, putting the
     * allocator on every scheduling pass. The consumed prefix is erased
     * (no allocation) once it dominates the vector.
     */
    std::vector<ReadyTask> _fifo;
    std::size_t _head = 0;
};

} // namespace nimblock

#endif // NIMBLOCK_SCHED_FCFS_HH
