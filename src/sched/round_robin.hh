/**
 * @file
 * Queue-based round-robin scheduler adapted from Coyote (§5.1, [21]).
 *
 * Ready tasks from all pending applications are issued to per-slot
 * priority queues in round-robin fashion; a task goes to the queue of the
 * slot with the fewest waiting tasks (round-robin tie-breaking). Within a
 * queue, tasks are ordered by priority level (FIFO within a level). Each
 * slot independently pops its own queue when it becomes free. No
 * preemption, no pipelining, no priority-threshold candidacy.
 */

#ifndef NIMBLOCK_SCHED_ROUND_ROBIN_HH
#define NIMBLOCK_SCHED_ROUND_ROBIN_HH

#include <cstdint>
#include <vector>

#include "sched/scheduler.hh"

namespace nimblock {

/** Coyote-style per-slot priority-queue round-robin scheduler. */
class RoundRobinScheduler : public Scheduler
{
  public:
    RoundRobinScheduler() : Scheduler("rr") {}

    void pass(SchedEvent reason) override;
    void onAppRetired(AppInstance &app) override;

    /** Queue rotation only advances when new tasks are issued, so a
        pass over unchanged state touches nothing. */
    bool passIsPure() const override { return true; }

  private:
    struct QueuedTask
    {
        AppInstanceId app;
        TaskId task;
        int priority;
        std::uint64_t seq; //!< Issue order for FIFO within a priority.
    };

    /**
     * Issue newly ready tasks to slot queues: the unqueued configurable
     * tasks of the hypervisor's readiness delta. Every other live app's
     * configurable tasks are already queued.
     */
    void issueReadyTasks();

    /** Queue index with the fewest waiting tasks (round-robin ties). */
    std::size_t pickQueue();

    /**
     * Reroute entries parked in quarantined slots' queues to healthy
     * queues. A quarantined slot never becomes free, so its queue would
     * otherwise stall forever. No-op while every slot is healthy (or
     * every slot is quarantined — probes must heal one first).
     */
    void drainQuarantinedQueues();

    /**
     * Pop the highest-priority (then oldest) entry of queue @p q into
     * @p task and clear its queued flag. Entries whose owner retired are
     * dropped on the way.
     *
     * @return The entry's app, or nullptr once the queue is empty.
     */
    AppInstance *popBest(std::size_t q, TaskId &task);

    std::vector<std::vector<QueuedTask>> _queues; //!< One per slot.
    std::size_t _rrNext = 0;
    std::uint64_t _nextSeq = 0;
};

} // namespace nimblock

#endif // NIMBLOCK_SCHED_ROUND_ROBIN_HH
