/**
 * @file
 * DML-style static-allocation scheduler (related work, §6.2).
 *
 * DML pipelines tasks across slots like Nimblock, but "requires the user
 * to statically designate a certain number of slots to each application"
 * and performs no dynamic reallocation, no preemption and no
 * priority handling. This comparator grants each arriving application a
 * fixed reservation — its saturation-derived goal number, clipped to the
 * slots not already reserved — which it keeps unchanged until
 * retirement. Applications that arrive when the board is fully reserved
 * wait in FIFO order for reservations to free.
 *
 * Not part of the paper's evaluated set; used by the extension benches to
 * quantify what Nimblock's *dynamic* allocation and preemption add over
 * static designation (the paper's §6.2 argument that DML "is ill-suited
 * to real-time scheduling").
 */

#ifndef NIMBLOCK_SCHED_STATIC_ALLOC_HH
#define NIMBLOCK_SCHED_STATIC_ALLOC_HH

#include <optional>

#include "alloc/saturation.hh"
#include "sched/scheduler.hh"

namespace nimblock {

/** Static per-application slot reservations with pipelining. */
class StaticAllocScheduler : public Scheduler
{
  public:
    StaticAllocScheduler() : Scheduler("static") {}

    void pass(SchedEvent reason) override;
    void onAppRetired(AppInstance &app) override;

    /**
     * Existing reservations are sticky (DML never reallocates), but new
     * grants size against the schedulable slot count, so rebuild the goal
     * cache when quarantine/probe changes it.
     */
    void onCapacityChanged() override { _goals.reset(); }

    /** Pipelining is DML's core mechanism. */
    bool bulkItemGating() const override { return false; }

    /** Reservations only change on admission/retire/capacity events,
        all of which dirty the hypervisor state. */
    bool passIsPure() const override { return true; }

    /** Reserved slots of @p app (0 = still waiting for a reservation,
        or not live). */
    std::size_t reservationOf(AppInstanceId app);

    /** Total currently reserved slots. */
    std::size_t reservedTotal() const { return _reservedTotal; }

  private:
    void ensureComponents();

    /**
     * Grant reservations to unreserved apps in arrival order. A grant is
     * stored as the app's slotsAllocated() and is at least 1, so a
     * nonzero value marks a reserved app.
     */
    void grantReservations();

    /**
     * Goal numbers for the schedulable slot count, in front of the
     * grid's pre-warmed cache when one matches this geometry exactly
     * (see core/grid_context.hh).
     */
    std::optional<GoalNumberCache> _goals;

    std::size_t _reservedTotal = 0;
};

} // namespace nimblock

#endif // NIMBLOCK_SCHED_STATIC_ALLOC_HH
