/**
 * @file
 * Gym-style scheduler observation: a flat POD snapshot of everything a
 * scheduling policy may condition on, filled once per pass.
 *
 * The paper's schedulers reach into hypervisor internals ad hoc (bespoke
 * liveApps() walks, slot scans). The observation layer makes the
 * (observation -> action) step explicit: ObservationBuilder walks
 * SchedulerOps exactly once and lands the result in fixed-capacity
 * arrays, so a learned policy — or an offline training pipeline replaying
 * a captured trace — sees the same feature rows the built-in schedulers
 * use. The snapshot is trivially copyable and every byte of it is
 * written or zeroed, so "same state" means "byte-identical snapshot"
 * (memcmp), and a binary trace of snapshots is replayable across builds
 * (see policy/trace.hh and docs/policy.md for the on-disk layout).
 *
 * Capacity limits: boards larger than kMaxSlotObs slots or live sets
 * deeper than kMaxAppObs rows mark the snapshot truncated, and the
 * learned policy acts on the observed window only.
 */

#ifndef NIMBLOCK_POLICY_OBSERVATION_HH
#define NIMBLOCK_POLICY_OBSERVATION_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "sched/scheduler.hh"

namespace nimblock {

/** Slot rows per snapshot (every default board is far below this). */
inline constexpr std::size_t kMaxSlotObs = 64;

/** Application rows per snapshot (closed grids admit at most ~20). */
inline constexpr std::size_t kMaxAppObs = 64;

/**
 * Deadline scaling factor assumed by the deadlineSlack feature: the
 * paper sweeps D_s in [1, 20] post-hoc (§5.4), so live state has no
 * single deadline; the observation exposes slack against a fixed
 * mid-sweep D_s = 4 so policies can prioritize deadline pressure.
 */
inline constexpr double kObsDeadlineScale = 4.0;

/** One slot's state as the policy sees it. */
struct SlotObs
{
    /** Occupant application instance (kAppNone when free). */
    AppInstanceId app;

    /** Occupant task (kTaskNone when free). */
    std::uint32_t task;

    /** Slot id (== row index while untruncated). */
    std::uint32_t id;

    /** SlotState as an integer (Free / Configuring / Occupied). */
    std::uint8_t state;

    /** Occupant is mid batch item. */
    std::uint8_t executing;

    /** Occupied but idle at an item boundary (preemptible point). */
    std::uint8_t waitingForNextItem;

    /** Quarantined by the resilience layer (never schedulable). */
    std::uint8_t quarantined;

    /** A preemption request is pending on this slot. */
    std::uint8_t preemptRequested;

    /** Slot-class index on heterogeneous boards (0 when uniform). */
    std::uint8_t slotClass;

    /**
     * Occupant task carries a streaming kernel model (kernel_model/).
     * 0 for free slots and scalar tasks — matching the old padding
     * byte, so model-free snapshots stay byte-identical.
     */
    std::uint8_t pipelined;

    /**
     * The in-flight item issued at the steady pipeline interval
     * (primed intra-slot overlap); 0 matching the old padding byte.
     */
    std::uint8_t pipelinePrimed;
};

static_assert(sizeof(SlotObs) == 24, "SlotObs layout is part of the "
                                     "trace file format");
static_assert(std::is_trivially_copyable_v<SlotObs>);

/** One live application's feature row. */
struct AppObs
{
    /** Instance id. */
    AppInstanceId id;

    /** Batch items not yet processed, summed over tasks. */
    std::int64_t itemsRemaining;

    /** Total batch items (numTasks x batch). */
    std::int64_t totalItems;

    /** Scheduler-visible single-slot latency estimate (ns). */
    SimTime estLatency;

    /** now - arrival (ns). */
    SimTime waitingTime;

    /**
     * arrival + kObsDeadlineScale x estLatency - now: positive while
     * ahead of the assumed deadline, negative once past it.
     */
    SimTime deadlineSlack;

    /** First admission to a candidate pool (kTimeNone before). */
    SimTime candidateSince;

    /**
     * Resource over-consumption relative to the fair share (Nimblock's
     * Algorithm 2 victim metric; 0 for schedulers that don't track it).
     */
    std::int64_t overConsumption;

    /** PREMA/Nimblock token count. */
    double token;

    /** Priority value (1 / 3 / 9). */
    std::int32_t priority;

    /** Idle tasks with items remaining (awaiting a slot). */
    std::int32_t queueDepth;

    /** Slots currently held (Configuring + Resident). */
    std::int32_t slotsUsed;

    /** Nimblock allocation target (0 for other schedulers). */
    std::int32_t slotsAllocated;

    /** Tasks whose batch is not yet complete. */
    std::int32_t tasksIncomplete;

    /** Ever entered a candidate pool. */
    std::uint8_t everCandidate;

    /** Has launched at least once (firstLaunch set). */
    std::uint8_t launched;

    /**
     * Tasks in the graph carrying a streaming kernel model, clamped to
     * 255. 0 for scalar apps — matching the old padding byte, so
     * model-free snapshots stay byte-identical.
     */
    std::uint8_t pipelinedTasks;

    std::uint8_t pad[1];
};

static_assert(sizeof(AppObs) == 96, "AppObs layout is part of the "
                                    "trace file format");
static_assert(std::is_trivially_copyable_v<AppObs>);

/** The full per-pass snapshot. */
struct SchedObservation
{
    /** Simulated time of the pass. */
    SimTime now;

    /** Hypervisor mutation counter at build time (0 = unsupported). */
    std::uint64_t stateVersion;

    /** Board slot count (may exceed kMaxSlotObs; see slotsTruncated). */
    std::uint32_t numSlots;

    /** Free (schedulable and empty) slots. */
    std::uint32_t freeSlots;

    /** Quarantined slots. */
    std::uint32_t quarantinedSlots;

    /** Slots with a reconfiguration in flight. */
    std::uint32_t configuringSlots;

    /** Filled rows in apps[]. */
    std::uint32_t numApps;

    /** Live applications (> numApps when appsTruncated). */
    std::uint32_t liveApps;

    /** CAP busy (a reconfiguration is streaming). */
    std::uint8_t capBusy;

    /** Bitstream store busy (an SD load is streaming). */
    std::uint8_t storeBusy;

    /** Board has more slots than kMaxSlotObs; slots[] is a prefix. */
    std::uint8_t slotsTruncated;

    /** Live set deeper than kMaxAppObs; apps[] is a prefix. */
    std::uint8_t appsTruncated;

    /** Joules accumulated by the energy model so far (0 when off). */
    float energyJoules;

    std::array<SlotObs, kMaxSlotObs> slots;
    std::array<AppObs, kMaxAppObs> apps;
};

static_assert(std::is_trivially_copyable_v<SchedObservation>);
static_assert(sizeof(SchedObservation) ==
                  48 + kMaxSlotObs * sizeof(SlotObs) +
                      kMaxAppObs * sizeof(AppObs),
              "SchedObservation layout is part of the trace file format");

/**
 * Single-slot estimate of an app's remaining work from its feature row:
 * estLatency x itemsRemaining / totalItems, carried out in 128-bit so
 * large batches (itemsRemaining in the millions) cannot overflow the
 * 64-bit intermediate product — the overflow collapsed PREMA's
 * shortest-remaining order into garbage ties for fine-grained batches.
 */
inline SimTime
estimatedRemaining(const AppObs &a)
{
    if (a.totalItems <= 0)
        return 0;
    return static_cast<SimTime>(static_cast<__int128>(a.estLatency) *
                                a.itemsRemaining / a.totalItems);
}

/**
 * Fills SchedObservation from SchedulerOps, once per pass.
 *
 * Owns the snapshot storage, so a steady-state rebuild writes in place
 * and allocates nothing. The app-row order is the caller's (candidate
 * pool or liveApps()), making rows directly comparable to the walks
 * they replace.
 *
 * Clean ticks are cheap: when SchedulerOps::stateVersion() is nonzero
 * and equal to the previous build's, and @p apps lists the same apps,
 * build() rewrites the header and the slot rows but refreshes only the
 * app-row fields that can move without a version bump (refreshAppObs())
 * instead of refilling every row. A pass's own configure() and
 * preempt() calls do not advance the version until the pass returns, so
 * a caller that rebuilds after acting must invalidate() first.
 */
class ObservationBuilder
{
  public:
    /**
     * Rebuild the snapshot: board-level state, every slot row, and one
     * app row per entry of @p apps (in order, truncated at kMaxAppObs).
     */
    const SchedObservation &build(SchedulerOps &ops,
                                  const std::vector<AppInstance *> &apps);

    /** Make the next build() a full rebuild. */
    void invalidate() { _builtVersion = 0; }

    /** Builds that took the clean-tick refresh (counted for tests). */
    std::uint64_t refreshes() const { return _refreshes; }

    /** The last built snapshot. */
    const SchedObservation &observation() const { return _obs; }

    /**
     * Fill one application feature row (padding zeroed) in O(1): the
     * task-state fields come from AppInstance's tallies. Static so
     * schedulers can source per-candidate features through the builder
     * without bounding their candidate count by kMaxAppObs.
     */
    static void fillAppObs(AppObs &out, SchedulerOps &ops,
                           AppInstance &app);

    /**
     * Rewrite the fields of a filled row that can change while the
     * state version stands still: the time-driven ones (waitingTime,
     * deadlineSlack) and the scheduler's own bookkeeping (token,
     * candidacy, slot allocation and the over-consumption derived from
     * it). Every other field is a function of version-tracked state.
     */
    static void refreshAppObs(AppObs &row, SchedulerOps &ops,
                              const AppInstance &app);

  private:
    /** True when @p apps lists the apps of the last build's rows. */
    bool sameApps(const std::vector<AppInstance *> &apps) const;

    SchedObservation _obs{};
    /** stateVersion() at the last build; 0 forces a full rebuild. */
    std::uint64_t _builtVersion = 0;
    std::uint64_t _refreshes = 0;
};

} // namespace nimblock

#endif // NIMBLOCK_POLICY_OBSERVATION_HH
