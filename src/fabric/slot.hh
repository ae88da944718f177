/**
 * @file
 * Reconfigurable slot state.
 *
 * A slot is one independently reconfigurable tile of the overlay. The slot
 * object tracks configuration state, the resident occupant (application
 * instance + task), whether the occupant is currently executing a batch
 * item, and utilization statistics. All transitions are driven by the
 * hypervisor.
 */

#ifndef NIMBLOCK_FABRIC_SLOT_HH
#define NIMBLOCK_FABRIC_SLOT_HH

#include <cstdint>
#include <optional>
#include <string>

#include "fabric/bitstream.hh"
#include "sim/time.hh"

namespace nimblock {

/** Unique id of an arrived application instance. */
using AppInstanceId = std::uint64_t;

/** Sentinel application-instance id. */
inline constexpr AppInstanceId kAppNone = UINT64_MAX;

/** Lifecycle of a slot. */
enum class SlotState
{
    Free,        //!< No occupant; may retain the last configured bitstream.
    Configuring, //!< Bitstream load and/or CAP reconfiguration in flight.
    Occupied,    //!< Task logic resident (executing or awaiting input).
};

/** Render a SlotState. */
const char *toString(SlotState s);

/**
 * Fabric-wide slot tallies that the slots keep current on every
 * transition, so schedulers read them in O(1) instead of scanning the
 * slot array.
 */
struct SlotCounters
{
    std::int32_t configuring = 0; //!< Slots in SlotState::Configuring.
    std::int32_t free = 0;        //!< Slots for which isFree() holds.
};

/** One reconfigurable slot. */
class Slot
{
  public:
    explicit Slot(SlotId id) : _id(id) {}

    SlotId id() const { return _id; }
    SlotState state() const { return _state; }

    /** Slot class (index into the fabric's resolved class table). */
    std::uint32_t classId() const { return _classId; }

    /** Assign the slot class (fabric construction only). */
    void setClassId(std::uint32_t class_id) { _classId = class_id; }

    /**
     * Schedulable-and-empty predicate: quarantined slots report not-free
     * even when unoccupied, which is how the quarantine shrinks the slot
     * set every scheduler sees without per-scheduler changes.
     */
    bool
    isFree() const
    {
        return _state == SlotState::Free && !_quarantined;
    }

    /** True while the slot is quarantined by the resilience layer. */
    bool quarantined() const { return _quarantined; }

    /** Enter/leave quarantine (hypervisor only; slot must be Free). */
    void setQuarantined(bool q);

    /** Occupant application instance; kAppNone when free. */
    AppInstanceId app() const { return _app; }

    /** Occupant task; kTaskNone when free. */
    TaskId task() const { return _task; }

    /** True while the occupant is running a batch item. */
    bool executing() const { return _executing; }

    /**
     * True when the slot is occupied but idle — the occupant finished a
     * batch item and is awaiting its next input. This is the
     * "waiting_for_next_batch" predicate of Algorithm 2.
     */
    bool
    waitingForNextItem() const
    {
        return _state == SlotState::Occupied && !_executing;
    }

    /** True when a preemption has been requested but not yet honored. */
    bool preemptRequested() const { return _preemptRequested; }

    /** Bitstream currently (or last) configured; nullopt if never. */
    const std::optional<BitstreamKey> &
    configuredBitstream() const
    {
        return _bitstream;
    }

    /** @name Transitions (hypervisor only) */
    /// @{

    /** Free -> Configuring: reserve for an occupant. */
    void beginConfigure(AppInstanceId app, TaskId task,
                        const BitstreamKey &key, SimTime now);

    /** Configuring -> Occupied: reconfiguration finished. */
    void finishConfigure(SimTime now);

    /**
     * Occupied -> Occupied(executing): begin a batch item.
     */
    void beginItem(SimTime now);

    /** Executing -> waiting: batch item finished. */
    void finishItem(SimTime now);

    /**
     * Executing -> waiting without counting a completed item: the item
     * was checkpointed mid-flight (fine-grained preemption extension).
     */
    void abortItem(SimTime now);

    /** Ask the occupant to vacate at the next item boundary. */
    void requestPreempt() { _preemptRequested = true; }

    /** Withdraw a pending preemption request. */
    void clearPreempt() { _preemptRequested = false; }

    /**
     * Occupied/Configuring -> Free. The configured bitstream is remembered
     * for placement affinity (a resumed task whose bitstream still sits in
     * the slot needs no reconfiguration).
     */
    void release(SimTime now);

    /// @}

    /** @name Statistics */
    /// @{
    std::uint64_t reconfigCount() const { return _reconfigCount; }
    std::uint64_t itemsExecuted() const { return _itemsExecuted; }
    SimTime executeTime() const { return _executeTime; }
    SimTime occupiedTime(SimTime now) const;
    /// @}

    /** Debug rendering. */
    std::string toString() const;

    /**
     * Register the fabric-wide tallies this slot keeps current across
     * its transitions; the slot's present state is counted in at once.
     */
    void bindCounters(SlotCounters *counters);

  private:
    SlotId _id;
    std::uint32_t _classId = 0;
    SlotState _state = SlotState::Free;
    AppInstanceId _app = kAppNone;
    TaskId _task = kTaskNone;
    bool _executing = false;
    bool _preemptRequested = false;
    bool _quarantined = false;
    SlotCounters *_counters = nullptr;
    std::optional<BitstreamKey> _bitstream;

    std::uint64_t _reconfigCount = 0;
    std::uint64_t _itemsExecuted = 0;
    SimTime _executeTime = 0;
    SimTime _itemStart = kTimeNone;
    SimTime _occupiedSince = kTimeNone;
    SimTime _occupiedTotal = 0;
};

} // namespace nimblock

#endif // NIMBLOCK_FABRIC_SLOT_HH
