/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue is the heart of the Nimblock substrate: every modeled
 * activity (application arrival, SD-card load, CAP reconfiguration, batch
 * item completion, scheduler tick) is an Event scheduled at an absolute
 * SimTime. Events at equal timestamps fire in insertion order, which makes
 * whole-system runs bit-reproducible for a given seed and configuration.
 *
 * Ordinary events wait in a binary min-heap on (when, seq), driven by
 * std::push_heap/std::pop_heap. Cancellation is lazy: a cancelled event's
 * slot is reclaimed at once, and its stale heap entry is dropped when it
 * reaches the top.
 *
 * The schedule/fire path is allocation-free beyond the amortized growth of
 * the internal storage: callbacks live in a 48-byte small-buffer callable
 * (heap fallback only for oversized setup-time captures), per-event
 * metadata (generation, liveness, label) lives in parallel
 * structure-of-arrays vectors addressed by slot index, handles carry a
 * generation counter so stale cancellations are rejected without any
 * hash-map probe, and debug labels are stored as non-owning pointers to
 * string literals (see setLabelCheck() for the debug verifier). Callback
 * storage is kept in fixed-size chunks with stable addresses so growth
 * never relocates pending callbacks.
 *
 * Recurring work uses the Timer facility: addTimer() constructs the
 * callback once, and armed timers wait beside the event heap in a timer
 * lane, an indexed binary min-heap of inline (when, seq, timer) entries,
 * so arming costs no slot, callback or heap entry. step(), run() and
 * nextEventTime() take the earlier of the lane root (one compare against
 * its cached key) and the event heap's top; arming draws seq from the
 * schedule() counter, so the fire order is exactly that of one queue.
 * The hypervisor's tick and pass, the soak's arrival pump and the
 * cluster rebalancer are timers.
 *
 * A holder that can prove a run of a timer's occurrences changes nothing
 * settles it in one call instead of dispatching it: quietUntil() bounds
 * the span no other occurrence enters, and settleTimer() moves the clock
 * and firedCount() across it and re-arms the timer behind it. The
 * hypervisor settles runs of clean ticks under pure schedulers this way.
 * Settling happens only inside run(horizon) and step(horizon), never
 * past their horizon; a bare step() fires exactly one event.
 */

#ifndef NIMBLOCK_SIM_EVENT_QUEUE_HH
#define NIMBLOCK_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/small_function.hh"
#include "sim/time.hh"

namespace nimblock {

/**
 * Opaque handle used to cancel a scheduled event.
 *
 * Encodes a slot index and a generation; a handle stays invalid forever
 * once its event fires or is cancelled, even if the slot is recycled.
 */
using EventId = std::uint64_t;

/** Sentinel handle denoting "no event". */
inline constexpr EventId kEventNone = 0;

/** Handle to a persistent timer created with EventQueue::addTimer(). */
using TimerId = std::uint32_t;

/** Sentinel denoting "no timer". */
inline constexpr TimerId kTimerNone = 0xffffffffu;

/**
 * Ready-structure names that callers may still pass to the EventQueue
 * constructor or SystemConfig::eventQueue. Every value selects the same
 * binary heap. perfbench/ still spells Wheel and Auto, so the type stays
 * until that harness stops naming them.
 */
enum class EventQueueImpl
{
    Wheel, //!< Same as Heap.
    Heap,  //!< The binary heap.
    Auto,  //!< Same as Heap.
};

/**
 * A time-ordered queue of callbacks driving the simulation.
 *
 * The queue owns the simulated clock: now() only advances inside run() /
 * step() as events fire. Scheduling into the past is a programming error
 * and panics.
 */
class EventQueue
{
  public:
    using Callback = SmallFunction<void()>;

    /** Every EventQueueImpl value builds the same heap queue. */
    explicit EventQueue(EventQueueImpl = EventQueueImpl::Heap) {}

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    SimTime now() const { return _now; }

    /**
     * Schedule @p cb to fire at absolute time @p when.
     *
     * The callable is constructed directly into the event's slot: no
     * intermediate Callback object, no relocation.
     *
     * @param when Absolute timestamp; must be >= now().
     * @param name Debug label recorded with the event. Stored as a
     *             non-owning pointer: pass a string literal or interned
     *             string whose storage outlives the event. Enable
     *             setLabelCheck() in debug runs to verify the contract.
     * @param cb   Callback invoked when the event fires.
     * @return Handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(SimTime when, const char *name, F &&cb)
    {
        if (when < _now)
            schedulePastPanic(when, name);
        std::uint32_t slot = allocSlot();
        chunkCb(slot) = std::forward<F>(cb);
        return commitSchedule(slot, when, name);
    }

    /** Schedule @p cb to fire @p delay after now(). */
    template <typename F>
    EventId
    scheduleAfter(SimTime delay, const char *name, F &&cb)
    {
        return schedule(_now + delay, name, std::forward<F>(cb));
    }

    /**
     * Cancel a previously scheduled event.
     *
     * Safe from inside a callback, also on an event co-timed with the
     * one firing; an event that cancels itself while it fires gets false.
     *
     * @retval true  The event was pending and is now cancelled.
     * @retval false The event already fired or was already cancelled.
     */
    bool cancel(EventId id);

    /** @name Persistent timers
     *
     * A timer owns one callback constructed at addTimer() time; arming
     * and disarming never construct or destroy the callable. At most one
     * occurrence is pending per timer: re-arming an armed timer moves
     * the pending occurrence. Armed timers wait in the timer lane (see
     * the file comment) and count in pendingCount() and firedCount().
     */
    /// @{

    /**
     * Register a persistent timer. Timers live as long as the queue;
     * there is no removeTimer (create them at setup time). Reserves the
     * timer's lane entry, so arming never allocates.
     *
     * @param name Debug label (non-owning; pass a string literal).
     * @param cb   Invoked on every armed occurrence.
     */
    TimerId addTimer(const char *name, Callback cb);

    /**
     * Arm @p timer to fire at absolute time @p when (>= now()),
     * replacing any pending occurrence. The occurrence takes the next
     * sequence number as schedule() would, so it fires after everything
     * already pending at @p when. O(log timers); disarmTimer() cancels.
     */
    void armTimer(TimerId timer, SimTime when);

    /** Arm @p timer to fire @p delay after now(). */
    void
    armTimerAfter(TimerId timer, SimTime delay)
    {
        armTimer(timer, _now + delay);
    }

    /** Cancel the pending occurrence, if any. */
    bool disarmTimer(TimerId timer);

    /** True while an occurrence is pending. */
    bool
    timerArmed(TimerId timer) const
    {
        return _timers[timer]->pos != kUnarmed;
    }

    /**
     * Last instant of the quiet span ahead of @p timer: one nanosecond
     * before the earliest pending occurrence other than @p timer's own,
     * capped at the horizon of the run(horizon) or step(horizon) in
     * progress. Outside them, and so under a bare step(), no instant is
     * quiet. The lane is read first, so when another timer ends the span
     * before @p from the answer comes without peeking the event heap.
     *
     * @return The span's last instant, or a time before @p from when no
     *         instant from @p from on is quiet; kTimeNone when nothing
     *         else is pending.
     */
    SimTime quietUntil(TimerId timer, SimTime from);

    /**
     * Settle occurrences of the armed @p timer, and of whatever they
     * trigger, that the caller proved change nothing, without
     * dispatching them: the clock moves to @p now, firedCount() grows by
     * @p events, and the timer re-arms at @p next. @p now must lie in
     * quietUntil()'s span, where no other entry is drawn, so the
     * re-arm's fresh sequence number orders the timer against every
     * other entry exactly as arming it at each skipped occurrence would.
     */
    void settleTimer(TimerId timer, SimTime now, std::uint64_t events,
                     SimTime next);

    /// @}

    /** Number of pending (non-cancelled) events. */
    std::size_t pendingCount() const { return _liveCount; }

    /** True when no live events remain. */
    bool empty() const { return _liveCount == 0; }

    /**
     * Fire the single earliest pending event or timer.
     *
     * A bare step() never settles (quietUntil()), so a loop of step()
     * calls dispatches once per event and firedCount() grows by one per
     * call; step(horizon) may settle.
     *
     * @retval true  An event fired.
     * @retval false The queue was empty.
     */
    bool step();

    /**
     * Fire the single earliest pending event, as step() does; the fired
     * event may then settle a run of occurrences after it (settleTimer()),
     * no further than @p horizon: the hypervisor settles each run of clean
     * ticks up to the next other pending occurrence. Work injected from
     * outside the queue must therefore be scheduled as an event, which
     * ends the quiet span; a call made between two steps lands after the
     * run.
     *
     * @retval true  An event fired.
     * @retval false The queue was empty.
     */
    bool
    step(SimTime horizon)
    {
        const SimTime outer = _horizon;
        _horizon = horizon;
        const bool fired = step();
        _horizon = outer;
        return fired;
    }

    /**
     * Run until the queue drains or @p horizon is reached.
     *
     * Events scheduled exactly at the horizon still fire, and no run is
     * settled past it (quietUntil()), so now() never passes it.
     *
     * @return Number of events fired, settled ones included.
     */
    std::uint64_t run(SimTime horizon = kTimeMax);

    /**
     * Total number of simulated events fired since construction, settled
     * occurrences included (settleTimer()), so a settled run counts as
     * the events it stands for.
     */
    std::uint64_t firedCount() const { return _fired; }

    /** Timestamp of the earliest pending event, or kTimeNone if empty. */
    SimTime nextEventTime();

    /**
     * Pre-size internal storage for @p events concurrently pending
     * events, so steady-state scheduling never grows the vectors.
     */
    void reserve(std::size_t events);

    /**
     * Entries held (live + cancelled garbage), armed timers included.
     * Exposed for tests; always >= pendingCount().
     */
    std::size_t heapSize() const { return _heap.size() + _lane.size(); }

    /**
     * Debug label verifier. When enabled, schedule() records a content
     * hash of the label and fire()/cancel() re-hash and panic on
     * mismatch — catching labels whose storage was overwritten or
     * recycled after scheduling (the label contract requires literals or
     * interned strings). Defaults on in debug builds or when compiled
     * with NIMBLOCK_EVENT_LABEL_CHECK.
     */
    void setLabelCheck(bool on) { _labelCheck = on; }

    /** Current label-check setting. */
    bool labelCheck() const { return _labelCheck; }

  private:
    /** Heap entry: the (when, seq) key plus the owning handle. */
    struct HeapItem
    {
        SimTime when;
        std::uint64_t seq; //!< Tie-breaker: insertion order.
        EventId id;
    };

    /** Max-heap comparator yielding a min-heap on (when, seq). */
    struct HeapItemLater
    {
        bool
        operator()(const HeapItem &a, const HeapItem &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    static constexpr std::uint32_t kUnarmed = 0xffffffffu;

    /** A persistent timer: the one-time-constructed callback. */
    struct TimerSlot
    {
        Callback cb;
        const char *name = nullptr;
        std::uint64_t labelHash = 0; //!< Recorded at arm (label check).
        std::uint32_t pos = kUnarmed; //!< Index in _lane while armed.
    };

    /** Timer-lane entry: an armed timer's (when, seq) key, inline. */
    struct LaneEntry
    {
        SimTime when;
        std::uint64_t seq;
        TimerSlot *timer;
    };

    static constexpr EventId
    makeId(std::uint32_t gen, std::uint32_t slot)
    {
        return (static_cast<EventId>(gen) << 32) | slot;
    }

    static constexpr std::uint32_t slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id);
    }

    static constexpr std::uint32_t genOf(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    /**
     * Callbacks live in fixed-size chunks that never move once allocated:
     * growing a flat vector would element-wise move every existing
     * callable (a non-trivial 48-byte buffer relocation each) exactly
     * when the simulation is busiest. Chunked storage makes growth a
     * single chunk allocation and keeps fired callbacks valid even if the
     * callback itself schedules new events.
     */
    static constexpr std::uint32_t kSlotChunkShift = 8;
    static constexpr std::uint32_t kSlotChunkSize = 1u << kSlotChunkShift;

    Callback &
    chunkCb(std::uint32_t i)
    {
        return _chunks[i >> kSlotChunkShift][i & (kSlotChunkSize - 1)];
    }

    bool
    isLive(EventId id) const
    {
        std::uint32_t slot = slotOf(id);
        return slot < _slotCount && _live[slot] && _gen[slot] == genOf(id);
    }

    /**
     * Hand out a slot index and stamp a fresh generation (invalidating
     * handles from previous occupants). The callback (if any) is
     * constructed by the caller; metadata by commitSchedule().
     */
    std::uint32_t
    allocSlot()
    {
        std::uint32_t slot;
        if (!_free.empty()) {
            slot = _free.back();
            _free.pop_back();
        } else {
            slot = _slotCount++;
            growSlotArrays();
        }
        ++_gen[slot];
        return slot;
    }

    /** Cold path of allocSlot(): extend the SoA vectors and chunks. */
    void growSlotArrays();

    /** Fill metadata and push the entry onto the heap. */
    EventId
    commitSchedule(std::uint32_t slot, SimTime when, const char *name)
    {
        _name[slot] = name;
        _live[slot] = 1;
        if (_labelCheck)
            _labelHash[slot] = labelHash(name);
        ++_liveCount;
        const EventId id = makeId(_gen[slot], slot);
        _heap.push_back(HeapItem{when, _nextSeq++, id});
        std::push_heap(_heap.begin(), _heap.end(), HeapItemLater{});
        return id;
    }

    /** Reclaim the storage of an entry that will never fire again. */
    void
    freeEntry(std::uint32_t slot)
    {
        chunkCb(slot) = nullptr;
        _live[slot] = 0;
        _free.push_back(slot);
    }

    /**
     * Advance the clock to @p item and run its callback in place. The
     * entry is dead for the duration of its own callback — self-cancel
     * during fire reports false — and the slot is reclaimed only after
     * the callback returns (it runs out of the slot's storage).
     */
    void
    fireItem(const HeapItem &item)
    {
        std::uint32_t slot = slotOf(item.id);
        verifyLabel(_name[slot], _labelHash[slot]);
        _now = item.when;
        ++_fired;
        --_liveCount;
        _live[slot] = 0;
        chunkCb(slot)();
        freeEntry(slot);
    }

    [[noreturn]] void schedulePastPanic(SimTime when, const char *name);
    [[noreturn]] static void labelPanic(const char *name);

    void
    verifyLabel(const char *name, std::uint64_t hash) const
    {
        if (_labelCheck && labelHash(name) != hash)
            labelPanic(name);
    }

    static std::uint64_t labelHash(const char *s);

    static bool
    defaultLabelCheck()
    {
#if defined(NIMBLOCK_EVENT_LABEL_CHECK) || !defined(NDEBUG)
        return true;
#else
        return false;
#endif
    }

    /** @name Timer lane */
    /// @{

    /** True when the lane root fires before @p item (never if empty). */
    bool
    laneFirst(const HeapItem &item) const
    {
        return _laneWhen < item.when ||
               (_laneWhen == item.when && _laneSeq < item.seq);
    }

    /** Pop the lane root and run its timer's callback; false if empty. */
    bool fireTimer();

    /** Remove the entry at @p pos, restoring the heap order. */
    void laneRemove(std::uint32_t pos);

    /** Move @p e from the hole at @p pos toward the root or leaves. */
    void laneSiftUp(std::uint32_t pos, LaneEntry e);
    void laneSiftDown(std::uint32_t pos, LaneEntry e);

    /** Store @p e at @p pos and record the position in its timer. */
    void
    lanePut(std::uint32_t pos, const LaneEntry &e)
    {
        _lane[pos] = e;
        e.timer->pos = pos;
    }

    /** Refresh the cached root key after the root may have changed. */
    void
    cacheLaneRoot()
    {
        _laneWhen = _lane.empty() ? kTimeMax : _lane[0].when;
        _laneSeq = _lane.empty() ? ~std::uint64_t{0} : _lane[0].seq;
    }

    /// @}

    /** Remove the heap minimum. */
    void
    heapPop()
    {
        std::pop_heap(_heap.begin(), _heap.end(), HeapItemLater{});
        _heap.pop_back();
    }

    /** Drop heap entries whose event has been cancelled. */
    void skipDead();

    /** Time of the heap's earliest live entry, or kTimeNone. */
    SimTime readyNextTime();

    SimTime _now = 0;
    /** Of the run(horizon) or step(horizon) in progress; kTimeNone,
        before any instant, outside them. */
    SimTime _horizon = kTimeNone;
    std::uint64_t _nextSeq = 1;
    std::uint64_t _fired = 0;
    std::size_t _liveCount = 0;
    bool _labelCheck = defaultLabelCheck();

    /** @name Per-event metadata, structure-of-arrays by slot index.
     *
     * Kept as parallel trivially-copyable vectors: liveness probes touch
     * only (_live, _gen), and growth is a plain memcpy instead of a
     * per-Slot move. The (when, seq) key lives in the heap entry.
     */
    /// @{
    std::vector<std::uint64_t> _labelHash;
    std::vector<const char *> _name;
    std::vector<std::uint32_t> _gen;
    std::vector<std::uint8_t> _live; //!< 1 while the event will fire.
    /// @}

    std::vector<std::unique_ptr<Callback[]>> _chunks;
    std::uint32_t _slotCount = 0; //!< Slots handed out across all chunks.
    std::vector<std::uint32_t> _free;

    std::vector<HeapItem> _heap; //!< Min-heap on (when, seq).

    std::vector<std::unique_ptr<TimerSlot>> _timers;
    std::vector<LaneEntry> _lane; //!< Armed timers, min-heap on (when, seq).
    SimTime _laneWhen = kTimeMax; //!< Cached root key; empty is last.
    std::uint64_t _laneSeq = ~std::uint64_t{0};
};

/**
 * Convenience helper that re-arms itself at a fixed period, modelling the
 * hypervisor's scheduling-interval timer (400 ms in the paper). Built on
 * the queue's Timer facility: the callback is constructed once, and each
 * occurrence waits in the timer lane, so a periodic re-arm is one lane
 * push with no slot or callback traffic. settle() skips a run of
 * occurrences its holder proved idle and keeps the grid.
 */
class PeriodicEvent
{
  public:
    /**
     * @param eq     Queue to schedule on.
     * @param period Interval between firings; must be positive.
     * @param name   Debug label (non-owning; pass a string literal).
     * @param cb     Invoked every period until stop() is called.
     */
    PeriodicEvent(EventQueue &eq, SimTime period, const char *name,
                  SmallFunction<void()> cb);

    /** Begin firing; first firing is one period from now. */
    void start();

    /**
     * Resume firing while preserving the phase of the previous run: the
     * next firing lands on the earliest original grid point (anchor +
     * k * period) that is >= now. Behaves like start() when the timer has
     * never run (and no anchor was set).
     *
     * The hypervisor uses this to elide idle ticks: the timer stops while
     * no application is live, and an aligned restart on the next arrival
     * reproduces the exact tick timestamps of a timer that never stopped.
     */
    void startAligned();

    /**
     * Record the phase grid as if start() were called now, without
     * arming. Lets a holder that begins idle (and therefore does not
     * start the timer) still pin the grid for a later startAligned().
     */
    void setAnchor();

    /** Stop firing; the pending occurrence is cancelled. */
    void stop();

    /**
     * Settle, without dispatching them, the armed occurrence and those
     * after it whose follow-up @p tail later (the work each occurrence
     * arms, e.g. the hypervisor's pass) still lands inside the queue's
     * quiet span. The caller vouches that each settled occurrence and
     * its follow-up change nothing; each counts @p events in
     * firedCount(). The clock ends at the last follow-up, and the timer
     * re-arms at the next grid point, which later startAligned() calls
     * keep.
     *
     * @return Occurrences settled; 0 when stopped or when the span ends
     *         before the first follow-up.
     */
    std::uint64_t settle(SimTime tail, std::uint64_t events);

    bool running() const { return _running; }

  private:
    EventQueue &_eq;
    SimTime _period;
    SmallFunction<void()> _cb;
    TimerId _timer;
    /** Next grid point; kTimeNone until started or anchored. */
    SimTime _nextDue = kTimeNone;
    bool _running = false;
};

} // namespace nimblock

#endif // NIMBLOCK_SIM_EVENT_QUEUE_HH
