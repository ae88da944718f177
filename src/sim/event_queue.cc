#include "sim/event_queue.hh"

#include <cstdio>
#include <string>

#include "sim/logging.hh"

namespace nimblock {

namespace simtime {

std::string
toString(SimTime t)
{
    if (t == kTimeNone)
        return "none";
    char buf[64];
    if (t >= sec(1)) {
        std::snprintf(buf, sizeof(buf), "%.3fs", toSec(t));
    } else if (t >= ms(1)) {
        std::snprintf(buf, sizeof(buf), "%.3fms", toMs(t));
    } else if (t >= us(1)) {
        std::snprintf(buf, sizeof(buf), "%.3fus",
                      static_cast<double>(t) / 1e3);
    } else {
        std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(t));
    }
    return buf;
}

} // namespace simtime

namespace {

/** Ascending (when, seq) order of timer-lane entries. */
struct ItemEarlier
{
    template <typename Item>
    bool
    operator()(const Item &a, const Item &b) const
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seq < b.seq;
    }
};

} // namespace

void
EventQueue::growSlotArrays()
{
    _labelHash.push_back(0);
    _name.push_back(nullptr);
    _gen.push_back(0);
    _live.push_back(0);
    if (((_slotCount - 1) >> kSlotChunkShift) >= _chunks.size())
        _chunks.emplace_back(new Callback[kSlotChunkSize]);
}

void
EventQueue::schedulePastPanic(SimTime when, const char *name)
{
    panic("event '%s' scheduled at %s which is before now (%s)",
          name, simtime::toString(when).c_str(),
          simtime::toString(_now).c_str());
}

void
EventQueue::labelPanic(const char *name)
{
    panic("event label '%s' changed between schedule and fire/cancel: "
          "labels must be string literals or interned strings whose "
          "storage outlives the event",
          name ? name : "(null)");
}

std::uint64_t
EventQueue::labelHash(const char *s)
{
    // FNV-1a over the label bytes: cheap, and any in-place mutation or
    // recycled buffer shows up as a mismatch at fire/cancel time.
    std::uint64_t h = 1469598103934665603ull;
    if (s) {
        while (*s) {
            h ^= static_cast<unsigned char>(*s++);
            h *= 1099511628211ull;
        }
    }
    return h;
}

bool
EventQueue::cancel(EventId id)
{
    if (!isLive(id))
        return false;
    std::uint32_t slot = slotOf(id);
    verifyLabel(_name[slot], _labelHash[slot]);
    --_liveCount;
    // The heap entry goes stale and is skipped lazily by (gen, live);
    // the slot can be recycled at once.
    freeEntry(slot);
    return true;
}

TimerId
EventQueue::addTimer(const char *name, Callback cb)
{
    _timers.emplace_back(new TimerSlot{std::move(cb), name});
    // Grown geometrically: reallocating per timer fragments the heap.
    if (_lane.capacity() < _timers.size())
        _lane.reserve(std::max<std::size_t>(8, 2 * _timers.size()));
    return static_cast<TimerId>(_timers.size() - 1);
}

// The sifts are inlined and take the moving entry by value: reloading an
// entry just stored field by field stalls on store forwarding.

inline void
EventQueue::laneSiftUp(std::uint32_t pos, LaneEntry e)
{
    for (std::uint32_t parent; pos > 0; pos = parent) {
        parent = (pos - 1) / 2;
        if (!ItemEarlier{}(e, _lane[parent]))
            break;
        lanePut(pos, _lane[parent]);
    }
    lanePut(pos, e);
}

inline void
EventQueue::laneSiftDown(std::uint32_t pos, LaneEntry e)
{
    const std::size_t n = _lane.size();
    for (std::uint32_t child; (child = 2 * pos + 1) < n; pos = child) {
        if (child + 1 < n && ItemEarlier{}(_lane[child + 1], _lane[child]))
            ++child;
        if (!ItemEarlier{}(_lane[child], e))
            break;
        lanePut(pos, _lane[child]);
    }
    lanePut(pos, e);
}

void
EventQueue::armTimer(TimerId timer, SimTime when)
{
    TimerSlot &ts = *_timers[timer];
    if (when < _now)
        schedulePastPanic(when, ts.name);
    if (_labelCheck)
        ts.labelHash = labelHash(ts.name);
    const LaneEntry e{when, _nextSeq++, &ts};
    if (ts.pos == kUnarmed) {
        ++_liveCount;
        _lane.emplace_back();
        laneSiftUp(static_cast<std::uint32_t>(_lane.size() - 1), e);
    } else if (when < _lane[ts.pos].when) {
        laneSiftUp(ts.pos, e); // The fresh seq orders after equal times.
    } else {
        laneSiftDown(ts.pos, e);
    }
    cacheLaneRoot();
}

bool
EventQueue::disarmTimer(TimerId timer)
{
    TimerSlot &ts = *_timers[timer];
    if (ts.pos == kUnarmed)
        return false;
    verifyLabel(ts.name, ts.labelHash);
    --_liveCount;
    laneRemove(ts.pos);
    return true;
}

SimTime
EventQueue::quietUntil(TimerId timer, SimTime from)
{
    if (_horizon < from)
        return _horizon; // A bare step(), or a horizon already reached.
    // The other timers first: the root, or the root's smaller child when
    // the root is @p timer itself.
    const TimerSlot *own = _timers[timer].get();
    SimTime other = kTimeMax;
    if (!_lane.empty() && _lane[0].timer != own)
        other = _lane[0].when;
    else if (_lane.size() > 1)
        other = std::min(_lane[1].when,
                         _lane.size() > 2 ? _lane[2].when : kTimeMax);
    SimTime end = std::min(_horizon, other - 1);
    if (end < from)
        return end;
    const SimTime ready = readyNextTime();
    if (ready == kTimeNone)
        return other == kTimeMax ? kTimeNone : end;
    return std::min(end, ready - 1);
}

void
EventQueue::settleTimer(TimerId timer, SimTime now, std::uint64_t events,
                        SimTime next)
{
    _now = now;
    _fired += events;
    armTimer(timer, next);
}

bool
EventQueue::fireTimer()
{
    if (_lane.empty())
        return false;
    TimerSlot &ts = *_lane[0].timer;
    verifyLabel(ts.name, ts.labelHash);
    _now = _laneWhen;
    ++_fired;
    --_liveCount;
    // Unlinked before the callback runs, which may re-arm it at once.
    laneRemove(0);
    ts.cb();
    return true;
}

void
EventQueue::laneRemove(std::uint32_t pos)
{
    _lane[pos].timer->pos = kUnarmed;
    const LaneEntry last = _lane.back();
    _lane.pop_back();
    if (pos < _lane.size()) {
        if (pos > 0 && ItemEarlier{}(last, _lane[(pos - 1) / 2]))
            laneSiftUp(pos, last);
        else
            laneSiftDown(pos, last);
    }
    cacheLaneRoot();
}

void
EventQueue::skipDead()
{
    while (!_heap.empty() && !isLive(_heap[0].id))
        heapPop();
}

bool
EventQueue::step()
{
    // A lane root ahead of the heap top, dead or not, fires at once.
    if (!_heap.empty() && !laneFirst(_heap[0]))
        skipDead();
    if (_heap.empty() || laneFirst(_heap[0]))
        return fireTimer();
    HeapItem item = _heap[0];
    heapPop();
    fireItem(item);
    return true;
}

std::uint64_t
EventQueue::run(SimTime horizon)
{
    const std::uint64_t before = _fired;
    const SimTime outer = _horizon;
    _horizon = horizon;
    // Fused fire loop: one dead-entry sweep, bounds check and pop per
    // fired event (step() after a separate skipDead() would redo all
    // three).
    for (;;) {
        skipDead();
        if (_heap.empty() || laneFirst(_heap[0])) {
            if (_lane.empty() || _laneWhen > horizon)
                break;
            fireTimer();
            continue;
        }
        if (_heap[0].when > horizon)
            break;
        HeapItem item = _heap[0];
        heapPop();
        fireItem(item);
    }
    _horizon = outer;
    return _fired - before;
}

SimTime
EventQueue::readyNextTime()
{
    skipDead();
    return _heap.empty() ? kTimeNone : _heap[0].when;
}

SimTime
EventQueue::nextEventTime()
{
    SimTime next = readyNextTime();
    if (!_lane.empty() && (next == kTimeNone || _laneWhen < next))
        next = _laneWhen;
    return next;
}

void
EventQueue::reserve(std::size_t events)
{
    _heap.reserve(events);
    _free.reserve(events);
    _labelHash.reserve(events);
    _name.reserve(events);
    _gen.reserve(events);
    _live.reserve(events);
    std::size_t chunks = (events + kSlotChunkSize - 1) >> kSlotChunkShift;
    _chunks.reserve(chunks);
    while (_chunks.size() < chunks)
        _chunks.emplace_back(new Callback[kSlotChunkSize]);
}

PeriodicEvent::PeriodicEvent(EventQueue &eq, SimTime period, const char *name,
                             SmallFunction<void()> cb)
    : _eq(eq), _period(period), _cb(std::move(cb))
{
    if (period <= 0)
        panic("periodic event '%s' needs a positive period", name);
    // The callable is built exactly once; every periodic re-arm after
    // this is pure index work against the queue's timer table.
    _timer = eq.addTimer(name, [this] {
        if (!_running)
            return;
        _nextDue = _eq.now() + _period;
        _cb();
        if (_running)
            _eq.armTimer(_timer, _nextDue);
    });
}

void
PeriodicEvent::start()
{
    if (_running)
        return;
    _running = true;
    _nextDue = _eq.now() + _period;
    _eq.armTimer(_timer, _nextDue);
}

void
PeriodicEvent::startAligned()
{
    if (_running)
        return;
    if (_nextDue == kTimeNone) {
        start();
        return;
    }
    _running = true;
    // Roll the remembered grid point forward to the first occurrence at
    // or after now. A firing exactly at now is allowed and fires after
    // every event already pending at now (this arming gets a fresh,
    // larger sequence number). That matches a never-stopped timer only
    // under the assumption that all co-timed pending events were
    // scheduled BEFORE the free-running timer would have armed (one
    // period earlier) — true for the hypervisor's use, where co-timed
    // work at a restart instant is workload arrivals scheduled at setup.
    // An event scheduled inside that last period with this exact
    // timestamp would order differently; if a caller can produce one, it
    // must accept tick-after-event ordering at the restart instant.
    SimTime now = _eq.now();
    if (_nextDue < now) {
        SimTime behind = now - _nextDue;
        _nextDue += (behind + _period - 1) / _period * _period;
    }
    _eq.armTimer(_timer, _nextDue);
}

void
PeriodicEvent::setAnchor()
{
    if (!_running && _nextDue == kTimeNone)
        _nextDue = _eq.now() + _period;
}

void
PeriodicEvent::stop()
{
    if (!_running)
        return;
    _running = false;
    _eq.disarmTimer(_timer);
}

std::uint64_t
PeriodicEvent::settle(SimTime tail, std::uint64_t events)
{
    if (!_running)
        return 0;
    // Occurrence k (from 0) lands at _nextDue + k * _period; its
    // follow-up must fall inside the quiet span.
    const SimTime first = _nextDue + tail;
    const SimTime quiet = _eq.quietUntil(_timer, first);
    if (quiet < first)
        return 0;
    const SimTime n = (quiet - first) / _period + 1;
    _nextDue += n * _period;
    _eq.settleTimer(_timer, _nextDue - _period + tail,
                    static_cast<std::uint64_t>(n) * events, _nextDue);
    return static_cast<std::uint64_t>(n);
}

} // namespace nimblock
