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

/** Ascending (when, seq) order for sorting and sorted batch inserts. */
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
    _when.push_back(0);
    _seq.push_back(0);
    _labelHash.push_back(0);
    _name.push_back(nullptr);
    _next.push_back(kNilSlot);
    _gen.push_back(0);
    _state.push_back(0);
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
    if (_impl == EventQueueImpl::Heap) {
        // Heap entries are skipped lazily by (gen, state); the slot can
        // be recycled immediately.
        freeEntry(slot);
    } else {
        // The slot is linked into a bucket list, the live batch, or the
        // overflow heap; it keeps owning its storage (kQueued) until the
        // drain unlinks it. Cancelling an entry of the batch currently
        // being drained is therefore safe: the drain sees the cleared
        // kLive bit and reclaims the slot instead of firing it.
        _state[slot] &= ~kLive;
    }
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
    while (!_heap.empty() && !isLive(_heap[0].id)) {
        HeapItem item = _heap[0];
        heapPop();
        std::uint32_t slot = slotOf(item.id);
        // Wheel-mode overflow entries keep owning their slot after
        // cancellation; reclaim here. Heap-mode entries were reclaimed
        // at cancel time and are merely stale.
        if (_gen[slot] == genOf(item.id) && (_state[slot] & kQueued)) {
            freeEntry(slot);
            --_entries;
        }
    }
}

bool
EventQueue::heapStep()
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
EventQueue::heapRun(SimTime horizon)
{
    // Fused fire loop: one dead-entry sweep, bounds check and pop per
    // fired event (step() after a separate skipDead() would redo all
    // three).
    std::uint64_t fired = 0;
    for (;; ++fired) {
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
    return fired;
}

void
EventQueue::place(std::uint32_t slot, SimTime when, std::uint64_t seq)
{
    std::uint64_t tick = tickOf(when);
    if (tick <= _curTick) {
        // Same granule as the current batch — or behind a cursor that
        // ran ahead across empty space (legal whenever when >= now):
        // either way it fires before everything still in the wheel, so
        // it joins the live batch via sorted insert.
        batchInsert(slot, when, seq);
        return;
    }
    std::uint64_t diff = tick ^ _curTick;
    unsigned level =
        (63u - static_cast<unsigned>(__builtin_clzll(diff))) / kLevelBits;
    if (level >= kLevels) {
        // Beyond the wheel span: park in the sorted overflow heap;
        // promoteOverflow() pulls it in as the cursor approaches.
        _wheelFloor = std::min(_wheelFloor, tick);
        _heap.push_back(HeapItem{when, seq, makeId(_gen[slot], slot)});
        std::push_heap(_heap.begin(), _heap.end(), HeapItemLater{});
        return;
    }
    const std::uint64_t window =
        tick & ~((std::uint64_t{1} << (level * kLevelBits)) - 1);
    _wheelFloor = std::min(_wheelFloor, window);
    bucketPush(level, bucketIndex(tick, level), slot);
}

void
EventQueue::batchInsert(std::uint32_t slot, SimTime when, std::uint64_t seq)
{
    HeapItem item{when, seq, makeId(_gen[slot], slot)};
    // Co-granule schedules made during a drain usually belong after
    // everything already batched (fresh, larger seq at the same or a
    // later timestamp): append without the search-and-shift.
    if (_batch.empty() || ItemEarlier{}(_batch.back(), item)) {
        _batch.push_back(item);
        return;
    }
    auto pos = std::lower_bound(
        _batch.begin() + static_cast<std::ptrdiff_t>(_batchPos),
        _batch.end(), item, ItemEarlier{});
    _batch.insert(pos, item);
}

void
EventQueue::drainBucket(std::uint32_t idx)
{
    std::uint32_t slot = _bucket[0][idx];
    _bucket[0][idx] = kNilSlot;
    _occ[0] &= ~(std::uint64_t{1} << idx);
    while (slot != kNilSlot) {
        std::uint32_t next = _next[slot];
        if (_state[slot] & kLive) {
            _batch.push_back(
                HeapItem{_when[slot], _seq[slot], makeId(_gen[slot], slot)});
        } else {
            freeEntry(slot);
            --_entries;
        }
        slot = next;
    }
    // Bucket lists are push-front (insertion order lost) and may mix
    // directly-scheduled with cascaded entries: one sort restores the
    // deterministic (when, seq) fire order. Singleton buckets — the
    // common case at simulation event densities — skip it.
    if (_batch.size() > 1)
        std::sort(_batch.begin(), _batch.end(), ItemEarlier{});
}

void
EventQueue::cascade(unsigned level, std::uint32_t idx)
{
    std::uint32_t slot = _bucket[level][idx];
    _bucket[level][idx] = kNilSlot;
    _occ[level] &= ~(std::uint64_t{1} << idx);
    while (slot != kNilSlot) {
        std::uint32_t next = _next[slot];
        if (_state[slot] & kLive) {
            // Re-place against the advanced cursor: lands at a strictly
            // lower level, or straight in the batch when co-granular.
            place(slot, _when[slot], _seq[slot]);
        } else {
            freeEntry(slot);
            --_entries;
        }
        slot = next;
    }
}

void
EventQueue::promoteOverflow()
{
    // Pull overflow entries whose tick now falls inside the wheel span.
    // Ordering stays safe: whatever remains in the overflow differs from
    // the cursor above the top level, i.e. lies beyond the whole window
    // every wheel entry lives in — the wheel always drains first.
    for (;;) {
        skipDead();
        if (_heap.empty())
            return;
        std::uint64_t tick = tickOf(_heap[0].when);
        if ((tick ^ _curTick) >> (kLevels * kLevelBits))
            return;
        HeapItem item = _heap[0];
        heapPop();
        place(slotOf(item.id), item.when, item.seq);
    }
}

void
EventQueue::purgeDead()
{
    for (unsigned level = 0; level < kLevels; ++level) {
        while (_occ[level]) {
            std::uint32_t idx =
                static_cast<std::uint32_t>(__builtin_ctzll(_occ[level]));
            _occ[level] &= _occ[level] - 1;
            std::uint32_t slot = _bucket[level][idx];
            _bucket[level][idx] = kNilSlot;
            while (slot != kNilSlot) {
                std::uint32_t next = _next[slot];
                freeEntry(slot);
                slot = next;
            }
        }
    }
    for (const HeapItem &item : _heap) {
        std::uint32_t slot = slotOf(item.id);
        if (_gen[slot] == genOf(item.id) && (_state[slot] & kQueued))
            freeEntry(slot);
    }
    _heap.clear();
    _entries = 0;
    _wheelFloor = ~std::uint64_t{0};
}

bool
EventQueue::advanceWheel()
{
    if (_liveCount == _lane.size()) {
        // Nothing live in the wheel; reclaim whatever cancelled garbage
        // is still linked so heapSize() drops back to the lane's size.
        purgeDead();
        return false;
    }
    for (;;) {
        if (!_heap.empty()) {
            promoteOverflow();
            if (!_batch.empty())
                return true; // Promotion landed co-granular entries.
        }

        // Find the lowest occupied level strictly ahead of the cursor.
        // The current level-0 bucket itself is never occupied:
        // co-granular events go straight to the batch.
        unsigned level = 0;
        std::uint32_t idx = 0;
        bool found = false;
        for (; level < kLevels; ++level) {
            std::uint32_t cur = bucketIndex(_curTick, level);
            std::uint64_t ahead = cur + 1 >= kBuckets
                                      ? 0
                                      : _occ[level] &
                                            (~std::uint64_t{0} << (cur + 1));
            if (ahead) {
                idx = static_cast<std::uint32_t>(__builtin_ctzll(ahead));
                found = true;
                break;
            }
        }
        // Exact floor: the found bucket's first tick (group `level` := idx,
        // groups below := 0, groups above kept), else the overflow's.
        if (found) {
            std::uint64_t keepMask =
                ~((std::uint64_t{1} << ((level + 1) * kLevelBits)) - 1);
            _wheelFloor = (_curTick & keepMask) |
                          (std::uint64_t{idx} << (level * kLevelBits));
        } else {
            skipDead();
            if (_heap.empty()) {
                purgeDead();
                return false;
            }
            _wheelFloor = tickOf(_heap[0].when);
        }
        if (laneLeads(_wheelFloor))
            return false;
        _curTick = _wheelFloor;
        if (!found)
            continue; // Let promotion pull the overflow's window in.
        if (level == 0)
            drainBucket(idx);
        else
            cascade(level, idx);
        if (!_batch.empty())
            return true;
        // All-dead bucket; rescan with the advanced cursor.
    }
}

bool
EventQueue::wheelStepSlow()
{
    // The inline step() fast path exhausted the open batch: open the
    // next one unless the lane root leads. A fresh batch holds only live
    // entries, so step() then fires without coming back here.
    _batch.clear();
    _batchPos = 0;
    if (laneLeads(_wheelFloor) || !advanceWheel())
        return fireTimer();
    return step();
}

std::uint64_t
EventQueue::wheelRun(SimTime horizon)
{
    std::uint64_t fired = 0;
    for (;;) {
        if (_batchPos < _batch.size() && !laneFirst(_batch[_batchPos])) {
            HeapItem item = _batch[_batchPos];
            std::uint32_t slot = slotOf(item.id);
            if (!(_state[slot] & kLive)) {
                ++_batchPos;
                --_entries;
                freeEntry(slot);
                continue;
            }
            if (item.when > horizon)
                break;
            ++_batchPos;
            --_entries;
            fireItem(item);
            ++fired;
            continue;
        }
        if (_batchPos >= _batch.size()) {
            _batch.clear();
            _batchPos = 0;
            if (!laneLeads(_wheelFloor) && advanceWheel())
                continue;
        }
        if (_lane.empty() || _laneWhen > horizon)
            break;
        fireTimer();
        ++fired;
    }
    return fired;
}

SimTime
EventQueue::wheelNextEventTime()
{
    // Reclaim dead entries at the batch head (mirrors the heap's
    // skipDead() side effect), then peek.
    while (_batchPos < _batch.size()) {
        std::uint32_t slot = slotOf(_batch[_batchPos].id);
        if (_state[slot] & kLive)
            return _batch[_batchPos].when;
        freeEntry(slot);
        --_entries;
        ++_batchPos;
    }

    // Read-only scan of the wheel — the cursor must NOT move here: a
    // later schedule with now <= when < next-occupied-bucket must still
    // land ahead of the cursor. Within a level, ahead-buckets appear in
    // time order, and every level-k event precedes every level-(k+1)
    // event (level-k entries share the cursor's level-(k+1) group;
    // level-(k+1) entries lie beyond it), so the first bucket holding a
    // live entry yields the minimum.
    for (unsigned level = 0; level < kLevels; ++level) {
        std::uint32_t cur = bucketIndex(_curTick, level);
        std::uint64_t ahead = cur + 1 >= kBuckets
                                  ? 0
                                  : _occ[level] &
                                        (~std::uint64_t{0} << (cur + 1));
        while (ahead) {
            std::uint32_t idx =
                static_cast<std::uint32_t>(__builtin_ctzll(ahead));
            ahead &= ahead - 1;
            SimTime best = kTimeNone;
            for (std::uint32_t slot = _bucket[level][idx];
                 slot != kNilSlot; slot = _next[slot]) {
                if ((_state[slot] & kLive) &&
                    (best == kTimeNone || _when[slot] < best))
                    best = _when[slot];
            }
            if (best != kTimeNone)
                return best;
        }
    }
    skipDead();
    return _heap.empty() ? kTimeNone : _heap[0].when;
}

std::uint64_t
EventQueue::run(SimTime horizon)
{
    return _impl == EventQueueImpl::Heap ? heapRun(horizon)
                                         : wheelRun(horizon);
}

SimTime
EventQueue::nextEventTime()
{
    SimTime next;
    if (_impl == EventQueueImpl::Heap) {
        skipDead();
        next = _heap.empty() ? kTimeNone : _heap[0].when;
    } else {
        next = wheelNextEventTime();
    }
    if (!_lane.empty() && (next == kTimeNone || _laneWhen < next))
        next = _laneWhen;
    return next;
}

void
EventQueue::reserve(std::size_t events)
{
    // An Auto queue resolves its ready structure from the caller's
    // capacity hint, but only while nothing has been scheduled yet: the
    // switch just flips the dispatch flag, it does not migrate entries.
    if (_auto && _now == 0 && _liveCount == 0 && _heap.empty() &&
        events >= kAutoWheelThreshold)
        _impl = EventQueueImpl::Wheel;

    _heap.reserve(events);
    _free.reserve(events);
    _batch.reserve(events);
    _when.reserve(events);
    _seq.reserve(events);
    _labelHash.reserve(events);
    _name.reserve(events);
    _next.reserve(events);
    _gen.reserve(events);
    _state.reserve(events);
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

} // namespace nimblock
