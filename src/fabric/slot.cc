#include "fabric/slot.hh"

#include "sim/logging.hh"

namespace nimblock {

const char *
toString(SlotState s)
{
    switch (s) {
      case SlotState::Free:
        return "Free";
      case SlotState::Configuring:
        return "Configuring";
      case SlotState::Occupied:
        return "Occupied";
    }
    return "?";
}

void
Slot::beginConfigure(AppInstanceId app, TaskId task, const BitstreamKey &key,
                     SimTime now)
{
    if (_state != SlotState::Free)
        panic("slot %u: beginConfigure in state %s", _id, ::nimblock::toString(_state));
    (void)now;
    _state = SlotState::Configuring;
    if (_counters) {
        ++_counters->configuring;
        _counters->free -= !_quarantined;
    }
    _app = app;
    _task = task;
    _bitstream = key;
    _executing = false;
    _preemptRequested = false;
}

void
Slot::finishConfigure(SimTime now)
{
    if (_state != SlotState::Configuring)
        panic("slot %u: finishConfigure in state %s", _id,
              ::nimblock::toString(_state));
    _state = SlotState::Occupied;
    if (_counters)
        --_counters->configuring;
    ++_reconfigCount;
    _occupiedSince = now;
}

void
Slot::beginItem(SimTime now)
{
    if (_state != SlotState::Occupied || _executing)
        panic("slot %u: beginItem in state %s executing=%d", _id,
              ::nimblock::toString(_state), _executing);
    _executing = true;
    _itemStart = now;
}

void
Slot::finishItem(SimTime now)
{
    if (_state != SlotState::Occupied || !_executing)
        panic("slot %u: finishItem while not executing", _id);
    _executing = false;
    ++_itemsExecuted;
    _executeTime += now - _itemStart;
    _itemStart = kTimeNone;
}

void
Slot::abortItem(SimTime now)
{
    if (_state != SlotState::Occupied || !_executing)
        panic("slot %u: abortItem while not executing", _id);
    _executing = false;
    _executeTime += now - _itemStart;
    _itemStart = kTimeNone;
}

void
Slot::release(SimTime now)
{
    if (_state == SlotState::Free)
        panic("slot %u: release while free", _id);
    if (_executing)
        panic("slot %u: release while executing an item", _id);
    if (_occupiedSince != kTimeNone) {
        _occupiedTotal += now - _occupiedSince;
        _occupiedSince = kTimeNone;
    }
    if (_counters) {
        _counters->configuring -= _state == SlotState::Configuring;
        _counters->free += !_quarantined;
    }
    _state = SlotState::Free;
    _app = kAppNone;
    _task = kTaskNone;
    _preemptRequested = false;
    // _bitstream intentionally retained for placement affinity.
}

void
Slot::setQuarantined(bool q)
{
    if (_counters && _state == SlotState::Free && q != _quarantined)
        _counters->free += q ? -1 : 1;
    _quarantined = q;
}

void
Slot::bindCounters(SlotCounters *counters)
{
    _counters = counters;
    if (!_counters)
        return;
    _counters->configuring += _state == SlotState::Configuring;
    _counters->free += isFree();
}

SimTime
Slot::occupiedTime(SimTime now) const
{
    SimTime total = _occupiedTotal;
    if (_occupiedSince != kTimeNone)
        total += now - _occupiedSince;
    return total;
}

std::string
Slot::toString() const
{
    return formatMessage("slot%u[%s app=%llu task=%u exec=%d pre=%d]", _id,
                         ::nimblock::toString(_state),
                         static_cast<unsigned long long>(_app), _task,
                         _executing, _preemptRequested);
}

} // namespace nimblock
