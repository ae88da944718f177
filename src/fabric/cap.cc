#include "fabric/cap.hh"

#include "resilience/fault_injector.hh"
#include "sim/logging.hh"

namespace nimblock {

Cap::Cap(EventQueue &eq, CapConfig cfg)
    : _eq(eq), _cfg(cfg)
{
    if (cfg.bandwidthBytesPerSec <= 0)
        fatal("CAP bandwidth must be positive");
    _queue.reserve(16);
}

SimTime
Cap::reconfigLatency(std::uint64_t bytes) const
{
    double seconds = static_cast<double>(bytes) / _cfg.bandwidthBytesPerSec;
    return _cfg.fixedOverhead + simtime::secF(seconds);
}

void
Cap::setCounters(CounterRegistry *counters)
{
    _counters = counters;
    if (!counters)
        return;
    _ctrBacklog = counters->define("cap.backlog");
    _ctrCompleted = counters->define("cap.completed");
}

void
Cap::reconfigure(SlotId slot, std::uint64_t bytes, DoneCallback cb,
                 SimTime latency_override)
{
    _queue.push_back(Request{slot, bytes, std::move(cb), latency_override});
    if (_counters) {
        _counters->sample(_ctrBacklog, _eq.now(),
                          static_cast<double>(_queue.size()));
    }
    if (!_busy)
        startNext();
}

void
Cap::startNext()
{
    if (_queue.empty())
        return;
    _busy = true;
    const Request &next = _queue.front();
    SimTime latency = next.latencyOverride != kTimeNone
                          ? next.latencyOverride
                          : reconfigLatency(next.bytes);
    _eq.scheduleAfter(
        latency, "cap_reconfig",
        [this, latency] {
            _busyTime += latency;
            // Injected faults are visible to the requester, which owns
            // the retry/quarantine policy.
            bool ok = true;
            if (_injector &&
                _injector->reconfigAttemptFails(_queue.front().slot)) {
                ok = false;
                ++_visibleFailures;
            }

            Request req = std::move(_queue.front());
            _queue.pop_front();
            _busy = false;
            if (ok)
                ++_completed;
            if (_counters) {
                _counters->sample(_ctrBacklog, _eq.now(),
                                  static_cast<double>(_queue.size()));
                _counters->sample(_ctrCompleted, _eq.now(),
                                  static_cast<double>(_completed));
            }
            req.cb(ok);
            if (!_busy)
                startNext();
        });
}

} // namespace nimblock
