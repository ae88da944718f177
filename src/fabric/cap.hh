/**
 * @file
 * Configuration access port (CAP) model.
 *
 * Dynamic partial reconfiguration on the board flows through a single CAP:
 * only one slot can be reconfigured at a time, and reconfiguration speed is
 * constrained by the CAP's internal bandwidth and the size of the
 * reconfigurable region (§2.1). The default numbers calibrate to the
 * paper's measured ~80 ms per-slot reconfiguration.
 */

#ifndef NIMBLOCK_FABRIC_CAP_HH
#define NIMBLOCK_FABRIC_CAP_HH

#include <cstdint>

#include "core/ring_queue.hh"
#include "core/small_function.hh"

#include "fabric/bitstream.hh"
#include "metrics/counters.hh"
#include "sim/event_queue.hh"

namespace nimblock {

class FaultInjector;

/** CAP timing parameters. */
struct CapConfig
{
    /** Internal configuration bandwidth. */
    double bandwidthBytesPerSec = 100e6;

    /** Fixed per-reconfiguration overhead (decouple, setup, flush). */
    SimTime fixedOverhead = simtime::ms(2);
};

/**
 * Serialized reconfiguration port.
 *
 * Requests queue FIFO; each occupies the port for
 * fixedOverhead + bytes / bandwidth.
 */
class Cap
{
  public:
    /**
     * Completion callback. `ok == false` means the reconfiguration failed
     * visibly (resilience-layer fault injection); without an installed
     * FaultInjector the callback always receives true.
     */
    using DoneCallback = SmallFunction<void(bool)>;

    Cap(EventQueue &eq, CapConfig cfg);

    /**
     * Queue a reconfiguration of @p slot with a bitstream of @p bytes.
     *
     * @param cb Invoked when the reconfiguration completes or fails.
     * @param latency_override Occupancy to charge instead of
     *        reconfigLatency(bytes) — used for slot classes whose
     *        regions stream at a scaled rate. kTimeNone keeps the
     *        nominal computation.
     */
    void reconfigure(SlotId slot, std::uint64_t bytes, DoneCallback cb,
                     SimTime latency_override = kTimeNone);

    /** True while a reconfiguration is in progress or queued. */
    bool busy() const { return _busy || !_queue.empty(); }

    /** True only while bits are actively streaming. */
    bool active() const { return _busy; }

    /** Number of reconfigurations completed. */
    std::uint64_t completedCount() const { return _completed; }

    /** Total time the port has spent streaming bits. */
    SimTime busyTime() const { return _busyTime; }

    /** Duration of a reconfiguration of @p bytes. */
    SimTime reconfigLatency(std::uint64_t bytes) const;

    /**
     * Attach a counter registry (optional; may be null): records
     * "cap.backlog" (queued + streaming reconfigurations) and
     * "cap.completed" on every queue transition.
     */
    void setCounters(CounterRegistry *counters);

    /**
     * Attach a fault injector (optional; may be null). When installed,
     * each reconfiguration attempt may fail visibly — the port stays
     * occupied for the full reconfiguration latency, then reports
     * `ok == false`.
     */
    void setFaultInjector(FaultInjector *injector) { _injector = injector; }

    /** Number of visibly failed reconfigurations (injected faults). */
    std::uint64_t visibleFailures() const { return _visibleFailures; }

  private:
    struct Request
    {
        SlotId slot;
        std::uint64_t bytes;
        DoneCallback cb;
        SimTime latencyOverride = kTimeNone;
    };

    void startNext();

    EventQueue &_eq;
    CapConfig _cfg;
    RingQueue<Request> _queue;
    bool _busy = false;
    std::uint64_t _completed = 0;
    std::uint64_t _visibleFailures = 0;
    SimTime _busyTime = 0;
    FaultInjector *_injector = nullptr;

    CounterRegistry *_counters = nullptr;
    CounterId _ctrBacklog = kCounterNone;
    CounterId _ctrCompleted = kCounterNone;
};

} // namespace nimblock

#endif // NIMBLOCK_FABRIC_CAP_HH
