#include "core/simulation.hh"

#include <algorithm>

#include "policy/learned.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"

namespace nimblock {

Simulation::Simulation(SystemConfig cfg, AppRegistry registry)
    : _cfg(std::move(cfg)), _registry(std::move(registry))
{
}

Simulation &
Simulation::setGridContext(std::shared_ptr<const GridContext> ctx)
{
    if (ctx && !ctx->frozen())
        fatal("Simulation needs a frozen GridContext");
    _gridCtx = std::move(ctx);
    return *this;
}

RunResult
Simulation::run(const EventSequence &seq)
{
    seq.validate();
    if (seq.events.empty())
        fatal("cannot run an empty event sequence");

    EventQueue eq;
    Fabric fabric(eq, _cfg.fabric);
    std::unique_ptr<Scheduler> scheduler;
    if (_cfg.scheduler == "learned" && !_cfg.policyTracePath.empty()) {
        LearnedConfig lcfg;
        lcfg.tracePath = _cfg.policyTracePath;
        scheduler = std::make_unique<LearnedScheduler>(lcfg);
    } else {
        scheduler = makeScheduler(_cfg.scheduler);
    }
    MetricsCollector collector;
    Hypervisor hyp(eq, fabric, *scheduler, collector, _cfg.hypervisor);
    if (_gridCtx)
        hyp.setGridContext(_gridCtx.get());

    // Intern every arriving application's bitstream name up front, in
    // first-arrival order — identical ids to organic admission-time
    // interning, so the admissions inside the run never fill the map.
    for (const WorkloadEvent &e : seq.events)
        fabric.internBitstreamName(e.appName);

    std::shared_ptr<Timeline> timeline;
    if (_cfg.recordTimeline) {
        timeline = std::make_shared<Timeline>();
        hyp.setTimeline(timeline.get());
    }

    std::shared_ptr<CounterRegistry> counters;
    if (_cfg.hypervisor.recordCounters) {
        counters = std::make_shared<CounterRegistry>();
        hyp.setCounters(counters.get());
    }

    // Fault injection is strictly opt-in: when disabled the hypervisor
    // keeps a null injector and every hook is a no-op, so results are
    // byte-identical to a build without the resilience subsystem.
    std::unique_ptr<FaultInjector> injector;
    if (_cfg.faults.enabled) {
        _cfg.faults.validate();
        injector =
            std::make_unique<FaultInjector>(_cfg.faults, fabric.numSlots());
        hyp.setFaultInjector(injector.get());
    }

    // Energy accounting, wired like fault injection: disabled runs keep
    // a null model and every charge site is one null-pointer branch.
    std::unique_ptr<EnergyModel> energy;
    if (_cfg.energy.enabled) {
        energy = std::make_unique<EnergyModel>(fabric);
        hyp.setEnergyModel(energy.get());
    }

    // Progress horizon: generous multiple of the total serialized work.
    // The same sweep sizes the steady-state storage: every arrival is
    // pre-scheduled (bounding concurrently pending events), one record is
    // produced per event, and each task contributes two timeline
    // transitions per batch item plus configure/release bookkeeping.
    SimTime total_work = 0;
    std::size_t expected_transitions = 0;
    for (const WorkloadEvent &e : seq.events) {
        AppSpecPtr spec = _registry.get(e.appName);
        SimTime lat = _gridCtx
                          ? _gridCtx->singleSlotLatency(spec.get(), e.batch)
                          : kTimeNone;
        if (lat == kTimeNone)
            lat = _cfg.singleSlotLatency(*spec, e.batch);
        total_work += lat;
        expected_transitions +=
            spec->numTasks() * (2 * static_cast<std::size_t>(e.batch) + 3);
    }
    eq.reserve(seq.events.size() + 64);
    collector.reserve(seq.events.size());
    if (timeline)
        timeline->reserve(expected_transitions);
    if (counters) {
        // Every timeline transition can trigger a handful of samples
        // (buffer bytes, queue depths, hit rate) and every scheduler pass
        // records one instant mark; size for that up front so the enabled
        // path stays allocation-bounded rather than growth-driven.
        counters->reserve(expected_transitions * 4 + seq.events.size() * 8 +
                              64,
                          expected_transitions + 64);
    }
    SimTime horizon =
        seq.lastArrival() +
        static_cast<SimTime>(_cfg.horizonFactor *
                             static_cast<double>(total_work)) +
        simtime::sec(60);

    // Inject every event at its arrival time. Capturing the few scalar
    // fields (not the whole WorkloadEvent with its name string) keeps the
    // closure inside the event queue's inline callback buffer.
    for (const WorkloadEvent &e : seq.events) {
        AppSpecPtr spec = _registry.get(e.appName);
        eq.schedule(e.arrival, "arrival",
                    [&hyp, spec, batch = e.batch, priority = e.priority,
                     index = e.index] {
                        hyp.submit(spec, batch, priority, index);
                    });
    }

    hyp.start();

    const std::size_t total_events = seq.events.size();
    bool stopped = false;
    while (!eq.empty()) {
        // One step may settle a run of clean ticks, never past the
        // horizon, so a stall still reaches the check below.
        if (!eq.step(horizon))
            break;
        if (!stopped && collector.count() == total_events) {
            hyp.stop();
            stopped = true;
        }
        if (eq.now() > horizon) {
            fatal("scheduler '%s' stalled on sequence '%s': %zu/%zu apps "
                  "retired at t=%s",
                  _cfg.scheduler.c_str(), seq.name.c_str(),
                  collector.count(), total_events,
                  simtime::toString(eq.now()).c_str());
        }
    }

    if (collector.count() != total_events) {
        fatal("run ended with %zu/%zu applications retired",
              collector.count(), total_events);
    }

    RunResult result;
    result.scheduler = _cfg.scheduler;
    result.sequenceName = seq.name;
    result.records = collector.records();
    result.hypervisorStats = hyp.stats();
    if (auto *nb = dynamic_cast<NimblockScheduler *>(scheduler.get()))
        result.nimblockStats = nb->nimblockStats();
    result.eventsFired = eq.firedCount();
    result.timeline = std::move(timeline);
    result.counters = std::move(counters);
    for (const AppRecord &r : result.records)
        result.makespan = std::max(result.makespan, r.retire);
    if (energy) {
        // Idle static power integrates to the end of activity, not to
        // whenever the queue drained.
        energy->finalize(result.makespan);
        result.energy = energy->report();
    }
    return result;
}

RunResult
runSequence(const std::string &scheduler_name, const EventSequence &sequence,
            const AppRegistry &registry)
{
    SystemConfig cfg;
    cfg.scheduler = scheduler_name;
    return Simulation(cfg, registry).run(sequence);
}

} // namespace nimblock
