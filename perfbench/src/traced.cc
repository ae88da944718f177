#include "traced.hh"

#include <algorithm>

#include "fabric/resources.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "taskgraph/builder.hh"

namespace perfbench {

const char *
spanName(Span s)
{
    switch (s) {
      case Span::SimStep:
        return "sim.step";
      case Span::SchedPass:
        return "sched.pass";
      case Span::SchedHook:
        return "sched.hook";
      case Span::HypCmd:
        return "hyp.cmd";
      case Span::HypSubmit:
        return "hyp.submit";
      case Span::FaasPump:
        return "faas.pump";
      case Span::FaasAdmit:
        return "faas.admit";
      case Span::FaasNext:
        return "faas.next";
      case Span::FaasRecord:
        return "faas.record";
      case Span::Count:
        break;
    }
    return "?";
}

void
Tracer::overflow()
{
    panic("span stack deeper than %zu", kMaxDepth);
}

// ---------------------------------------------------------------------
// Forwarding scheduler.

TracingScheduler::TracingScheduler(std::unique_ptr<Scheduler> inner,
                                   Tracer &tracer, SchedStats &stats)
    : Scheduler(inner->name()), _inner(std::move(inner)), _tracer(tracer),
      _stats(stats), _ops(*this)
{
    _inner->attach(_ops);
}

void
TracingScheduler::pass(SchedEvent reason)
{
    _tracer.begin(Span::SchedPass);
    _stats.liveSum += ops().liveApps().size();
    _inner->pass(reason);
    _stats.selfNs += _tracer.end();
    ++_stats.passes;
}

void
TracingScheduler::onAppAdmitted(AppInstance &app)
{
    ScopedSpan span(_tracer, Span::SchedHook);
    _inner->onAppAdmitted(app);
}

void
TracingScheduler::onAppRetired(AppInstance &app)
{
    ScopedSpan span(_tracer, Span::SchedHook);
    _inner->onAppRetired(app);
}

void
TracingScheduler::onCapacityChanged()
{
    ScopedSpan span(_tracer, Span::SchedHook);
    _inner->onCapacityChanged();
}

bool
TracingScheduler::Ops::configure(AppInstance &app, TaskId task, SlotId slot)
{
    ScopedSpan span(_outer._tracer, Span::HypCmd);
    bool ok = hyp().configure(app, task, slot);
    if (ok)
        ++_outer._stats.placed;
    return ok;
}

bool
TracingScheduler::Ops::preempt(SlotId slot)
{
    ScopedSpan span(_outer._tracer, Span::HypCmd);
    return hyp().preempt(slot);
}

// ---------------------------------------------------------------------
// Composed closed-sequence run (mirrors Simulation::run).

RunResult
runTracedSequence(const SystemConfig &cfg, const AppRegistry &registry,
                  const EventSequence &seq, const GridContext &ctx,
                  Tracer &tracer, SchedStats &stats,
                  std::uint64_t &pendingSum)
{
    seq.validate();
    if (seq.events.empty())
        fatal("cannot run an empty event sequence");

    EventQueue eq(cfg.eventQueue);
    Fabric fabric(eq, cfg.fabric);
    TracingScheduler scheduler(makeScheduler(cfg.scheduler), tracer, stats);
    MetricsCollector collector;
    Hypervisor hyp(eq, fabric, scheduler, collector, cfg.hypervisor);
    hyp.setGridContext(&ctx);
    for (const WorkloadEvent &e : seq.events)
        fabric.internBitstreamName(e.appName);

    SimTime total_work = 0;
    for (const WorkloadEvent &e : seq.events) {
        AppSpecPtr spec = registry.get(e.appName);
        SimTime lat = ctx.singleSlotLatency(spec.get(), e.batch);
        if (lat == kTimeNone)
            lat = cfg.singleSlotLatency(*spec, e.batch);
        total_work += lat;
    }
    eq.reserve(seq.events.size() + 64);
    collector.reserve(seq.events.size());
    SimTime horizon = seq.lastArrival() +
                      static_cast<SimTime>(cfg.horizonFactor *
                                           static_cast<double>(total_work)) +
                      simtime::sec(60);

    // One pointer in the capture keeps the closure inside the queue's
    // inline callback buffer, as Simulation::run's does.
    struct Submitter
    {
        Hypervisor &hyp;
        Tracer &tracer;
    } submitter{hyp, tracer};
    for (const WorkloadEvent &e : seq.events) {
        AppSpecPtr spec = registry.get(e.appName);
        eq.schedule(e.arrival, "arrival",
                    [s = &submitter, spec, batch = e.batch,
                     priority = e.priority, index = e.index] {
                        ScopedSpan span(s->tracer, Span::HypSubmit);
                        s->hyp.submit(spec, batch, priority, index);
                    });
    }

    hyp.start();
    const std::size_t total_events = seq.events.size();
    bool stopped = false;
    while (!eq.empty()) {
        pendingSum += eq.pendingCount();
        tracer.begin(Span::SimStep);
        bool fired = eq.step();
        tracer.end();
        if (!fired)
            break;
        if (!stopped && collector.count() == total_events) {
            hyp.stop();
            stopped = true;
        }
        if (eq.now() > horizon) {
            fatal("scheduler '%s' stalled on sequence '%s'",
                  cfg.scheduler.c_str(), seq.name.c_str());
        }
    }
    if (collector.count() != total_events) {
        fatal("run ended with %zu/%zu applications retired",
              collector.count(), total_events);
    }

    RunResult result;
    result.scheduler = cfg.scheduler;
    result.sequenceName = seq.name;
    result.records = collector.records();
    result.hypervisorStats = hyp.stats();
    result.eventsFired = eq.firedCount();
    for (const AppRecord &r : result.records)
        result.makespan = std::max(result.makespan, r.retire);
    return result;
}

// ---------------------------------------------------------------------
// Composed soak (mirrors SoakEngine).

struct ComposedSoak::Board
{
    std::unique_ptr<Fabric> fabric;
    std::unique_ptr<TracingScheduler> scheduler;
    std::unique_ptr<MetricsCollector> collector;
    std::unique_ptr<Hypervisor> hypervisor;
};

namespace {

/** The streaming hypervisor config SoakEngine hands its cluster. */
HypervisorConfig
streamingHypervisor(const SoakConfig &cfg)
{
    HypervisorConfig h = cfg.cluster.board.hypervisor;
    h.collectRecords = false;
    h.appPoolSize = std::max(h.appPoolSize, cfg.appPoolSize);
    return h;
}

} // namespace

ComposedSoak::ComposedSoak(const SoakShape &shape, Tracer &tracer,
                           SchedStats &stats)
    : _cfg(shape.cfg), _tracer(tracer), _eq(_cfg.cluster.board.eventQueue),
      _boards(), _ctx(_cfg.cluster.board),
      _population(shape.tenants, shape.rng),
      _arrivals(makeArrivalProcess(_cfg.arrivals, shape.rng)),
      _admission(_cfg.admission, _population.size()),
      _sla(_cfg.slaWindow, _cfg.slaWindowCount)
{
    if (_cfg.cluster.numBoards == 0)
        fatal("cluster needs at least one board");
    // Boards are built in the member-initializer slot Cluster occupies
    // in SoakEngine, before the context, population and arrivals touch
    // anything; constructing them here keeps that order because none of
    // the later members schedules an event or registers a timer.
    HypervisorConfig hcfg = streamingHypervisor(_cfg);
    for (std::size_t i = 0; i < _cfg.cluster.numBoards; ++i) {
        auto b = std::make_unique<Board>();
        b->fabric = std::make_unique<Fabric>(_eq, _cfg.cluster.board.fabric);
        b->scheduler = std::make_unique<TracingScheduler>(
            makeScheduler(_cfg.cluster.board.scheduler), tracer, stats);
        b->collector = std::make_unique<MetricsCollector>();
        b->hypervisor = std::make_unique<Hypervisor>(
            _eq, *b->fabric, *b->scheduler, *b->collector, hcfg);
        _boards.push_back(std::move(b));
    }

    std::int64_t t0 = Tracer::clockNs();
    _slaLimit.reserve(_population.size());
    for (std::size_t i = 0; i < _population.size(); ++i) {
        const TenantSpec &t = _population.tenant(i);
        _ctx.warm(t.app, t.batch);
        SimTime isolated =
            _cfg.cluster.board.singleSlotLatency(*t.app, t.batch);
        _slaLimit.push_back(static_cast<SimTime>(
            _cfg.slaFactor * static_cast<double>(isolated)));
    }
    _ctx.freeze();
    _ctxSec = static_cast<double>(Tracer::clockNs() - t0) * 1e-9;

    _pumpTimer = _eq.addTimer("soak_arrival", [this] { onArrival(); });
}

ComposedSoak::~ComposedSoak() = default;

std::size_t
ComposedSoak::liveCount() const
{
    std::size_t n = 0;
    for (const auto &b : _boards)
        n += b->hypervisor->liveCount();
    return n;
}

std::uint64_t
ComposedSoak::passesElided() const
{
    std::uint64_t n = 0;
    for (const auto &b : _boards)
        n += b->hypervisor->stats().purePassesElided;
    return n;
}

void
ComposedSoak::start()
{
    _started = true;
    const TenantSpec *seed = &_population.tenant(0);
    for (std::size_t i = 1; i < _population.size(); ++i) {
        if (_population.tenant(i).app->numTasks() > seed->app->numTasks())
            seed = &_population.tenant(i);
    }
    for (auto &b : _boards) {
        Hypervisor &hyp = *b->hypervisor;
        hyp.setGridContext(&_ctx);
        hyp.prewarmAppPool(seed->app, seed->batch);
        hyp.setRetireListener(
            [this](const AppInstance &app) { onRetire(app); });
    }
    _eq.reserve(std::max<std::size_t>(
        4096, _cfg.appPoolSize * _boards.size() * 4));
    for (auto &b : _boards)
        b->hypervisor->start();

    SimTime first;
    {
        ScopedSpan span(_tracer, Span::FaasNext);
        first = _arrivals->next();
    }
    if (first <= _cfg.horizon) {
        _pumping = true;
        _eq.armTimer(_pumpTimer, first);
    } else {
        maybeStop();
    }
}

void
ComposedSoak::onArrival()
{
    ScopedSpan pump(_tracer, Span::FaasPump);
    SimTime t = _eq.now();
    std::size_t tenant = _population.pick();
    ++_submitted;
    bool admit;
    {
        ScopedSpan span(_tracer, Span::FaasAdmit);
        admit = _admission.admit(tenant, t, liveCount());
    }
    if (admit) {
        ++_admitted;
        const TenantSpec &spec = _population.tenant(tenant);
        std::size_t board = _rrNext;
        _rrNext = (_rrNext + 1) % _boards.size();
        {
            ScopedSpan span(_tracer, Span::HypSubmit);
            _boards[board]->hypervisor->submit(spec.app, spec.batch,
                                               spec.priority,
                                               static_cast<int>(tenant));
        }
        std::uint64_t live = liveCount();
        if (live > _peakLive)
            _peakLive = live;
    }

    SimTime next;
    {
        ScopedSpan span(_tracer, Span::FaasNext);
        next = _arrivals->next();
    }
    if (next <= _cfg.horizon) {
        _eq.armTimer(_pumpTimer, next);
    } else {
        _pumping = false;
        maybeStop();
    }
}

void
ComposedSoak::onRetire(const AppInstance &app)
{
    {
        ScopedSpan span(_tracer, Span::FaasRecord);
        SimTime latency = app.retireTime() - app.arrival();
        _latency.record(latency);
        std::size_t tenant = static_cast<std::size_t>(app.eventIndex());
        _sla.record(app.retireTime(), latency <= _slaLimit[tenant]);
    }
    ++_retired;
    maybeStop();
}

void
ComposedSoak::maybeStop()
{
    if (!_started || _stopped || _pumping || _retired < _admitted)
        return;
    for (auto &b : _boards)
        b->hypervisor->stop();
    _stopped = true;
}

double
ComposedSoak::drain()
{
    const SimTime limit = _cfg.horizon * 10 + simtime::sec(3600);
    std::int64_t t0 = Tracer::clockNs();
    while (!_eq.empty()) {
        _pendingSum += _eq.pendingCount();
        _tracer.begin(Span::SimStep);
        bool fired = _eq.step();
        _tracer.end();
        if (!fired)
            break;
        if (_eq.now() > limit)
            fatal("composed soak stalled at t=%.1fs",
                  simtime::toSec(_eq.now()));
    }
    return static_cast<double>(Tracer::clockNs() - t0) * 1e-9;
}

SoakStats
ComposedSoak::finish()
{
    if (_retired != _admitted)
        fatal("composed soak drain incomplete");
    if (_submitted != _admitted + _admission.shedCount())
        fatal("composed soak accounting broken");
    SoakStats out;
    out.submitted = _submitted;
    out.admitted = _admitted;
    out.shed = _admission.shedCount();
    out.retired = _retired;
    out.simSeconds = simtime::toSec(_eq.now());
    out.eventsFired = _eq.firedCount();
    out.peakLive = _peakLive;
    out.latencyNs = _latency;
    out.slaAttainment = _sla.attainment();
    out.worstWindowAttainment = _sla.worstWindowAttainment();
    return out;
}

// ---------------------------------------------------------------------
// Probes.

double
holdNsPerOp(EventQueueImpl impl, std::size_t depth, int reps)
{
    depth = std::max<std::size_t>(depth, 1);
    const std::uint64_t ops = std::max<std::uint64_t>(8 * depth, 200000);
    std::vector<double> ns;
    for (int rep = 0; rep < reps; ++rep) {
        EventQueue eq(impl);
        eq.reserve(depth + 64);
        Rng rng(0xbadc0ffeeULL + depth);
        // The mix bench_sim_innerloop's sweep uses: 75% sub-ms holds in
        // the level-0 fast path, 25% up to 100 ms that must cascade.
        auto delta = [&rng]() -> SimTime {
            if (rng.bernoulli(0.75))
                return 1 + rng.uniformInt(0, simtime::us(800));
            return 1 + rng.uniformInt(simtime::ms(1), simtime::ms(100));
        };
        for (std::size_t i = 0; i < depth; ++i)
            eq.schedule(delta(), "hold", [] {});
        std::int64_t t0 = Tracer::clockNs();
        while (eq.firedCount() < ops) {
            std::uint64_t before = eq.firedCount();
            if (!eq.step())
                break;
            for (std::uint64_t i = before; i < eq.firedCount(); ++i)
                eq.schedule(eq.now() + delta(), "hold", [] {});
        }
        ns.push_back(static_cast<double>(Tracer::clockNs() - t0) /
                     static_cast<double>(eq.firedCount()));
    }
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
}

SchedStats
depthProbe(const std::string &scheduler, std::size_t depth,
           std::uint64_t passes, double budgetSec)
{
    GraphBuilder builder;
    TaskSpec task;
    task.name = "probe_k";
    task.itemLatency = simtime::ms(5);
    task.inputBytes = 0;
    task.outputBytes = 0;
    builder.addTask(std::move(task));
    AppSpecPtr app =
        std::make_shared<AppSpec>("probe", "probe", builder.build());

    SystemConfig cfg;
    cfg.hypervisor.collectRecords = false;
    cfg.hypervisor.appPoolSize = depth + 64;
    GridContext ctx(cfg);
    ctx.warm(app, 1);
    ctx.freeze();

    Tracer tracer;
    SchedStats stats;
    EventQueue eq(EventQueueImpl::Auto);
    Fabric fabric(eq, cfg.fabric);
    TracingScheduler sched(makeScheduler(scheduler), tracer, stats);
    MetricsCollector collector;
    Hypervisor hyp(eq, fabric, sched, collector, cfg.hypervisor);
    hyp.setGridContext(&ctx);
    hyp.prewarmAppPool(app, 1);
    eq.reserve(depth * 4 + 64);

    // Every retirement is replaced at the same timestamp by a co-timed
    // refill event, so the live set never drops more than the
    // retirements of one event below depth.
    std::size_t deficit = 0;
    TimerId refill = eq.addTimer("refill", [&] {
        for (; deficit > 0; --deficit)
            hyp.submit(app, 1, Priority::Medium, 0);
    });
    hyp.setRetireListener([&](const AppInstance &) {
        ++deficit;
        if (!eq.timerArmed(refill))
            eq.armTimer(refill, eq.now());
    });
    hyp.start();
    for (std::size_t i = 0; i < depth; ++i)
        hyp.submit(app, 1, Priority::Medium, 0);

    // Warm-up: the first retirement wave (fills every slot once).
    const std::uint64_t warmup = 2 * zcu106::kNumSlots;
    std::int64_t deadline =
        Tracer::clockNs() + static_cast<std::int64_t>(budgetSec * 1e9);
    while (stats.passes < warmup && eq.step()) {
    }
    SchedStats before = stats;
    while (stats.passes - before.passes < passes &&
           Tracer::clockNs() < deadline && eq.step()) {
    }
    hyp.stop();
    SchedStats out;
    out.passes = stats.passes - before.passes;
    out.selfNs = stats.selfNs - before.selfNs;
    out.liveSum = stats.liveSum - before.liveSum;
    out.placed = stats.placed - before.placed;
    return out;
}

} // namespace perfbench
