#include "faas/soak.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace nimblock {

namespace {

/** Streaming-mode board config: records off, instance pooling on. */
ClusterConfig
streamingConfig(ClusterConfig cfg, std::size_t pool_size)
{
    cfg.board.hypervisor.collectRecords = false;
    cfg.board.hypervisor.appPoolSize =
        std::max(cfg.board.hypervisor.appPoolSize, pool_size);
    return cfg;
}

} // namespace

SoakEngine::SoakEngine(SoakConfig cfg, std::vector<TenantSpec> tenants,
                       const Rng &rng)
    : _cfg(cfg),
      _cluster(std::make_unique<Cluster>(
          _eq, streamingConfig(cfg.cluster, cfg.appPoolSize))),
      _ctx(cfg.cluster.board),
      _population(std::move(tenants), rng),
      _arrivals(makeArrivalProcess(cfg.arrivals, rng)),
      _admission(std::make_unique<AdmissionController>(cfg.admission,
                                                       _population.size())),
      _sla(cfg.slaWindow, cfg.slaWindowCount)
{
    if (_cfg.horizon <= 0)
        fatal("soak horizon must be positive");
    if (_cfg.slaFactor <= 0.0)
        fatal("soak SLA factor must be positive");

    // Pin every tenant's (spec, batch) in the context and derive the SLA
    // limits once; the steady state then never recomputes an estimate.
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

    _pumpTimer = _eq.addTimer("soak_arrival", [this] { onArrival(); });
}

SoakEngine::~SoakEngine() = default;

std::size_t
SoakEngine::liveCount() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < _cluster->numBoards(); ++i)
        n += _cluster->board(i).liveCount();
    return n;
}

void
SoakEngine::setCounters(CounterRegistry *counters)
{
    _admission->setCounters(counters);
}

void
SoakEngine::setTimeline(Timeline *timeline)
{
    _admission->setTimeline(timeline);
}

void
SoakEngine::start()
{
    if (_started)
        fatal("soak engine started twice");
    _started = true;

    // Pre-construct every pooled instance from the largest tenant graph:
    // admissions then never construct on the hot path and reinit() never
    // grows task storage, so the zero-alloc steady state holds from the
    // first arrival instead of from each board's live-count peak.
    const TenantSpec *seed = &_population.tenant(0);
    for (std::size_t i = 1; i < _population.size(); ++i) {
        if (_population.tenant(i).app->numTasks() > seed->app->numTasks())
            seed = &_population.tenant(i);
    }
    for (std::size_t i = 0; i < _cluster->numBoards(); ++i) {
        Hypervisor &hyp = _cluster->board(i);
        hyp.setGridContext(&_ctx);
        hyp.prewarmAppPool(seed->app, seed->batch);
        hyp.setRetireListener(
            [this](const AppInstance &app) { onRetire(app); });
    }
    // Pre-size the event heap for the pending set a saturated
    // cluster carries (events per live app, not per horizon).
    _eq.reserve(std::max<std::size_t>(
        4096, _cfg.appPoolSize * _cluster->numBoards() * 4));

    _cluster->start();

    SimTime first = _arrivals->next();
    if (first <= _cfg.horizon) {
        _pumping = true;
        _eq.armTimer(_pumpTimer, first);
    } else {
        maybeStop();
    }
}

void
SoakEngine::onArrival()
{
    SimTime t = _eq.now();
    std::size_t tenant = _population.pick();
    ++_submitted;
    if (_admission->admit(tenant, t, liveCount())) {
        ++_admitted;
        const TenantSpec &spec = _population.tenant(tenant);
        _cluster->submitSpec(spec.app, spec.batch, spec.priority,
                             static_cast<int>(tenant));
        std::uint64_t live = liveCount();
        if (live > _peakLive)
            _peakLive = live;
    }

    SimTime next = _arrivals->next();
    if (next <= _cfg.horizon) {
        // The timer re-arms itself: one persistent timer carries the
        // whole arrival stream, so the pump is O(1) memory and O(1)
        // allocation (zero, after addTimer) regardless of horizon.
        _eq.armTimer(_pumpTimer, next);
    } else {
        _pumping = false;
        maybeStop();
    }
}

void
SoakEngine::onRetire(const AppInstance &app)
{
    SimTime latency = app.retireTime() - app.arrival();
    _latency.record(latency);
    std::size_t tenant = static_cast<std::size_t>(app.eventIndex());
    bool met = latency <= _slaLimit[tenant];
    _sla.record(app.retireTime(), met);
    ++_retired;
    maybeStop();
}

void
SoakEngine::maybeStop()
{
    if (!_started || _stopped || _pumping)
        return;
    if (_retired < _admitted)
        return;
    _cluster->stop();
    _stopped = true;
}

bool
SoakEngine::step()
{
    if (_eq.empty())
        return false;
    if (!_eq.step())
        return false;
    // Generous stall guard: the drain after the arrival horizon is
    // bounded by the backlog an overloaded run accumulated, so only a
    // large multiple of the horizon indicates a genuine scheduler stall.
    if (_eq.now() > _cfg.horizon * 10 + simtime::sec(3600)) {
        fatal("soak run stalled: %llu/%llu admitted invocations retired "
              "at t=%.1fs",
              static_cast<unsigned long long>(_retired),
              static_cast<unsigned long long>(_admitted),
              simtime::toSec(_eq.now()));
    }
    return true;
}

SoakStats
SoakEngine::finish()
{
    if (!_started)
        fatal("soak engine finished before starting");
    if (_retired != _admitted) {
        fatal("soak drain incomplete: %llu admitted, %llu retired",
              static_cast<unsigned long long>(_admitted),
              static_cast<unsigned long long>(_retired));
    }
    if (_submitted != _admitted + _admission->shedCount()) {
        fatal("soak accounting broken: %llu submitted != %llu admitted + "
              "%llu shed",
              static_cast<unsigned long long>(_submitted),
              static_cast<unsigned long long>(_admitted),
              static_cast<unsigned long long>(_admission->shedCount()));
    }

    SoakStats out;
    out.submitted = _submitted;
    out.admitted = _admitted;
    out.shed = _admission->shedCount();
    out.retired = _retired;
    out.simSeconds = simtime::toSec(_eq.now());
    out.eventsFired = _eq.firedCount();
    out.peakLive = _peakLive;
    out.latencyNs = _latency;
    out.slaAttainment = _sla.attainment();
    out.worstWindowAttainment = _sla.worstWindowAttainment();
    return out;
}

SoakStats
SoakEngine::run()
{
    start();
    while (step()) {
    }
    return finish();
}

} // namespace nimblock
