#include "policy/learned.hh"

#include <algorithm>
#include <cmath>

namespace nimblock {

LearnedScheduler::LearnedScheduler(LearnedConfig cfg)
    : Scheduler("learned"), _cfg(std::move(cfg)), _w(_cfg.weights),
      _rng(_cfg.seed)
{
    _prevAction = SchedAction::noOp();
    _prevPhi.fill(0.0);
    if (!_cfg.tracePath.empty())
        _trace.open(_cfg.tracePath);
}

void
LearnedScheduler::onAppRetired(AppInstance &app)
{
    (void)app;
    ++_retired;
}

double
LearnedScheduler::score(const std::array<double, kPolicyFeatures> &phi) const
{
    double s = 0.0;
    for (std::size_t i = 0; i < kPolicyFeatures; ++i)
        s += _w[i] * phi[i];
    return s;
}

void
LearnedScheduler::featurize(std::array<double, kPolicyFeatures> &phi,
                            const SchedObservation &obs,
                            const SchedAction &action,
                            const AppObs *app) const
{
    phi.fill(0.0);
    phi[0] = 1.0;
    const auto kind = static_cast<SchedActionKind>(action.kind);
    phi[1] = kind == SchedActionKind::Configure ? 1.0 : 0.0;
    phi[2] = kind == SchedActionKind::Preempt ? 1.0 : 0.0;
    phi[3] = kind == SchedActionKind::Prefetch ? 1.0 : 0.0;
    phi[4] = obs.numSlots
                 ? static_cast<double>(obs.freeSlots) / obs.numSlots
                 : 0.0;
    // Heterogeneity/energy features: exactly 0.0 on uniform boards with
    // accounting off, so legacy decisions are bit-identical.
    if (action.slot != kSlotNone && action.slot < kMaxSlotObs)
        phi[13] = static_cast<double>(obs.slots[action.slot].slotClass) / 8.0;
    const double joules = static_cast<double>(obs.energyJoules);
    phi[14] = joules > 0.0 ? joules / (joules + 1000.0) : 0.0;
    if (!app)
        return;
    const double est =
        std::max<double>(static_cast<double>(app->estLatency), 1.0);
    const double waiting =
        std::max<double>(static_cast<double>(app->waitingTime), 0.0);
    phi[5] = waiting / (waiting + est);
    phi[6] = app->totalItems > 0 ? static_cast<double>(app->itemsRemaining) /
                                       static_cast<double>(app->totalItems)
                                 : 0.0;
    phi[7] = app->token / (1.0 + std::fabs(app->token));
    phi[8] = static_cast<double>(app->priority) / 9.0;
    phi[9] = std::min(1.0, static_cast<double>(app->queueDepth) / 8.0);
    phi[10] = app->deadlineSlack < 0 ? 1.0 : 0.0;
    phi[11] = est / (est + 1e9);
    phi[12] = obs.numSlots
                  ? static_cast<double>(app->slotsUsed) / obs.numSlots
                  : 0.0;
}

void
LearnedScheduler::settlePrevious(const SchedObservation &obs)
{
    if (!_havePrev) {
        _retiredAtPrev = _retired;
        return;
    }
    const double reward =
        static_cast<double>(_retired - _retiredAtPrev) -
        _cfg.rewardBeta * (static_cast<double>(obs.liveApps) / kMaxAppObs);

    if (_cfg.onlineUpdate && _cfg.alpha > 0.0) {
        const double err = reward - score(_prevPhi);
        for (std::size_t i = 0; i < kPolicyFeatures; ++i)
            _w[i] += _cfg.alpha * err * _prevPhi[i];
    }

    if (_trace.isOpen()) {
        PolicyTraceRecord rec{};
        rec.observation = _prevObs;
        rec.action = _prevAction;
        rec.reward = reward;
        _trace.write(rec);
    }

    ++_decisions;
    _retiredAtPrev = _retired;
    _havePrev = false;
}

std::size_t
LearnedScheduler::enumerateCandidates(const SchedObservation &obs)
{
    std::size_t n = 0;

    Candidate &noop = _candidates[n++];
    noop.action = SchedAction::noOp();
    featurize(noop.phi, obs, noop.action, nullptr);

    if (obs.freeSlots > 0) {
        for (std::uint32_t i = 0; i < obs.numApps; ++i) {
            const AppObs &row = obs.apps[i];
            AppInstance *app = ops().findApp(row.id);
            if (!app)
                continue;
            SchedAction a{};
            a.app = row.id;
            a.task = app->firstConfigurableTask(/*pipelined=*/false);
            if (a.task != kTaskNone) {
                a.kind =
                    static_cast<std::uint32_t>(SchedActionKind::Configure);
            } else {
                // Data-starved app: offer to prefetch its next idle task
                // so the reconfiguration hides behind upstream compute.
                a.task = app->firstPrefetchableTask();
                if (a.task == kTaskNone)
                    continue;
                a.kind =
                    static_cast<std::uint32_t>(SchedActionKind::Prefetch);
            }
            a.slot = pickFreeSlot(*app, a.task);
            if (a.slot == kSlotNone)
                continue;
            Candidate &c = _candidates[n++];
            c.action = a;
            featurize(c.phi, obs, c.action, &row);
        }
        return n;
    }

    if (!_cfg.enablePreemption || obs.liveApps < 2)
        return n;

    // Full board: offer at most one Preempt — the preemptible slot whose
    // occupant holds the most slots (and at least two, so no app is
    // stranded slot-less), ties to the lowest slot id. Featurized with
    // the victim's row: the policy learns when evicting that occupant
    // pays off.
    const AppObs *victim_row = nullptr;
    std::uint32_t victim_slot = kSlotNone;
    std::int32_t victim_used = 1;
    for (std::uint32_t i = 0; i < obs.numSlots && i < kMaxSlotObs; ++i) {
        const SlotObs &s = obs.slots[i];
        if (!s.waitingForNextItem || s.preemptRequested || s.quarantined)
            continue;
        for (std::uint32_t j = 0; j < obs.numApps; ++j) {
            const AppObs &row = obs.apps[j];
            if (row.id != s.app)
                continue;
            if (row.slotsUsed > victim_used) {
                victim_used = row.slotsUsed;
                victim_slot = s.id;
                victim_row = &row;
            }
            break;
        }
    }
    if (victim_row) {
        SchedAction a{};
        a.app = victim_row->id;
        a.kind = static_cast<std::uint32_t>(SchedActionKind::Preempt);
        a.task = kTaskNone;
        a.slot = victim_slot;
        Candidate &c = _candidates[n++];
        c.action = a;
        featurize(c.phi, obs, c.action, victim_row);
    }
    return n;
}

bool
LearnedScheduler::apply(const Candidate &c)
{
    switch (static_cast<SchedActionKind>(c.action.kind)) {
      case SchedActionKind::NoOp:
        return false;
      case SchedActionKind::Configure:
      case SchedActionKind::Prefetch: {
        AppInstance *app = ops().findApp(c.action.app);
        if (!app)
            return false;
        return ops().configure(*app, c.action.task, c.action.slot);
      }
      case SchedActionKind::Preempt:
        // preempt() returns true only when the slot frees synchronously;
        // an async request still changed state, but offers no slot to
        // fill this pass — either way the caller's loop decision is the
        // return value.
        return ops().preempt(c.action.slot);
    }
    return false;
}

void
LearnedScheduler::pass(SchedEvent reason)
{
    (void)reason;
    const SchedObservation *obs = &_builder.build(ops(), ops().liveApps());
    settlePrevious(*obs);

    // Decision loop: score the feasible action set, apply the
    // epsilon-greedy argmax, re-observe, repeat. The first decision of
    // the pass is the one credited (and traced) at the next settle;
    // numSlots bounds the loop since every useful action consumes or
    // frees at most one slot.
    bool decided = false;
    bool applied = false;
    const std::size_t budget = obs->numSlots ? obs->numSlots : 1;
    for (std::size_t step = 0; step < budget; ++step) {
        const std::size_t n = enumerateCandidates(*obs);
        std::size_t pick = 0;
        if (n > 1 && _rng.bernoulli(_cfg.epsilon)) {
            pick = _rng.index(n);
        } else {
            double best = score(_candidates[0].phi);
            for (std::size_t i = 1; i < n; ++i) {
                const double s = score(_candidates[i].phi);
                if (s > best) {
                    best = s;
                    pick = i;
                }
            }
        }
        const Candidate &c = _candidates[pick];
        if (!decided) {
            if (_trace.isOpen())
                _prevObs = *obs;
            _prevAction = c.action;
            _prevPhi = c.phi;
            _havePrev = true;
            decided = true;
        }
        if (static_cast<SchedActionKind>(c.action.kind) ==
            SchedActionKind::NoOp)
            break;
        const bool freed = apply(c);
        applied = true;
        // The action advances the state version only when this pass
        // returns, so the rebuild must not reuse rows from before it.
        _builder.invalidate();
        if (!freed)
            break;
        obs = &_builder.build(ops(), ops().liveApps());
    }

    // Work-conserving guard: whatever the policy left free goes to
    // bulk-ready tasks in arrival order. The policy shapes priority and
    // preemption; it is never allowed to stall a board with runnable
    // work (the simulator treats that as fatal). On a clean tick with
    // no action applied above, the last guard saw this same state and
    // placed nothing (a placement advances the version), so it is
    // skipped.
    const std::uint64_t version = ops().stateVersion();
    if (!applied && version != 0 && version == _guardVersion)
        return;
    _guardVersion = version;
    if (ops().fabric().freeSlotCount() > 0) {
        for (AppInstance *app : ops().liveApps()) {
            if (ops().fabric().freeSlotCount() == 0)
                break;
            configureBulkReady(*app);
        }
    }
}

} // namespace nimblock
