#include "policy/learned.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

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
LearnedScheduler::onAppAdmitted(AppInstance &app)
{
    ops().estimatedSingleSlotLatency(app);
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

LearnedScheduler::Board
LearnedScheduler::readBoard()
{
    Board b;
    b.fabric = &ops().fabric();
    b.now = ops().now();
    b.numSlots = static_cast<std::uint32_t>(b.fabric->numSlots());
    b.freeSlots = static_cast<std::uint32_t>(b.fabric->freeSlotCount());
    b.freeFraction =
        b.numSlots ? static_cast<double>(b.freeSlots) / b.numSlots : 0.0;
    // Narrowed to float as SchedObservation::energyJoules stores it, so
    // the feature is the double a trace replays. Exactly 0.0 with
    // accounting off, so legacy decisions are bit-identical.
    const double joules =
        static_cast<double>(static_cast<float>(ops().energyJoulesTotal()));
    b.energyPressure = joules > 0.0 ? joules / (joules + 1000.0) : 0.0;
    return b;
}

void
LearnedScheduler::featurize(std::array<double, kPolicyFeatures> &phi,
                            const Board &board, const SchedAction &action,
                            const AppInstance *app) const
{
    phi.fill(0.0);
    phi[0] = 1.0;
    const auto kind = static_cast<SchedActionKind>(action.kind);
    phi[1] = kind == SchedActionKind::Configure ? 1.0 : 0.0;
    phi[2] = kind == SchedActionKind::Preempt ? 1.0 : 0.0;
    phi[3] = kind == SchedActionKind::Prefetch ? 1.0 : 0.0;
    phi[4] = board.freeFraction;
    // Heterogeneity/energy features: exactly 0.0 on uniform boards with
    // accounting off, so legacy decisions are bit-identical. The class
    // is read as the snapshot's one-byte slot row, and only for the
    // slots a snapshot holds.
    if (action.slot < board.numSlots && action.slot < kMaxSlotObs) {
        const auto slot_class = static_cast<std::uint8_t>(
            board.fabric->slot(action.slot).classId());
        phi[13] = static_cast<double>(slot_class) / 8.0;
    }
    phi[14] = board.energyPressure;
    if (!app)
        return;
    const SimTime est_ns = app->latencyEstimate();
    if (est_ns == kTimeNone)
        panic("learned policy: %s has no latency estimate",
              app->toString().c_str());
    const double est = std::max<double>(static_cast<double>(est_ns), 1.0);
    const double waiting = std::max<double>(
        static_cast<double>(board.now - app->arrival()), 0.0);
    phi[5] = waiting / (waiting + est);
    const std::int64_t total = app->totalItems();
    phi[6] = total > 0
                 ? static_cast<double>(total - app->itemsDoneTotal()) /
                       static_cast<double>(total)
                 : 0.0;
    const double token = app->token();
    phi[7] = token / (1.0 + std::fabs(token));
    phi[8] = static_cast<double>(app->priorityValue()) / 9.0;
    phi[9] = std::min(1.0, static_cast<double>(app->idlePendingTasks()) / 8.0);
    // Slack against the assumed deadline, as AppObs::deadlineSlack.
    const SimTime slack =
        app->arrival() +
        static_cast<SimTime>(kObsDeadlineScale *
                             static_cast<double>(est_ns)) -
        board.now;
    phi[10] = slack < 0 ? 1.0 : 0.0;
    phi[11] = est / (est + 1e9);
    phi[12] = board.numSlots
                  ? static_cast<double>(
                        static_cast<std::int32_t>(app->slotsUsed())) /
                        board.numSlots
                  : 0.0;
}

void
LearnedScheduler::settlePrevious()
{
    if (!_havePrev) {
        _retiredAtPrev = _retired;
        return;
    }
    // The penalty counts every live app, not only the observed window.
    const double reward =
        static_cast<double>(_retired - _retiredAtPrev) -
        _cfg.rewardBeta *
            (static_cast<double>(ops().liveApps().size()) / kMaxAppObs);

    if (_cfg.onlineUpdate && _cfg.alpha > 0.0) {
        const double err = reward - score(_prevPhi);
        for (std::size_t i = 0; i < kPolicyFeatures; ++i)
            _w[i] += _cfg.alpha * err * _prevPhi[i];
    }

    if (_trace.isOpen()) {
        PolicyTraceRecord rec{};
        rec.observation = _builder.observation();
        rec.action = _prevAction;
        rec.reward = reward;
        _trace.write(rec);
    }

    ++_decisions;
    _retiredAtPrev = _retired;
    _havePrev = false;
}

std::size_t
LearnedScheduler::enumerateCandidates()
{
    const Board board = readBoard();
    std::size_t n = 0;

    Candidate &noop = _candidates[n++];
    noop.action = SchedAction::noOp();
    featurize(noop.phi, board, noop.action, nullptr);

    const std::vector<AppInstance *> &live = ops().liveApps();
    if (board.freeSlots > 0) {
        const std::size_t rows = std::min(live.size(), kMaxAppObs);
        for (std::size_t i = 0; i < rows; ++i) {
            AppInstance &app = *live[i];
            SchedAction a{};
            a.app = app.id();
            a.task = app.firstConfigurableTask(/*pipelined=*/false);
            if (a.task != kTaskNone) {
                a.kind =
                    static_cast<std::uint32_t>(SchedActionKind::Configure);
            } else {
                // Data-starved app: offer to prefetch its next idle task
                // so the reconfiguration hides behind upstream compute.
                a.task = app.firstPrefetchableTask();
                if (a.task == kTaskNone)
                    continue;
                a.kind =
                    static_cast<std::uint32_t>(SchedActionKind::Prefetch);
            }
            a.slot = pickFreeSlot(app, a.task);
            if (a.slot == kSlotNone)
                continue;
            Candidate &c = _candidates[n++];
            c.action = a;
            featurize(c.phi, board, c.action, &app);
        }
        return n;
    }

    if (!_cfg.enablePreemption || live.size() < 2)
        return n;

    // Full board: offer at most one Preempt — the preemptible slot whose
    // occupant holds the most slots (and at least two, so no app is
    // stranded slot-less), ties to the lowest slot id. The occupant must
    // be an observed app; live apps are in admitSeq() order. Featurized
    // with the victim's features: the policy learns when evicting that
    // occupant pays off.
    const AppInstance *victim = nullptr;
    SlotId victim_slot = kSlotNone;
    std::int32_t victim_used = 1;
    const std::uint64_t last_seq =
        live[std::min(live.size(), kMaxAppObs) - 1]->admitSeq();
    const std::vector<Slot> &slots = board.fabric->slots();
    for (std::size_t i = 0; i < slots.size() && i < kMaxSlotObs; ++i) {
        const Slot &s = slots[i];
        if (!s.waitingForNextItem() || s.preemptRequested() ||
            s.quarantined())
            continue;
        const AppInstance *app = ops().findApp(s.app());
        if (!app || app->admitSeq() > last_seq)
            continue;
        const auto used = static_cast<std::int32_t>(app->slotsUsed());
        if (used > victim_used) {
            victim_used = used;
            victim_slot = s.id();
            victim = app;
        }
    }
    if (victim) {
        SchedAction a{};
        a.app = victim->id();
        a.kind = static_cast<std::uint32_t>(SchedActionKind::Preempt);
        a.task = kTaskNone;
        a.slot = victim_slot;
        Candidate &c = _candidates[n++];
        c.action = a;
        featurize(c.phi, board, c.action, victim);
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
    settlePrevious();

    // Decision loop: score the feasible action set, apply the
    // epsilon-greedy argmax, re-read the board, repeat. The first
    // decision of the pass is the one credited (and traced) at the next
    // settle; numSlots bounds the loop since every useful action
    // consumes or frees at most one slot.
    bool decided = false;
    bool applied = false;
    const std::size_t num_slots = ops().fabric().numSlots();
    const std::size_t budget = num_slots ? num_slots : 1;
    for (std::size_t step = 0; step < budget; ++step) {
        const std::size_t n = enumerateCandidates();
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
            // Nothing has acted yet this pass: the snapshot shows the
            // state the decision was taken on.
            if (_trace.isOpen())
                _builder.build(ops(), ops().liveApps());
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
        if (!freed)
            break;
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
