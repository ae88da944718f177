#include "hypervisor/hypervisor.hh"

#include <algorithm>
#include <cmath>

#include "alloc/makespan.hh"
#include "core/grid_context.hh"
#include "sched/prema_tokens.hh"
#include "sim/logging.hh"

namespace nimblock {

Hypervisor::Hypervisor(EventQueue &eq, Fabric &fabric, Scheduler &scheduler,
                       MetricsCollector &collector, HypervisorConfig cfg)
    : _eq(eq), _fabric(fabric), _scheduler(scheduler), _collector(collector),
      _cfg(cfg), _buffers(cfg.buffers)
{
    if (cfg.schedInterval <= 0)
        fatal("scheduling interval must be positive");
    if (_cfg.allowMidItemPreemption && fabric.config().modelPsContention) {
        // Three-phase (transfer/compute/transfer) items cannot be
        // checkpointed mid-transfer; silently proceeding would leave
        // mid-item preemption requests unhonorable.
        warn("allowMidItemPreemption requires modelPsContention == false; "
             "disabling mid-item preemption");
        _cfg.allowMidItemPreemption = false;
    }
    _itemEvent.assign(fabric.numSlots(), kEventNone);
    _itemStart.assign(fabric.numSlots(), kTimeNone);
    _itemDuration.assign(fabric.numSlots(), kTimeNone);
    _pipeLastDone.assign(fabric.numSlots(), kTimeNone);
    _pipePrimed.assign(fabric.numSlots(), 0);
    _slotKernel.assign(fabric.numSlots(), 0);
    _scheduler.attach(*this);
    _tick = std::make_unique<PeriodicEvent>(
        _eq, _cfg.schedInterval, "sched_tick", [this] {
            // Idle-tick elision happens at fire time: parking only when
            // no pass is pending keeps the event order identical to a
            // free-running timer (a co-timed pass could admit work).
            if (_live.empty() && !_passPending) {
                _tick->stop();
                return;
            }
            requestPass(SchedEvent::Tick);
        });
    // The pass callback is constructed once; every requestPass after
    // this is a timer arm (no per-pass callable construction).
    _passTimer = _eq.addTimer("sched_pass", [this] {
        _passPending = false;
        runPass(_pendingReason);
    });
}

Hypervisor::~Hypervisor() = default;

void
Hypervisor::setCounters(CounterRegistry *counters)
{
    _counters = counters;
    _fabric.cap().setCounters(counters);
    _fabric.store().setCounters(counters);
    if (!counters)
        return;
    // Interning happens here, once, at wiring time: recording sites are
    // pure integer-id appends.
    _ctrLiveApps = counters->define("hyp.live_apps");
    _ctrRetired = counters->define("hyp.retired");
    _ctrItemsDone = counters->define("hyp.items_done");
    _ctrPasses = counters->define("hyp.sched_passes");
    _ctrBufferBytes = counters->define("hyp.buffer_bytes");
    _markPass = counters->define("sched.pass");
    _ctrFaults = counters->define("fault.injected");
    _ctrFaultRetries = counters->define("fault.retries");
    _ctrQuarantined = counters->define("fault.quarantined_slots");
    _ctrAppsFailed = counters->define("fault.apps_failed");
    if (_energy)
        _energy->setCounters(counters);
}

void
Hypervisor::setFaultInjector(FaultInjector *injector)
{
    _faults = injector;
    _fabric.cap().setFaultInjector(injector);
    _fabric.store().setFaultInjector(injector);
    if (!injector) {
        _retry.reset();
        _health.reset();
        return;
    }
    const FaultConfig &fc = injector->config();
    _retry = std::make_unique<RetryPolicy>(
        fc.retry, Rng(fc.seed).derive("retry.jitter").seed());
    _health = std::make_unique<SlotHealth>(_fabric.numSlots(),
                                           fc.quarantineAfter);
    _configAttempts.assign(_fabric.numSlots(), 0);
    _itemAttempts.assign(_fabric.numSlots(), 0);
    _itemFault.assign(_fabric.numSlots(), ItemFault::None);
    _slotHold.assign(_fabric.numSlots(), 0);
}

void
Hypervisor::start()
{
    _started = true;
    if (_live.empty()) {
        // Nothing to schedule yet: pin the tick grid without arming so a
        // later aligned restart fires at the times a free-running timer
        // would have.
        _tick->setAnchor();
        return;
    }
    _tick->start();
}

void
Hypervisor::stop()
{
    _started = false;
    _tick->stop();
}

void
Hypervisor::reserveAppPool(std::size_t n)
{
    _cfg.appPoolSize = std::max(_cfg.appPoolSize, n);
    _pool.reserve(_cfg.appPoolSize);
    _live.reserve(n);
    _scheduler.reserveApps(n);
    // Ids are recycled with pooled instances, so the id space is bounded
    // by peak concurrency; +1 because id 0 is never issued.
    _owned.reserve(n + 1);
    _appNameId.reserve(n + 1);
}

void
Hypervisor::prewarmAppPool(AppSpecPtr spec, int batch)
{
    reserveAppPool(_cfg.appPoolSize);
    while (_pool.size() < _cfg.appPoolSize) {
        _pool.push_back(std::make_unique<AppInstance>(
            _nextAppId++, spec, batch, Priority::Medium, 0, 0));
    }
}

AppInstanceId
Hypervisor::submit(AppSpecPtr spec, int batch, Priority priority,
                   int event_index)
{
    std::unique_ptr<AppInstance> inst;
    if (!_pool.empty()) {
        // Recycle a retired instance together with its id: storage and
        // the id-indexed side tables are reused in place, so a warmed-up
        // streaming run admits without allocating.
        inst = std::move(_pool.back());
        _pool.pop_back();
        inst->reinit(std::move(spec), batch, priority, _eq.now(),
                     event_index);
    } else {
        inst = std::make_unique<AppInstance>(_nextAppId++, std::move(spec),
                                             batch, priority, _eq.now(),
                                             event_index);
    }
    ++_stats.appsAdmitted;
    AppInstanceId id = addLive(std::move(inst)).id();
    requestPass(SchedEvent::Arrival);
    return id;
}

AppInstance &
Hypervisor::addLive(std::unique_ptr<AppInstance> inst)
{
    AppInstanceId id = inst->id();
    if (_owned.size() <= id) {
        _owned.resize(id + 1);
        _appNameId.resize(id + 1, kNameNone);
    }
    // A recycled id's interned timeline name belongs to its previous
    // owner.
    _appNameId[id] = kNameNone;
    // Intern the bitstream name now so the configure path never touches
    // the name string (admissions are cold; configures are hot).
    inst->setBitstreamNameId(
        _fabric.internBitstreamName(inst->spec().name()));
    inst->setAdmitSeq(_nextAdmitSeq++);
    AppInstance &app = *inst;
    _owned[id] = std::move(inst);
    _live.push_back(&app);
    ++_liveEpoch;
    // Each list holds a live app at most once, so matching _live's
    // capacity keeps marking allocation-free.
    if (_readyMarks.capacity() < _live.capacity()) {
        _readyMarks.reserve(_live.capacity());
        _readyChanged.reserve(_live.capacity());
    }
    markReadyChanged(app);
    countSample(_ctrLiveApps, static_cast<double>(_live.size()));
    if (_started && !_tick->running())
        _tick->startAligned();
    _scheduler.onAppAdmitted(app);
    return app;
}

std::unique_ptr<AppInstance>
Hypervisor::removeLive(AppInstance &app)
{
    _scheduler.onAppRetired(app);
    auto it = std::lower_bound(_live.begin(), _live.end(), app.admitSeq(),
                               [](const AppInstance *a, std::uint64_t seq) {
                                   return a->admitSeq() < seq;
                               });
    if (it == _live.end() || *it != &app)
        panic("removing app %llu, which is not live",
              static_cast<unsigned long long>(app.id()));
    _live.erase(it);
    ++_liveEpoch;
    countSample(_ctrLiveApps, static_cast<double>(_live.size()));
    if (app.readyMarked()) {
        app.setReadyMarked(false);
        *std::find(_readyMarks.begin(), _readyMarks.end(), &app) =
            _readyMarks.back();
        _readyMarks.pop_back();
    }
    if (_inPass) {
        _readyChanged.erase(
            std::remove(_readyChanged.begin(), _readyChanged.end(), &app),
            _readyChanged.end());
    }
    return std::move(_owned[app.id()]);
}

std::uint64_t
Hypervisor::bufferBytes(const AppInstance &app, TaskId task) const
{
    // Double-buffered per-item input and output windows.
    const TaskSpec &spec = app.graph().task(task);
    return 2 * (spec.inputBytes + spec.outputBytes);
}

SimTime
Hypervisor::itemWallTime(const AppInstance &app, TaskId task) const
{
    const TaskSpec &spec = app.graph().task(task);
    const TaskGraph &g = app.graph();
    SimTime in = g.predecessors(task).empty()
                     ? _fabric.psTransferLatency(spec.inputBytes)
                     : _fabric.interiorTransferLatency(spec.inputBytes);
    SimTime out = g.successors(task).empty()
                      ? _fabric.psTransferLatency(spec.outputBytes)
                      : _fabric.interiorTransferLatency(spec.outputBytes);
    return spec.itemLatency + in + out;
}

void
Hypervisor::doTransfer(std::uint64_t bytes, bool interior,
                       EventQueue::Callback cb)
{
    if (bytes == 0) {
        cb();
        return;
    }
    if (interior &&
        _fabric.config().transport == InterSlotTransport::NoC) {
        // NoC links are point-to-point: no queueing against other slots.
        _eq.scheduleAfter(_fabric.interiorTransferLatency(bytes),
                          "noc_transfer", std::move(cb));
        return;
    }
    _fabric.dataPort().transfer(bytes, std::move(cb));
}

void
Hypervisor::trace(SlotId slot, const AppInstance &app, TaskId task,
                  TimelineEventKind kind)
{
    if (!_timeline)
        return;
    NameId &name = _appNameId[app.id()];
    if (name == kNameNone)
        name = _timeline->intern(app.spec().name());
    _timeline->record(_eq.now(), slot, app.id(), task, name, kind);
}

bool
Hypervisor::configure(AppInstance &app, TaskId task, SlotId slot_id)
{
    // Any attempt (even a rejected one) marks state dirty: the next
    // tick pass must run so the scheduler can retry. It also re-offers
    // the app's tasks to the next pass: a scheduler may have dequeued
    // this task before a rejected attempt.
    ++_actionCounter;
    markReadyChanged(app);
    // Silent (schedulers retry every pass): a migrating app is leaving
    // this board; placing it would only lengthen its quiescence.
    if (app.migrating())
        return false;
    Slot &slot = _fabric.slot(slot_id);
    if (!slot.isFree()) {
        warn("configure rejected: slot %u not free", slot_id);
        return false;
    }
    TaskRunState &st = app.taskState(task);
    if (st.phase != TaskPhase::Idle) {
        warn("configure rejected: %s task %u is %s",
             app.spec().name().c_str(), task, toString(st.phase));
        return false;
    }
    if (st.itemsDone >= app.batch()) {
        warn("configure rejected: %s task %u already finished its batch",
             app.spec().name().c_str(), task);
        return false;
    }

    BitstreamKey key =
        _fabric.bitstreamKeyFor(app.bitstreamNameId(), task, slot_id);
    std::uint64_t bytes = _fabric.effectiveBitstreamBytes(
        app.graph().task(task).bitstreamBytes);

    slot.beginConfigure(app.id(), task, key, _eq.now());
    _slotKernel[slot_id] = app.graph().task(task).kernel ? 1 : 0;
    if (_energy)
        _energy->slotBusy(slot_id, _eq.now());
    app.setTaskPhase(task, TaskPhase::Configuring);
    st.slot = slot_id;
    ++_stats.configuresIssued;
    trace(slot_id, app, task, TimelineEventKind::ConfigureBegin);

    if (!_buffers.allocate(app.id(), task, bufferBytes(app, task))) {
        warn("buffer pool exhausted for %s task %u (%llu in use)",
             app.spec().name().c_str(), task,
             static_cast<unsigned long long>(_buffers.inUse()));
    }
    countSample(_ctrBufferBytes, static_cast<double>(_buffers.inUse()));

    AppInstanceId app_id = app.id();
    if (_faults) {
        _configAttempts[slot_id] = 0;
        _itemAttempts[slot_id] = 0;
    }

    if (_cfg.allowReconfigSkip && slot.configuredBitstream() &&
        *slot.configuredBitstream() == key) {
        // The requested logic is already configured: skip SD + CAP.
        ++_stats.reconfigSkips;
        _eq.scheduleAfter(0, "reconfig_skip", [this, app_id, task, slot_id] {
            onReconfigDone(app_id, task, slot_id, 0);
        });
        return true;
    }

    SimTime cap_latency = classCapLatency(bytes, slot_id);
    issueConfigLoad(app_id, task, slot_id, bytes, cap_latency);
    return true;
}

SimTime
Hypervisor::classCapLatency(std::uint64_t bytes, SlotId slot_id) const
{
    // Heterogeneous boards scale the CAP occupancy by the slot class;
    // uniform boards take the nominal (byte-identical) computation.
    if (_fabric.heterogeneous()) {
        SimTime scaled = _fabric.classReconfigLatency(
            bytes, _fabric.slotClassOf(slot_id));
        if (scaled != kTimeNone)
            return scaled;
    }
    return _fabric.cap().reconfigLatency(bytes);
}

void
Hypervisor::issueConfigLoad(AppInstanceId app_id, TaskId task, SlotId slot_id,
                            std::uint64_t bytes, SimTime cap_latency)
{
    // The bitstream key is reconstructed from interned ids so the retry
    // path (which re-enters here after a backoff) stays string-free.
    AppInstance *app = findApp(app_id);
    if (!app)
        panic("issuing configuration for retired app %llu",
              static_cast<unsigned long long>(app_id));
    BitstreamKey key =
        _fabric.bitstreamKeyFor(app->bitstreamNameId(), task, slot_id);
    _fabric.store().ensureLoaded(
        key, bytes,
        [this, app_id, task, slot_id, bytes, cap_latency](bool ok) {
            if (!ok) {
                onConfigFailed(app_id, task, slot_id, bytes, cap_latency,
                               /*from_sd=*/true);
                return;
            }
            // Scaled slot classes occupy the CAP for their class
            // latency; kTimeNone keeps the nominal computation so
            // uniform boards stay byte-identical.
            SimTime latency_override =
                _fabric.heterogeneous()
                    ? _fabric.classReconfigLatency(
                          bytes, _fabric.slotClassOf(slot_id))
                    : kTimeNone;
            _fabric.cap().reconfigure(
                slot_id, bytes,
                [this, app_id, task, slot_id, bytes, cap_latency](bool ok2) {
                    if (!ok2) {
                        onConfigFailed(app_id, task, slot_id, bytes,
                                       cap_latency, /*from_sd=*/false);
                        return;
                    }
                    onReconfigDone(app_id, task, slot_id, cap_latency);
                },
                latency_override);
        });
}

void
Hypervisor::onConfigFailed(AppInstanceId app_id, TaskId task, SlotId slot_id,
                           std::uint64_t bytes, SimTime cap_latency,
                           bool from_sd)
{
    ++_stats.faultsInjected;
    countSample(_ctrFaults, static_cast<double>(_stats.faultsInjected));

    Slot &slot = _fabric.slot(slot_id);
    AppInstance *app = findApp(app_id);
    if (!app) {
        // The app was failed while this operation was in flight; the
        // placement is orphaned. Free the slot (buffers went with the
        // app).
        if (_energy)
            _energy->slotFree(slot_id, _eq.now(), nullptr);
        slot.release(_eq.now());
        requestPass(SchedEvent::ReconfigDone);
        return;
    }
    trace(slot_id, *app, task, TimelineEventKind::Fault);

    // SD read errors are a board-level storage problem, not evidence
    // against the slot; only CAP failures feed the quarantine tracker.
    bool quarantine_now = !from_sd && _health->recordFault(slot_id);
    int attempts = ++_configAttempts[slot_id];

    if (quarantine_now) {
        abortPlacement(*app, task, slot_id);
        quarantineSlot(slot_id);
        // The dissolved placement may have been a quiescing app's last
        // on-fabric task.
        maybeFinishQuiesce(*app);
        return;
    }
    if (!_retry->exhausted(attempts)) {
        ++_stats.faultRetries;
        countSample(_ctrFaultRetries,
                    static_cast<double>(_stats.faultRetries));
        _eq.scheduleAfter(
            _retry->backoff(attempts), "config_retry",
            [this, app_id, task, slot_id, bytes, cap_latency] {
                Slot &s = _fabric.slot(slot_id);
                // The placement may have dissolved during the backoff
                // (quarantine, requeue); only retry if we still own it.
                if (s.state() != SlotState::Configuring ||
                    s.app() != app_id || s.task() != task) {
                    return;
                }
                if (!findApp(app_id)) {
                    // App failed during the backoff; free the held slot.
                    if (_energy)
                        _energy->slotFree(slot_id, _eq.now(), nullptr);
                    s.release(_eq.now());
                    requestPass(SchedEvent::ReconfigDone);
                    return;
                }
                issueConfigLoad(app_id, task, slot_id, bytes, cap_latency);
            });
        return;
    }

    // Retries exhausted without crossing the quarantine threshold: give
    // the placement up; the scheduler will try again (likely elsewhere).
    abortPlacement(*app, task, slot_id);
    maybeFinishQuiesce(*app);
}

void
Hypervisor::abortPlacement(AppInstance &app, TaskId task, SlotId slot_id)
{
    app.setTaskPhase(task, TaskPhase::Idle);
    app.taskState(task).slot = kSlotNone;
    markReadyChanged(app);
    _buffers.release(app.id(), task);
    countSample(_ctrBufferBytes, static_cast<double>(_buffers.inUse()));
    trace(slot_id, app, task, TimelineEventKind::Release);
    if (_energy)
        _energy->slotFree(slot_id, _eq.now(), &app);
    _fabric.slot(slot_id).release(_eq.now());
    _pipeLastDone[slot_id] = kTimeNone;
    _pipePrimed[slot_id] = 0;
    // Per-slot retry state exists only with an installed injector; the
    // migration path reaches here fault-free.
    if (_faults)
        _configAttempts[slot_id] = 0;
    requestPass(SchedEvent::ReconfigDone);
}

void
Hypervisor::quarantineSlot(SlotId slot_id)
{
    Slot &slot = _fabric.slot(slot_id);
    if (!slot.isFree())
        panic("quarantining non-free slot %u", slot_id);
    slot.setQuarantined(true);
    _health->markQuarantined(slot_id);
    ++_stats.quarantineEvents;
    traceSlot(slot_id, TimelineEventKind::QuarantineBegin);
    countSample(_ctrQuarantined,
                static_cast<double>(_health->quarantinedCount()));
    scheduleProbe(slot_id);
    notifyCapacityChanged();
}

void
Hypervisor::scheduleProbe(SlotId slot_id)
{
    _eq.scheduleAfter(_faults->config().probeInterval, "slot_probe",
                      [this, slot_id] { probeSlot(slot_id); });
}

void
Hypervisor::probeSlot(SlotId slot_id)
{
    Slot &slot = _fabric.slot(slot_id);
    if (!slot.quarantined())
        return;
    ++_stats.probesIssued;
    if (!_faults->probeRepair(slot_id)) {
        // Still persistently faulted; keep probing. The probe chain also
        // keeps the event queue alive while capacity is reduced.
        scheduleProbe(slot_id);
        return;
    }
    slot.setQuarantined(false);
    _health->markHealthy(slot_id);
    traceSlot(slot_id, TimelineEventKind::QuarantineEnd);
    countSample(_ctrQuarantined,
                static_cast<double>(_health->quarantinedCount()));
    notifyCapacityChanged();
}

void
Hypervisor::notifyCapacityChanged()
{
    _scheduler.onCapacityChanged();
    requestPass(SchedEvent::CapacityChange);
    if (_capacityListener)
        _capacityListener();
}

void
Hypervisor::onReconfigDone(AppInstanceId app_id, TaskId task, SlotId slot_id,
                           SimTime reconfig_latency)
{
    AppInstance *app = findApp(app_id);
    if (!app) {
        if (!_faults)
            panic("reconfiguration completed for retired app %llu",
                  static_cast<unsigned long long>(app_id));
        // The app was failed by the resilience policy while this
        // reconfiguration was in flight: the landing is orphaned. Free
        // the slot (the failed app's buffers were already released).
        // The CAP energy was genuinely spent; it lands unattributed.
        if (_energy) {
            _energy->chargeReconfig(slot_id, _eq.now(), nullptr);
            _energy->slotFree(slot_id, _eq.now(), nullptr);
        }
        _fabric.slot(slot_id).release(_eq.now());
        requestPass(SchedEvent::ReconfigDone);
        return;
    }

    if (app->migrating()) {
        // The landing belongs to an app quiescing for migration (the
        // reconfiguration was in flight when beginMigration() ran). The
        // PR time was genuinely spent — charge it — then dissolve the
        // placement instead of going Resident.
        if (_faults) {
            _health->recordSuccess(slot_id);
            _configAttempts[slot_id] = 0;
        }
        app->addReconfigTime(reconfig_latency);
        app->noteReconfig();
        if (_energy)
            _energy->chargeReconfig(slot_id, _eq.now(), app);
        abortPlacement(*app, task, slot_id);
        maybeFinishQuiesce(*app);
        return;
    }

    Slot &slot = _fabric.slot(slot_id);
    slot.finishConfigure(_eq.now());
    if (_faults) {
        _health->recordSuccess(slot_id);
        _configAttempts[slot_id] = 0;
    }
    app->setTaskPhase(task, TaskPhase::Resident);
    app->addReconfigTime(reconfig_latency);
    app->noteReconfig();
    if (_energy)
        _energy->chargeReconfig(slot_id, _eq.now(), app);
    app->noteLaunch(_eq.now());
    trace(slot_id, *app, task, TimelineEventKind::ConfigureEnd);

    advanceSlot(slot_id);
    requestPass(SchedEvent::ReconfigDone);
}

void
Hypervisor::advanceSlot(SlotId slot_id)
{
    Slot &slot = _fabric.slot(slot_id);
    if (slot.state() != SlotState::Occupied || slot.executing())
        return;

    // An item-retry backoff holds the slot; the retry event resumes it.
    if (_faults && _slotHold[slot_id])
        return;

    if (slot.preemptRequested()) {
        doPreempt(slot_id);
        return;
    }

    AppInstance *app = findApp(slot.app());
    if (!app)
        panic("occupied slot %u references retired app", slot_id);
    TaskId task = slot.task();
    TaskRunState &st = app->taskState(task);

    if (st.itemsDone >= app->batch()) {
        completeTask(slot_id);
        return;
    }

    // Execution discipline: bulk gating waits for predecessors to finish
    // the whole batch; pipelining only needs the next item's inputs.
    // Applications whose partition cannot pipeline across batch items
    // are bulk-gated regardless of the scheduler.
    bool bulk =
        _scheduler.bulkItemGating() || !app->spec().pipelineAcrossBatch();
    bool can_start = bulk ? app->predsFullyDone(task)
                          : app->inputsReady(task, st.itemsDone);
    if (!can_start)
        return; // Waiting at an item boundary (preemptible state).

    startItem(slot_id);
}

void
Hypervisor::startItem(SlotId slot_id)
{
    Slot &slot = _fabric.slot(slot_id);
    AppInstance *app = findApp(slot.app());
    TaskId task = slot.task();
    TaskRunState &st = app->taskState(task);

    slot.beginItem(_eq.now());
    st.executing = true;
    trace(slot_id, *app, task, TimelineEventKind::ItemBegin);

    if (!_fabric.config().modelPsContention) {
        // Resume from a checkpointed partial item when one is saved.
        // (Checkpointed remainders resume unscaled: the saved remainder
        // already reflects the class the item originally started in.)
        SimTime dur;
        _pipePrimed[slot_id] = 0;
        if (st.itemRemaining != kTimeNone) {
            dur = st.itemRemaining;
        } else {
            const TaskSpec &tspec = app->graph().task(task);
            // Pipeline overlap: when the slot's previous item of this
            // task retired at this very timestamp the kernel pipeline
            // is still full, so the next item issues at the steady
            // interval instead of paying the full fill + drain
            // latency. A checkpointed resume is always cold (the
            // pipeline drained with the preemption).
            bool primed = tspec.kernel && st.itemsDone > 0 &&
                          _pipeLastDone[slot_id] == _eq.now();
            SimTime kernel_time = primed
                                      ? tspec.kernel->itemIssueInterval()
                                      : tspec.itemLatency;
            if (_fabric.heterogeneous()) {
                double speedup = _fabric.kernelSpeedup(
                    app->bitstreamNameId(), _fabric.slotClassOf(slot_id));
                if (speedup != 1.0) {
                    // Only the kernel component scales with the slot
                    // class; PS/NoC transfers are class-independent.
                    kernel_time = static_cast<SimTime>(std::llround(
                        static_cast<double>(kernel_time) / speedup));
                }
            }
            SimTime io = itemWallTime(*app, task) - tspec.itemLatency;
            // A primed item's transfers overlap the pipeline: the slot
            // is held for the longer of the issue interval and the
            // transfer time, never the sum.
            dur = primed ? std::max(kernel_time, io) : kernel_time + io;
            _pipePrimed[slot_id] = primed ? 1 : 0;
        }
        st.itemRemaining = kTimeNone;
        _itemStart[slot_id] = _eq.now();
        _itemDuration[slot_id] = dur;

        // Item-level fault injection (single-event execution path only:
        // the three-phase contention path has in-flight transfer state
        // that cannot be unwound, so items there never draw faults).
        ItemFault fault = _faults ? _faults->drawItemFault(slot_id)
                                  : ItemFault::None;
        if (fault == ItemFault::Crash) {
            _itemFault[slot_id] = fault;
            _itemEvent[slot_id] =
                _eq.scheduleAfter(dur, "item_crash", [this, slot_id] {
                    _itemEvent[slot_id] = kEventNone;
                    onItemFailed(slot_id, /*hang=*/false);
                });
            return;
        }
        if (fault == ItemFault::Hang) {
            _itemFault[slot_id] = fault;
            _itemEvent[slot_id] = _eq.scheduleAfter(
                _retry->config().opTimeout, "item_watchdog",
                [this, slot_id] {
                    _itemEvent[slot_id] = kEventNone;
                    onItemFailed(slot_id, /*hang=*/true);
                });
            return;
        }

        _itemEvent[slot_id] =
            _eq.scheduleAfter(dur, "item_done", [this, slot_id, dur] {
                _itemEvent[slot_id] = kEventNone;
                onItemDone(slot_id, dur);
            });
        return;
    }

    // Contention-modeled path: input transfer -> compute -> output
    // transfer, with PS transfers queueing on the shared data port. The
    // slot stays "executing" (non-preemptible) across all three phases.
    const TaskSpec &spec = app->graph().task(task);
    bool interior_in = !app->graph().predecessors(task).empty();
    bool interior_out = !app->graph().successors(task).empty();
    SimTime started = _eq.now();
    SimTime kernel = spec.itemLatency;
    if (_fabric.heterogeneous()) {
        double speedup = _fabric.kernelSpeedup(
            app->bitstreamNameId(), _fabric.slotClassOf(slot_id));
        if (speedup != 1.0) {
            kernel = static_cast<SimTime>(std::llround(
                static_cast<double>(kernel) / speedup));
        }
    }
    std::uint64_t out_bytes = spec.outputBytes;

    doTransfer(spec.inputBytes, interior_in,
               [this, slot_id, kernel, out_bytes, interior_out, started] {
                   _eq.scheduleAfter(
                       kernel, "kernel_done",
                       [this, slot_id, out_bytes, interior_out, started] {
                           doTransfer(out_bytes, interior_out,
                                      [this, slot_id, started] {
                                          onItemDone(slot_id,
                                                     _eq.now() - started);
                                      });
                       });
               });
}

void
Hypervisor::onItemDone(SlotId slot_id, SimTime item_duration)
{
    Slot &slot = _fabric.slot(slot_id);
    slot.finishItem(_eq.now());

    AppInstance *app = findApp(slot.app());
    if (!app)
        panic("item completed in slot %u for retired app", slot_id);
    TaskId task = slot.task();
    TaskRunState &st = app->taskState(task);
    st.executing = false;
    app->noteItemDone(task);
    // New output can make successors configurable.
    markReadyChanged(*app);
    if (_faults)
        _itemAttempts[slot_id] = 0;
    app->addRunTime(item_duration);
    if (_energy)
        _energy->chargeDynamic(slot_id, _eq.now(), item_duration, app);
    ++_stats.itemsExecuted;
    trace(slot_id, *app, task, TimelineEventKind::ItemEnd);
    countSample(_ctrItemsDone, static_cast<double>(_stats.itemsExecuted));

    // The kernel pipeline is full at this instant: if the synchronous
    // advanceSlot below starts the next item at this same timestamp it
    // issues at the steady interval (see startItem).
    _pipeLastDone[slot_id] = _eq.now();
    _pipePrimed[slot_id] = 0;

    // Newly available output may unblock resident successors waiting at
    // their own item boundaries.
    for (TaskId succ : app->graph().successors(task)) {
        const TaskRunState &sst = app->taskState(succ);
        if (sst.phase == TaskPhase::Resident && !sst.executing)
            advanceSlot(sst.slot);
    }

    advanceSlot(slot_id);
    requestPass(SchedEvent::ItemBoundary);
}

void
Hypervisor::onItemFailed(SlotId slot_id, bool hang)
{
    Slot &slot = _fabric.slot(slot_id);
    AppInstance *app = findApp(slot.app());
    if (!app)
        panic("item failed in slot %u for retired app", slot_id);
    TaskId task = slot.task();
    AppInstanceId app_id = app->id();
    TaskRunState &st = app->taskState(task);

    // The item produced nothing: no items-done credit, no run time. A
    // crash surfaces at the item's nominal end; a hang is detected by
    // the watchdog after opTimeout.
    slot.abortItem(_eq.now());
    st.executing = false;
    st.itemRemaining = kTimeNone;
    // The fault flushed the kernel pipeline: the retried item is cold.
    _pipeLastDone[slot_id] = kTimeNone;
    _pipePrimed[slot_id] = 0;
    _itemFault[slot_id] = ItemFault::None;
    ++_stats.faultsInjected;
    countSample(_ctrFaults, static_cast<double>(_stats.faultsInjected));
    trace(slot_id, *app, task, TimelineEventKind::Fault);
    (void)hang;

    int attempts = ++_itemAttempts[slot_id];
    if (!_retry->exhausted(attempts)) {
        ++_stats.faultRetries;
        countSample(_ctrFaultRetries,
                    static_cast<double>(_stats.faultRetries));
        app->noteItemRetry();
        // Hold the slot through the backoff so neither the successor
        // wake-up path nor a scheduling pass restarts the item early.
        _slotHold[slot_id] = 1;
        _eq.scheduleAfter(
            _retry->backoff(attempts), "item_retry",
            [this, slot_id, app_id, task] {
                _slotHold[slot_id] = 0;
                Slot &s = _fabric.slot(slot_id);
                // Only resume if the occupant survived the backoff (a
                // requeue/failure releases the slot meanwhile).
                if (s.state() != SlotState::Occupied || s.app() != app_id ||
                    s.task() != task) {
                    return;
                }
                advanceSlot(slot_id);
            });
        return;
    }

    _itemAttempts[slot_id] = 0;
    requeueOrFail(*app);
}

void
Hypervisor::vacateResidentTasks(AppInstance &app)
{
    const TaskGraph &g = app.graph();
    for (TaskId t = 0; t < g.numTasks(); ++t) {
        TaskRunState &st = app.taskState(t);
        if (st.phase != TaskPhase::Resident)
            continue;
        SlotId slot_id = st.slot;
        Slot &slot = _fabric.slot(slot_id);
        if (st.executing) {
            // Item faults only run on the single-event path, so every
            // executing item of a recoverable app has a pending event.
            if (_itemEvent[slot_id] != kEventNone) {
                _eq.cancel(_itemEvent[slot_id]);
                _itemEvent[slot_id] = kEventNone;
            }
            slot.abortItem(_eq.now());
            st.executing = false;
        }
        app.setTaskPhase(t, TaskPhase::Idle);
        st.slot = kSlotNone;
        st.itemRemaining = kTimeNone;
        _buffers.release(app.id(), t);
        trace(slot_id, app, t, TimelineEventKind::Release);
        slot.clearPreempt();
        if (_energy)
            _energy->slotFree(slot_id, _eq.now(), &app);
        slot.release(_eq.now());
        _pipeLastDone[slot_id] = kTimeNone;
        _pipePrimed[slot_id] = 0;
        _slotHold[slot_id] = 0;
        _itemFault[slot_id] = ItemFault::None;
        _itemAttempts[slot_id] = 0;
    }
    countSample(_ctrBufferBytes, static_cast<double>(_buffers.inUse()));
}

void
Hypervisor::requeueOrFail(AppInstance &app)
{
    if (app.requeues() >= _faults->config().appRequeueLimit) {
        failApp(app);
        return;
    }
    app.noteRequeue();
    ++_stats.appRequeues;
    requeueApp(app);
}

void
Hypervisor::requeueApp(AppInstance &app)
{
    vacateResidentTasks(app);
    // Configuring tasks keep their slots: the in-flight reconfiguration
    // lands normally and the task restarts from item 0.
    app.resetProgress();
    markReadyChanged(app);
    requestPass(SchedEvent::Arrival);
    // A migrating app whose last held slots were just vacated by the
    // requeue is now quiescent (tasks still Configuring keep it open;
    // their landings resolve it via onReconfigDone).
    maybeFinishQuiesce(app);
}

void
Hypervisor::failApp(AppInstance &app)
{
    app.markFailed();
    ++_stats.appsFailed;
    countSample(_ctrAppsFailed, static_cast<double>(_stats.appsFailed));
    vacateResidentTasks(app);
    // Configuring placements cannot be cancelled (the CAP/SD callbacks
    // are in flight); release their buffers now — the landing finds the
    // app retired and frees the slot gracefully.
    const TaskGraph &g = app.graph();
    for (TaskId t = 0; t < g.numTasks(); ++t) {
        if (app.taskState(t).phase == TaskPhase::Configuring)
            _buffers.release(app.id(), t);
    }
    countSample(_ctrBufferBytes, static_cast<double>(_buffers.inUse()));
    retire(app);
    requestPass(SchedEvent::AppDone);
}

bool
Hypervisor::preempt(SlotId slot_id)
{
    ++_actionCounter;
    Slot &slot = _fabric.slot(slot_id);
    if (slot.state() != SlotState::Occupied) {
        warn("preempt rejected: slot %u is %s", slot_id,
             ::nimblock::toString(slot.state()));
        return false;
    }
    ++_stats.preemptionsRequested;
    if (slot.waitingForNextItem()) {
        doPreempt(slot_id);
        return true;
    }

    // Fine-grained preemption extension: checkpoint the in-flight item
    // instead of waiting for the batch-item boundary. Requires the
    // single-event execution path (no PS-contention phases) and an item
    // actually in flight.
    // A faulted in-flight item (crash pending / hung) has no meaningful
    // progress to checkpoint; fall through to the boundary request and
    // let the retry machinery resolve the slot first.
    if (_cfg.allowMidItemPreemption &&
        !_fabric.config().modelPsContention &&
        _itemEvent[slot_id] != kEventNone &&
        (!_faults || _itemFault[slot_id] == ItemFault::None)) {
        _eq.cancel(_itemEvent[slot_id]);
        _itemEvent[slot_id] = kEventNone;

        AppInstance *app = findApp(slot.app());
        if (!app)
            panic("checkpointing slot %u of retired app", slot_id);
        TaskRunState &st = app->taskState(slot.task());
        SimTime elapsed = _eq.now() - _itemStart[slot_id];
        SimTime charged = elapsed;
        const KernelModelPtr &km = app->graph().task(slot.task()).kernel;
        if (km) {
            // Streaming kernels checkpoint at chunk boundaries: only
            // fully retired chunks count as saved progress; the chunk
            // in flight when the request landed re-executes on resume.
            // Keeps migration and §3.4 batch-preemption exact — the
            // restored remainder plus the charged progress always sums
            // to the item's planned duration.
            charged = km->chunkAlignedProgress(_itemDuration[slot_id],
                                               elapsed);
        }
        st.itemRemaining = _itemDuration[slot_id] - charged;
        app->addRunTime(charged); // Partial progress counts as run time.
        if (_energy)
            _energy->chargeDynamic(slot_id, _eq.now(), charged, app);
        ++_stats.checkpointPreemptions;

        // The slot stays uninterruptible while state is saved; the
        // preemption completes after the checkpoint cost.
        slot.requestPreempt();
        _eq.scheduleAfter(_cfg.checkpointLatency, "checkpoint_save",
                          [this, slot_id] {
                              Slot &s = _fabric.slot(slot_id);
                              s.abortItem(_eq.now());
                              AppInstance *owner = findApp(s.app());
                              if (!owner)
                                  panic("checkpointed app retired mid-save");
                              owner->taskState(s.task()).executing = false;
                              doPreempt(slot_id);
                          });
        return false;
    }

    slot.requestPreempt();
    return false;
}

void
Hypervisor::doPreempt(SlotId slot_id)
{
    ++_actionCounter;
    Slot &slot = _fabric.slot(slot_id);
    AppInstance *app = findApp(slot.app());
    if (!app)
        panic("preempting slot %u of retired app", slot_id);
    TaskId task = slot.task();
    TaskRunState &st = app->taskState(task);

    // Batch-preemption: save the batch state (items completed persist in
    // DDR buffers tracked by the hypervisor) and vacate the slot.
    app->setTaskPhase(task, TaskPhase::Idle);
    st.slot = kSlotNone;
    st.executing = false;
    ++st.preemptions;
    app->notePreemption();
    markReadyChanged(*app);
    _buffers.release(app->id(), task);
    countSample(_ctrBufferBytes, static_cast<double>(_buffers.inUse()));
    trace(slot_id, *app, task, TimelineEventKind::Preempt);
    if (_energy)
        _energy->slotFree(slot_id, _eq.now(), app);
    slot.release(_eq.now());
    _pipeLastDone[slot_id] = kTimeNone;
    _pipePrimed[slot_id] = 0;
    if (_faults) {
        _slotHold[slot_id] = 0;
        _itemFault[slot_id] = ItemFault::None;
        _itemAttempts[slot_id] = 0;
    }
    ++_stats.preemptionsHonored;
    requestPass(SchedEvent::PreemptDone);
    maybeFinishQuiesce(*app);
}

void
Hypervisor::completeTask(SlotId slot_id)
{
    Slot &slot = _fabric.slot(slot_id);
    AppInstance *app = findApp(slot.app());
    if (!app)
        panic("completing task in slot %u of retired app", slot_id);
    TaskId task = slot.task();
    app->setTaskPhase(task, TaskPhase::Done);
    app->taskState(task).slot = kSlotNone;
    app->noteTaskCompleted();
    _buffers.release(app->id(), task);
    countSample(_ctrBufferBytes, static_cast<double>(_buffers.inUse()));
    trace(slot_id, *app, task, TimelineEventKind::Release);
    if (_energy)
        _energy->slotFree(slot_id, _eq.now(), app);
    slot.release(_eq.now());
    _pipeLastDone[slot_id] = kTimeNone;
    _pipePrimed[slot_id] = 0;
    if (_faults) {
        _slotHold[slot_id] = 0;
        _itemFault[slot_id] = ItemFault::None;
        _itemAttempts[slot_id] = 0;
    }

    if (app->done()) {
        retire(*app);
        requestPass(SchedEvent::AppDone);
    } else {
        requestPass(SchedEvent::TaskDone);
    }
}

void
Hypervisor::retire(AppInstance &app)
{
    app.setRetireTime(_eq.now());

    if (_cfg.collectRecords) {
        AppRecord rec;
        rec.eventIndex = app.eventIndex();
        rec.appName = app.spec().name();
        rec.batch = app.batch();
        rec.priority = app.priorityValue();
        rec.arrival = app.arrival();
        rec.firstLaunch = app.firstLaunch();
        rec.retire = app.retireTime();
        rec.runTime = app.totalRunTime();
        rec.reconfigTime = app.totalReconfigTime();
        rec.reconfigs = app.reconfigCount();
        rec.preemptions = app.preemptionCount();
        rec.energyJoules = app.energyJoules();
        rec.failed = app.failed();
        rec.itemRetries = app.itemRetries();
        rec.requeues = app.requeues();
        rec.migrations = app.migrations();
        rec.migrationTime = app.migrationTime();
        _collector.record(std::move(rec));
    }
    if (_retireListener)
        _retireListener(app);

    // An app can retire mid-quiesce (failed by the resilience policy, or
    // its last items completed before the preemption landed). Fire the
    // pending notification so the migration engine's extraction attempt
    // runs, finds the app gone, and aborts the migration cleanly.
    if (app.migrating() && !app.migrateNotified()) {
        app.setMigrateNotified();
        if (_quiescent)
            _quiescent(app.id());
    }

    ++_stats.appsRetired;
    countSample(_ctrRetired, static_cast<double>(_stats.appsRetired));
    std::unique_ptr<AppInstance> owner = removeLive(app);
    if (_pool.size() < _cfg.appPoolSize)
        _pool.push_back(std::move(owner));
}

void
Hypervisor::maybeFinishQuiesce(AppInstance &app)
{
    if (!app.migrating() || app.migrateNotified())
        return;
    if (app.slotsUsed() != 0)
        return; // Still Configuring/Resident somewhere; keep waiting.
    app.setMigrateNotified();
    if (_quiescent)
        _quiescent(app.id());
}

bool
Hypervisor::beginMigration(AppInstanceId id)
{
    AppInstance *app = findApp(id);
    if (!app || app->migrating() || app->failed())
        return false;
    app->setMigrating(true);
    // Vacate at the next item boundary via the batch-preemption path
    // (§3.4): completed items persist in DDR and become the checkpoint.
    // Waiting slots vacate synchronously inside preempt(); executing
    // ones get a boundary request honored from onItemDone.
    const TaskGraph &g = app->graph();
    for (TaskId t = 0; t < g.numTasks(); ++t) {
        const TaskRunState &st = app->taskState(t);
        if (st.phase == TaskPhase::Resident && st.slot != kSlotNone)
            preempt(st.slot);
    }
    // Queued apps are quiescent immediately; tasks still Configuring
    // resolve through the migrating branch of onReconfigDone.
    maybeFinishQuiesce(*app);
    return true;
}

std::uint64_t
Hypervisor::checkpointBytes(const AppInstance &app) const
{
    // Fixed descriptor: task-graph progress, remaining-work metadata,
    // scheduler bookkeeping. Never-launched apps migrate at this cost.
    std::uint64_t bytes = 64 * 1024;
    const TaskGraph &g = app.graph();
    for (TaskId t = 0; t < g.numTasks(); ++t) {
        // Tasks with progress ship their materialized buffer windows.
        if (app.taskState(t).itemsDone > 0)
            bytes += bufferBytes(app, t);
    }
    return bytes;
}

SimTime
Hypervisor::remainingWorkEstimate(AppInstance &app)
{
    SimTime est = estimatedSingleSlotLatency(app);
    auto total_items = static_cast<std::int64_t>(app.batch()) *
                       static_cast<std::int64_t>(app.graph().numTasks());
    if (total_items <= 0)
        return 0;
    // itemsDoneTotal is a running counter, replacing an O(tasks)
    // itemsDone scan per estimate (called per live app per rebalance).
    return est * (total_items - app.itemsDoneTotal()) / total_items;
}

SimTime
Hypervisor::pendingWorkEstimate()
{
    SimTime total = 0;
    for (AppInstance *app : _live) {
        if (app->migrating() || app->failed())
            continue;
        total += remainingWorkEstimate(*app);
    }
    return total;
}

AppCheckpoint
Hypervisor::extractCheckpoint(AppInstanceId id)
{
    AppInstance *app = findApp(id);
    if (!app || !app->migrating())
        panic("extracting a checkpoint of a non-migrating app %llu",
              static_cast<unsigned long long>(id));

    AppCheckpoint ck = app->captureCheckpoint();
    ck.stateBytes = checkpointBytes(*app);
    ck.remainingWorkEstimate = remainingWorkEstimate(*app);

    ++_stats.appsMigratedOut;
    // Same removal as retire(), minus the AppRecord: the app is in
    // flight to its target board, not finished — the record is produced
    // by the board that retires it. The instance is destroyed, not
    // pooled.
    removeLive(*app);
    requestPass(SchedEvent::AppDone);
    return ck;
}

AppInstanceId
Hypervisor::admitCheckpoint(const AppCheckpoint &ck)
{
    auto inst = std::make_unique<AppInstance>(_nextAppId++, ck.spec,
                                              ck.batch, ck.priority,
                                              ck.arrival, ck.eventIndex);
    inst->restoreFromCheckpoint(ck);
    inst->noteMigration();
    ++_stats.appsMigratedIn;
    AppInstance &app = addLive(std::move(inst));
    AppInstanceId id = app.id();
    if (app.done()) {
        // Every item had completed when the checkpoint was cut (a task
        // can be preempted at itemsDone == batch before completeTask
        // runs); retire on arrival so the logical app still produces
        // exactly one record.
        retire(app);
        requestPass(SchedEvent::AppDone);
        return id;
    }
    requestPass(SchedEvent::Arrival);
    return id;
}

void
Hypervisor::requestPass(SchedEvent reason)
{
    // Every non-tick trigger reports a real state change (arrival,
    // completion, reconfiguration, capacity...); ticks carry no new
    // information of their own.
    if (reason != SchedEvent::Tick) {
        _stateDirty = true;
        ++_stateVersion;
    }
    if (_passPending) {
        // Coalescing: token-accumulating reasons (arrivals, completions,
        // ticks — §4.1) must not be masked by a later non-accumulating
        // trigger, or a new application could sit token-less until the
        // next interval.
        if (TokenPolicy::accumulatesOn(reason) ||
            !TokenPolicy::accumulatesOn(_pendingReason)) {
            _pendingReason = reason;
        }
        return;
    }
    _pendingReason = reason;
    _passPending = true;
    _eq.armTimerAfter(_passTimer, _cfg.passLatency);
}

void
Hypervisor::runPass(SchedEvent reason)
{
    if (_inPass)
        panic("scheduling pass re-entered");
    _inPass = true;
    ++_stats.schedulingPasses;
    countSample(_ctrPasses, static_cast<double>(_stats.schedulingPasses));
    if (_counters)
        _counters->mark(_markPass, _eq.now());

    // Pure-pass elision: a pure scheduler's pass is a function of
    // hypervisor/fabric state only, and with nothing changed since the
    // previous action-free pass it is a fixpoint — the body (and the
    // stall-rescue scan, equally state-determined) can be skipped. The
    // pass event itself already fired, so coalescing windows, event
    // counts and pass counts match a run that executes every pass body
    // (pinned by the eager goldens in tests/test_innerloop_identical.cc).
    if (reason == SchedEvent::Tick && !_stateDirty &&
        _scheduler.passIsPure()) {
        ++_stats.purePassesElided;
        _inPass = false;
        return;
    }

    std::uint64_t actions_before = _actionCounter;
    // Clear first so a synchronous requestPass from inside the body
    // (e.g. a preemption honored immediately) re-dirties and sticks.
    _stateDirty = false;
    // Serve the marks made since the previous executed pass began, in
    // liveApps() order. Marks made from here on, this pass's own
    // configure attempts included, go to the next pass. The swap leaves
    // _readyMarks empty: _readyChanged is cleared after every pass.
    _readyChanged.swap(_readyMarks);
    for (AppInstance *app : _readyChanged)
        app->setReadyMarked(false);
    std::sort(_readyChanged.begin(), _readyChanged.end(),
              [](const AppInstance *a, const AppInstance *b) {
                  return a->admitSeq() < b->admitSeq();
              });
    _scheduler.pass(reason);
    _readyChanged.clear();
    _inPass = false;

    rescueStallIfNeeded();
    if (_actionCounter != actions_before) {
        _stateDirty = true;
        ++_stateVersion;
    }
}

void
Hypervisor::rescueStallIfNeeded()
{
    // A free or configuring slot rules a stall out; the fabric's O(1)
    // tallies answer that before any slot scan.
    if (_fabric.freeSlotCount() > 0 || _fabric.configuringCount() > 0)
        return;
    if (_live.empty() || _passPending)
        return;
    if (_fabric.cap().busy() || _fabric.store().busy() ||
        _fabric.dataPort().busy())
        return;

    for (const Slot &s : _fabric.slots()) {
        // A slot held by an item-retry backoff has a pending event; it
        // is progress, not a stall.
        if (s.executing() || (_faults && _slotHold[s.id()]))
            return;
    }

    // Everything is occupied-but-waiting with no reconfiguration pending:
    // without intervention no event will ever fire again. Preempt the
    // waiting task latest in topological order so its producer can run.
    SlotId victim = kSlotNone;
    std::size_t victim_rank = 0;
    for (const Slot &s : _fabric.slots()) {
        if (!s.waitingForNextItem())
            continue;
        AppInstance *app = findApp(s.app());
        if (!app)
            continue;
        std::size_t rank = app->graph().topoRank(s.task());
        if (victim == kSlotNone || rank > victim_rank) {
            victim = s.id();
            victim_rank = rank;
        }
    }
    if (victim == kSlotNone)
        return;

    warn("stall rescue: preempting slot %u at t=%s", victim,
         simtime::toString(_eq.now()).c_str());
    ++_stats.stallRescues;
    doPreempt(victim);
}

void
Hypervisor::setGridContext(const GridContext *ctx)
{
    if (ctx && !ctx->matchesFabric(reconfigLatencyEstimate(),
                                   _fabric.config().psBandwidthBytesPerSec))
        ctx = nullptr;
    _gridCtx = ctx;
}

SimTime
Hypervisor::estimatedSingleSlotLatency(AppInstance &app)
{
    if (app.latencyEstimate() != kTimeNone)
        return app.latencyEstimate();
    // Probe the grid's pre-warmed table first: inside experiment grids
    // and benchmarks the estimate was computed before the run started,
    // so a hit is a lookup that allocates nothing. The private cache
    // holds only the estimates computed here.
    SimTime lat = _gridCtx ? _gridCtx->singleSlotLatency(
                                 app.specPtr().get(), app.batch())
                           : kTimeNone;
    if (lat == kTimeNone) {
        auto key = std::make_pair(app.specPtr(), app.batch());
        auto it = _latencyCache.find(key);
        if (it == _latencyCache.end()) {
            SimTime est = singleSlotLatency(
                app.graph(), app.batch(), reconfigLatencyEstimate(),
                _fabric.config().psBandwidthBytesPerSec);
            it = _latencyCache.emplace(key, est).first;
        }
        lat = it->second;
    }
    app.setLatencyEstimate(lat);
    return lat;
}

SimTime
Hypervisor::reconfigLatencyEstimate() const
{
    return _fabric.warmConfigureLatency(
        _fabric.config().defaultBitstreamBytes);
}

std::uint8_t
Hypervisor::slotPipelineFlags(SlotId slot_id)
{
    const Slot &slot = _fabric.slot(slot_id);
    if (slot.state() != SlotState::Occupied)
        return 0;
    std::uint8_t flags = _slotKernel[slot_id];
    if (_pipePrimed[slot_id] && slot.executing())
        flags |= 2;
    return flags;
}

} // namespace nimblock
