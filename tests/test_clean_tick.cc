/**
 * @file
 * Clean ticks: the passes of prema, nimblock and learned that run while
 * SchedulerOps::stateVersion() is unchanged since an action-free pass
 * skip their state-derived work. These tests pin the results of the
 * three schedulers where subsystems compose — faults, a heterogeneous
 * energy-metered board, pipelined library apps, PS contention, and
 * two-board migration with mid-item checkpoints — and rerun every
 * single-board config with stateVersion() hidden behind a forwarding
 * SchedulerOps that reports 0 ("untracked"), which must turn every fast
 * path off without changing a result. Each config asserts that the path
 * it names actually ran. The incremental ObservationBuilder is checked
 * byte for byte against full rebuilds, the fabric's free-slot tally
 * against a slot scan, and AppInstance's task-state tallies and the
 * hypervisor's per-slot pipeline flags against the task-state walks
 * they replace, before and after every pass of every extended
 * scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/benchmarks.hh"
#include "apps/registry.hh"
#include "cluster/cluster.hh"
#include "core/simulation.hh"
#include "energy/energy.hh"
#include "policy/observation.hh"
#include "resilience/fault_injector.hh"
#include "sched/factory.hh"
#include "sched/nimblock.hh"
#include "sched/prema.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"

namespace nimblock {
namespace {

/** FNV-1a over a run's observable outcome. */
class Digest
{
  public:
    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            _h ^= p[i];
            _h *= 1099511628211ull;
        }
    }

    template <class T>
    void
    add(const T &v)
    {
        static_assert(std::is_arithmetic_v<T>);
        bytes(&v, sizeof(v));
    }

    void
    add(const std::string &s)
    {
        add(s.size());
        bytes(s.data(), s.size());
    }

    void
    add(const AppRecord &r)
    {
        add(r.eventIndex);
        add(r.appName);
        add(r.batch);
        add(r.priority);
        add(r.arrival);
        add(r.firstLaunch);
        add(r.retire);
        add(r.runTime);
        add(r.reconfigTime);
        add(r.reconfigs);
        add(r.preemptions);
        add(r.energyJoules);
        add(r.failed);
        add(r.itemRetries);
        add(r.requeues);
        add(r.migrations);
        add(r.migrationTime);
    }

    void
    add(const HypervisorStats &s)
    {
        for (std::uint64_t v :
             {s.appsAdmitted, s.appsRetired, s.configuresIssued,
              s.reconfigSkips, s.preemptionsRequested, s.preemptionsHonored,
              s.checkpointPreemptions, s.schedulingPasses,
              s.purePassesElided, s.stallRescues, s.itemsExecuted,
              s.faultsInjected, s.faultRetries, s.quarantineEvents,
              s.probesIssued, s.appsFailed, s.appRequeues,
              s.appsMigratedOut, s.appsMigratedIn})
            add(v);
    }

    void
    add(const RunResult &r)
    {
        for (const AppRecord &rec : r.records)
            add(rec);
        add(r.hypervisorStats);
        add(r.nimblockStats.reallocations);
        add(r.nimblockStats.preemptionsIssued);
        add(r.nimblockStats.delayedPreemptions);
        add(r.nimblockStats.opportunisticConfigures);
        add(r.makespan);
        add(r.eventsFired);
        add(r.energy.totalJoules);
        add(r.energy.dynamicJoules);
        add(r.energy.reconfigJoules);
        add(r.energy.busyStaticJoules);
        add(r.energy.idleStaticJoules);
    }

    void
    add(const ClusterRunResult &r)
    {
        for (const AppRecord &rec : r.records)
            add(rec);
        for (int b : r.boardOfEvent)
            add(b);
        for (const HypervisorStats &s : r.boardStats)
            add(s);
        add(r.makespan);
        add(r.migration.requested);
        add(r.migration.completed);
        add(r.migration.aborted);
        add(r.migration.bytesMoved);
        add(r.migration.transferTime);
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 1469598103934665603ull;
};

template <class T>
std::uint64_t
digestOf(const T &result)
{
    Digest d;
    d.add(result);
    return d.value();
}

/**
 * A factory-made scheduler behind a forwarding SchedulerOps. With
 * @p untracked the forwarder's stateVersion() returns 0, the documented
 * "untracked" value: every fast path keyed on the version must stay off.
 */
class ForwardingScheduler : public Scheduler
{
  public:
    ForwardingScheduler(std::unique_ptr<Scheduler> inner, bool untracked)
        : Scheduler(inner->name()), _inner(std::move(inner)), _ops(*this),
          _untracked(untracked)
    {
        _inner->attach(_ops);
    }

    void pass(SchedEvent reason) override { _inner->pass(reason); }
    void onAppAdmitted(AppInstance &app) override
    {
        _inner->onAppAdmitted(app);
    }
    void onAppRetired(AppInstance &app) override
    {
        _inner->onAppRetired(app);
    }
    void onCapacityChanged() override { _inner->onCapacityChanged(); }
    bool bulkItemGating() const override { return _inner->bulkItemGating(); }
    void reserveApps(std::size_t n) override { _inner->reserveApps(n); }
    bool passIsPure() const override { return _inner->passIsPure(); }

    Scheduler &inner() { return *_inner; }

  private:
    class Ops : public SchedulerOps
    {
      public:
        explicit Ops(ForwardingScheduler &outer) : _outer(outer) {}

        SimTime now() const override { return hyp().now(); }
        Fabric &fabric() override { return hyp().fabric(); }
        const std::vector<AppInstance *> &
        liveApps() override
        {
            return hyp().liveApps();
        }
        std::uint64_t
        liveAppsEpoch() const override
        {
            return hyp().liveAppsEpoch();
        }
        const std::vector<AppInstance *> &
        readyChangedApps() override
        {
            return hyp().readyChangedApps();
        }
        AppInstance *
        findApp(AppInstanceId id) override
        {
            return hyp().findApp(id);
        }
        bool
        configure(AppInstance &app, TaskId task, SlotId slot) override
        {
            return hyp().configure(app, task, slot);
        }
        bool preempt(SlotId slot) override { return hyp().preempt(slot); }
        SimTime
        estimatedSingleSlotLatency(AppInstance &app) override
        {
            return hyp().estimatedSingleSlotLatency(app);
        }
        SimTime
        reconfigLatencyEstimate() const override
        {
            return hyp().reconfigLatencyEstimate();
        }
        const GridContext *
        gridContext() const override
        {
            return hyp().gridContext();
        }
        std::uint64_t
        stateVersion() const override
        {
            return _outer._untracked ? 0 : hyp().stateVersion();
        }
        double
        energyJoulesTotal() const override
        {
            return hyp().energyJoulesTotal();
        }
        std::uint8_t
        slotPipelineFlags(SlotId slot) override
        {
            return hyp().slotPipelineFlags(slot);
        }

      private:
        SchedulerOps &hyp() const { return _outer.ops(); }
        ForwardingScheduler &_outer;
    };

    std::unique_ptr<Scheduler> _inner;
    Ops _ops;
    bool _untracked;
};

/** Outcome of a composed single-board run. */
struct BoardRun
{
    RunResult result;
    std::uint64_t dataPortTransfers = 0;
};

/**
 * Simulation::run composed from the same public parts in the same order,
 * with @p scheduler in place of the factory-made one (nimblockStats are
 * left to the caller). The run ends early once @p abandon (when given)
 * reads true: a probe that already failed may have left the board
 * unable to finish.
 */
BoardRun
runOnBoard(Scheduler &scheduler, const SystemConfig &cfg,
           const AppRegistry &registry, const EventSequence &seq,
           const bool *abandon = nullptr)
{
    EventQueue eq(cfg.eventQueue);
    Fabric fabric(eq, cfg.fabric);
    MetricsCollector collector;
    Hypervisor hyp(eq, fabric, scheduler, collector, cfg.hypervisor);
    for (const WorkloadEvent &e : seq.events)
        fabric.internBitstreamName(e.appName);

    std::unique_ptr<FaultInjector> injector;
    if (cfg.faults.enabled) {
        injector =
            std::make_unique<FaultInjector>(cfg.faults, fabric.numSlots());
        hyp.setFaultInjector(injector.get());
    }
    std::unique_ptr<EnergyModel> energy;
    if (cfg.energy.enabled) {
        energy = std::make_unique<EnergyModel>(fabric);
        hyp.setEnergyModel(energy.get());
    }

    for (const WorkloadEvent &e : seq.events) {
        AppSpecPtr spec = registry.get(e.appName);
        eq.schedule(e.arrival, "arrival",
                    [&hyp, spec, batch = e.batch, priority = e.priority,
                     index = e.index] {
                        hyp.submit(spec, batch, priority, index);
                    });
    }
    hyp.start();
    bool stopped = false;
    while (!eq.empty()) {
        if (!eq.step() || (abandon && *abandon))
            break;
        if (!stopped && collector.count() == seq.events.size()) {
            hyp.stop();
            stopped = true;
        }
    }
    EXPECT_EQ(collector.count(), seq.events.size());

    BoardRun out;
    RunResult &r = out.result;
    r.records = collector.records();
    r.hypervisorStats = hyp.stats();
    r.eventsFired = eq.firedCount();
    for (const AppRecord &rec : r.records)
        r.makespan = std::max(r.makespan, rec.retire);
    if (energy) {
        energy->finalize(r.makespan);
        r.energy = energy->report();
    }
    out.dataPortTransfers = fabric.dataPort().completedCount();
    return out;
}

/** runOnBoard with @p cfg's scheduler behind an untracked forwarder. */
BoardRun
runUntracked(const SystemConfig &cfg, const AppRegistry &registry,
             const EventSequence &seq)
{
    ForwardingScheduler scheduler(makeScheduler(cfg.scheduler),
                                  /*untracked=*/true);
    BoardRun out = runOnBoard(scheduler, cfg, registry, seq);
    if (auto *nb = dynamic_cast<NimblockScheduler *>(&scheduler.inner()))
        out.result.nimblockStats = nb->nimblockStats();
    return out;
}

EventSequence
mixedSequence(const std::string &name, std::vector<std::string> pool,
              int events, std::uint64_t seed)
{
    GeneratorConfig gen;
    gen.numEvents = events;
    gen.appPool = std::move(pool);
    gen.minDelayMs = 50;
    gen.maxDelayMs = 250;
    gen.maxBatch = 6;
    return generateSequence(name, gen, Rng(seed));
}

/** Two-class board: slots 0..4 "big", 5..9 "small". */
FabricConfig
twoClassFabric()
{
    FabricConfig fc;
    SlotClassConfig big;
    big.name = "big";
    big.reconfigScale = 1.5;
    big.staticPowerWatts = 1.5;
    big.dynamicPowerWatts = 6.0;
    big.reconfigEnergyJoules = 0.8;
    SlotClassConfig small;
    small.name = "small";
    small.staticPowerWatts = 0.5;
    small.dynamicPowerWatts = 2.0;
    small.reconfigEnergyJoules = 0.3;
    fc.slotClasses = {big, small};
    fc.boardLayout.assign(fc.numSlots, "small");
    for (std::size_t s = 0; s < fc.numSlots / 2; ++s)
        fc.boardLayout[s] = "big";
    fc.kernelRules.push_back({"lenet", "big", true, 1.5});
    fc.kernelRules.push_back({"3d_rendering", "small", true, 0.75});
    return fc;
}

/**
 * Retries, quarantine (each quarantine aborts the placement it
 * interrupts) and whole-app requeues. Item crashes and hangs flip slots
 * from executing to waiting with no version bump, and the long backoffs
 * hold them there across ticks, where nimblock's victim search and the
 * snapshot's slot rows see them.
 */
FaultConfig
heldRetryFaults()
{
    FaultConfig fc;
    fc.enabled = true;
    fc.seed = 5;
    fc.reconfigFailProb = 0.2;
    fc.persistentFaultFrac = 0.3;
    fc.quarantineAfter = 2;
    fc.probeRepairProb = 0.6;
    fc.sdReadErrorProb = 0.03;
    fc.itemCrashProb = 0.15;
    fc.itemHangProb = 0.02;
    fc.retry.maxAttempts = 2;
    fc.retry.baseBackoff = simtime::ms(300);
    fc.retry.maxBackoff = simtime::sec(1);
    fc.appRequeueLimit = 2;
    return fc;
}

/** One single-board config of the composed-subsystem matrix. */
struct BoardCase
{
    const char *name;
    SystemConfig cfg;
    AppRegistry registry;
    EventSequence seq;
};

std::vector<BoardCase>
boardCases()
{
    std::vector<BoardCase> cases;
    const std::vector<std::string> paper = {"lenet", "image_compression",
                                            "optical_flow", "alexnet"};

    BoardCase faults{"faults", {}, standardRegistry(),
                     mixedSequence("faults", paper, 14, 77)};
    faults.cfg.faults = heldRetryFaults();
    cases.push_back(faults);

    BoardCase hetero{"hetero_energy", {}, standardRegistry(),
                     mixedSequence("hetero", {"lenet", "image_compression",
                                              "3d_rendering", "alexnet"},
                                   14, 7)};
    hetero.cfg.fabric = twoClassFabric();
    hetero.cfg.energy.enabled = true;
    cases.push_back(hetero);

    BoardCase piped{"pipelined_library", {}, extendedRegistry(),
                    mixedSequence("piped", {"hash_tree", "video_transcode",
                                            "transformer_block", "lenet"},
                                  12, 19)};
    cases.push_back(piped);

    BoardCase contention{"ps_contention", {}, standardRegistry(),
                         mixedSequence("contention", paper, 14, 23)};
    contention.cfg.fabric.modelPsContention = true;
    cases.push_back(contention);

    return cases;
}

/** The clean-tick schedulers. */
const char *const kSchedulers[] = {"prema", "nimblock", "learned"};

struct Golden
{
    const char *config;
    const char *sched;
    std::uint64_t digest;
};

// Recorded before prema, nimblock and learned skipped state-derived work
// on clean ticks.
const Golden kBoardGoldens[] = {
    {"faults", "prema", 0x9f69badaf1eeef15ull},
    {"faults", "nimblock", 0xcccc892180a37ffbull},
    {"faults", "learned", 0xd794e1d37e5ee899ull},
    {"hetero_energy", "prema", 0x5a4390619cafc17dull},
    {"hetero_energy", "nimblock", 0x136a105025908c26ull},
    {"hetero_energy", "learned", 0xf32e7d937fea09a1ull},
    {"pipelined_library", "prema", 0x8a9a53745e9d6062ull},
    {"pipelined_library", "nimblock", 0xb4c53dd40d62cedfull},
    {"pipelined_library", "learned", 0x14b0a2ae20850568ull},
    {"ps_contention", "prema", 0xbb44e8abc38a76faull},
    {"ps_contention", "nimblock", 0xd97bbffde7953b8aull},
    {"ps_contention", "learned", 0x17ea3a3622902571ull},
};

std::uint64_t
goldenFor(const Golden *table, std::size_t n, const std::string &config,
          const std::string &sched)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (config == table[i].config && sched == table[i].sched)
            return table[i].digest;
    }
    ADD_FAILURE() << "no golden for " << config << "/" << sched;
    return 0;
}

class CleanTickTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

TEST_F(CleanTickTest, ComposedBoardsMatchGoldensTrackedAndUntracked)
{
    for (const BoardCase &c : boardCases()) {
        for (const char *sched : kSchedulers) {
            SCOPED_TRACE(std::string(c.name) + "/" + sched);
            SystemConfig cfg = c.cfg;
            cfg.scheduler = sched;
            const std::uint64_t golden =
                goldenFor(kBoardGoldens, std::size(kBoardGoldens), c.name,
                          sched);

            RunResult tracked = Simulation(cfg, c.registry).run(c.seq);
            EXPECT_EQ(digestOf(tracked), golden);

            BoardRun untracked = runUntracked(cfg, c.registry, c.seq);
            EXPECT_EQ(digestOf(untracked.result), golden);

            const HypervisorStats &hs = tracked.hypervisorStats;
            const std::string name = c.name;
            if (name == "faults") {
                EXPECT_GT(hs.faultsInjected, 0u);
                EXPECT_GT(hs.faultRetries, 0u);
                EXPECT_GT(hs.quarantineEvents, 0u);
                EXPECT_GT(hs.appRequeues, 0u);
            } else if (name == "hetero_energy") {
                EXPECT_GT(tracked.energy.totalJoules, 0.0);
            } else if (name == "pipelined_library") {
                std::size_t library_apps = 0;
                for (const AppRecord &rec : tracked.records)
                    library_apps += rec.appName != "lenet";
                EXPECT_GT(library_apps, 0u);
            } else if (name == "ps_contention") {
                EXPECT_GT(untracked.dataPortTransfers, 0u);
            }
        }
    }
}

/** A two-board cluster with work-stealing migration. */
ClusterConfig
migratingCluster(const std::string &sched)
{
    ClusterConfig cfg;
    cfg.numBoards = 2;
    cfg.board.scheduler = sched;
    cfg.dispatch = DispatchPolicy::RoundRobin;
    cfg.migration.enabled = true;
    cfg.migration.rebalance.policy = RebalancePolicy::WorkStealing;
    cfg.migration.rebalance.interval = simtime::ms(200);
    return cfg;
}

/**
 * Wide alexnets at even indices so round-robin dispatch stacks them on
 * board 0 while board 1 drains and steals.
 */
EventSequence
skewSequence(int count, const char *narrow)
{
    EventSequence seq;
    seq.name = "skew";
    for (int i = 0; i < count; ++i) {
        WorkloadEvent e;
        e.index = i;
        e.appName = i % 2 == 0 ? "alexnet" : narrow;
        e.batch = i % 2 == 0 ? 2 : 4;
        e.priority = Priority::Medium;
        e.arrival = simtime::ms(50) * i;
        seq.events.push_back(std::move(e));
    }
    return seq;
}

// Recorded with kBoardGoldens, from the same parent build.
const Golden kClusterGoldens[] = {
    {"migration", "prema", 0x5092a5b531c065c4ull},
    {"migration", "nimblock", 0x6b0077eadf795806ull},
    {"migration", "learned", 0x88d5c8ca2581fbb7ull},
    {"mid_item", "prema", 0xb7a4bd5500f1ff5full},
    {"mid_item", "nimblock", 0x4f2b93e6819c79d5ull},
    {"mid_item", "learned", 0xffaa190f87ebe9efull},
};

TEST_F(CleanTickTest, MigratingClustersMatchGoldens)
{
    for (const char *sched : kSchedulers) {
        SCOPED_TRACE(sched);
        ClusterConfig cfg = migratingCluster(sched);
        ClusterRunResult r = ClusterSimulation(cfg, standardRegistry())
                                 .run(skewSequence(10, "lenet"));
        EXPECT_EQ(digestOf(r), goldenFor(kClusterGoldens,
                                         std::size(kClusterGoldens),
                                         "migration", sched));
        std::uint64_t migrated_in = 0;
        for (const HypervisorStats &s : r.boardStats)
            migrated_in += s.appsMigratedIn;
        EXPECT_GT(migrated_in, 0u);

        // Migration quiesce is the production caller of preempt() on an
        // executing slot, so it drives the mid-item checkpoint path;
        // streaming library apps checkpoint at chunk boundaries.
        ClusterConfig mid = cfg;
        mid.board.hypervisor.allowMidItemPreemption = true;
        ClusterRunResult m = ClusterSimulation(mid, extendedRegistry())
                                 .run(skewSequence(10, "hash_tree"));
        EXPECT_EQ(digestOf(m), goldenFor(kClusterGoldens,
                                         std::size(kClusterGoldens),
                                         "mid_item", sched));
        std::uint64_t checkpoints = 0;
        for (const HypervisorStats &s : m.boardStats)
            checkpoints += s.checkpointPreemptions;
        EXPECT_GT(checkpoints, 0u);
    }
}

// ---------------------------------------------------------------------
// Snapshot refresh: the incremental ObservationBuilder against a full
// rebuild on every pass.

/**
 * @p Base bracketed by snapshot checks against a builder invalidated
 * before each build; all 7,728 bytes must match. Two incremental
 * builders take turns at the clean-tick refresh:
 *   - _atStart builds once per pass, before the scheduler runs, so its
 *     refresh must pick up the tokens, candidacy and allocations the
 *     previous pass moved without a version bump;
 *   - _afterActions also rebuilds after the scheduler's own configure()
 *     and preempt() calls, which leave the version where it was, so it
 *     is invalidated first, as learned does after an action.
 */
template <class Base>
class SnapshotProbe : public Base
{
  public:
    using Base::Base;

    void
    pass(SchedEvent reason) override
    {
        check(_atStart);
        check(_afterActions);
        const std::size_t free_before = this->ops().fabric().freeSlotCount();
        Base::pass(reason);
        inPassActions += this->ops().fabric().freeSlotCount() != free_before;
        _afterActions.invalidate();
        check(_afterActions);
    }

    std::uint64_t
    refreshes() const
    {
        return _atStart.refreshes() + _afterActions.refreshes();
    }

    std::uint64_t builds = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t inPassActions = 0;

  private:
    void
    check(ObservationBuilder &incremental)
    {
        SchedulerOps &ops = this->ops();
        const SchedObservation &inc = incremental.build(ops, ops.liveApps());
        _full.invalidate();
        const SchedObservation &full = _full.build(ops, ops.liveApps());
        ++builds;
        mismatches += std::memcmp(&inc, &full, sizeof(inc)) != 0;
    }

    ObservationBuilder _atStart;
    ObservationBuilder _afterActions;
    ObservationBuilder _full;
};

template <class Probe>
void
runProbe(const char *label, const SystemConfig &cfg,
         const EventSequence &seq)
{
    SCOPED_TRACE(label);
    Probe probe;
    BoardRun run = runOnBoard(probe, cfg, standardRegistry(), seq);
    EXPECT_EQ(run.result.records.size(), seq.events.size());
    EXPECT_GT(probe.builds, 0u);
    EXPECT_EQ(probe.mismatches, 0u);
    EXPECT_GT(probe.refreshes(), 0u) << "the refresh path never ran";
    EXPECT_GT(probe.inPassActions, 0u);
    if (cfg.faults.enabled) {
        EXPECT_GT(run.result.hypervisorStats.faultRetries, 0u);
    }
    if (cfg.energy.enabled) {
        EXPECT_GT(run.result.energy.totalJoules, 0.0);
    }
}

TEST_F(CleanTickTest, IncrementalSnapshotsMatchFullRebuilds)
{
    const std::vector<std::string> pool = {"lenet", "image_compression",
                                           "optical_flow", "3d_rendering"};
    EventSequence seq = mixedSequence("probe", pool, 14, 31);

    SystemConfig energy;
    energy.fabric = twoClassFabric();
    energy.energy.enabled = true;
    SystemConfig faults;
    faults.faults = heldRetryFaults();

    for (EventQueueImpl impl : {EventQueueImpl::Heap, EventQueueImpl::Wheel}) {
        energy.eventQueue = impl;
        faults.eventQueue = impl;
        // PREMA moves tokens and candidacy on ticks; Nimblock also moves
        // slot allocations.
        runProbe<SnapshotProbe<PremaScheduler>>("prema/energy", energy, seq);
        runProbe<SnapshotProbe<PremaScheduler>>("prema/faults", faults, seq);
        runProbe<SnapshotProbe<NimblockScheduler>>("nimblock/energy", energy,
                                                   seq);
        runProbe<SnapshotProbe<NimblockScheduler>>("nimblock/faults", faults,
                                                   seq);
    }
}

// ---------------------------------------------------------------------
// AppInstance's task-state tallies against the walks they replace.

/**
 * Each task-state tally of @p app against a walk over its task states:
 * empty when all agree, else the first disagreement.
 */
std::string
tallyMismatch(const AppInstance &app)
{
    const TaskGraph &g = app.graph();
    std::size_t held = 0;
    int idle_pending = 0;
    int bulk_ready = 0;
    for (TaskId t = 0; t < g.numTasks(); ++t) {
        const TaskRunState &st = app.taskState(t);
        int pending = 0;
        for (TaskId p : g.predecessors(t))
            pending += app.taskState(p).itemsDone < app.batch();
        if (st.predsPending != pending)
            return "predsPending of task " + std::to_string(t);
        if (app.predsFullyDone(t) != (pending == 0))
            return "predsFullyDone of task " + std::to_string(t);
        held += st.phase == TaskPhase::Configuring ||
                st.phase == TaskPhase::Resident;
        if (st.phase == TaskPhase::Idle && st.itemsDone < app.batch()) {
            ++idle_pending;
            bulk_ready += pending == 0;
        }
    }
    if (app.slotsUsed() != held)
        return "slotsUsed";
    if (app.idlePendingTasks() != idle_pending)
        return "idlePendingTasks";
    if (app.bulkReadyTasks() != bulk_ready)
        return "bulkReadyTasks";
    return {};
}

/**
 * The first-hit queries of @p app against the fronts of the list
 * queries: empty when all agree, else the first disagreement.
 */
std::string
firstHitMismatch(const AppInstance &app)
{
    for (bool pipelined : {false, true}) {
        std::vector<TaskId> all = app.configurableTasks(pipelined);
        if (app.firstConfigurableTask(pipelined) !=
            (all.empty() ? kTaskNone : all.front()))
            return pipelined ? "firstConfigurableTask(pipelined)"
                             : "firstConfigurableTask(bulk)";
    }
    std::vector<TaskId> prefetch = app.prefetchableTasks();
    if (app.firstPrefetchableTask() !=
        (prefetch.empty() ? kTaskNone : prefetch.front()))
        return "firstPrefetchableTask";
    return {};
}

/**
 * A factory-made scheduler bracketed by tally checks: before and after
 * every pass, each live app's tallies and first-hit queries must equal
 * their walks, and each slot's pipeline flags the occupant's kernel
 * model looked up through findApp() and the graph.
 */
class TallyProbe : public ForwardingScheduler
{
  public:
    explicit TallyProbe(std::unique_ptr<Scheduler> inner)
        : ForwardingScheduler(std::move(inner), /*untracked=*/false)
    {
    }

    void
    pass(SchedEvent reason) override
    {
        check();
        ForwardingScheduler::pass(reason);
        check();
    }

    void
    onAppAdmitted(AppInstance &app) override
    {
        // Pooling recycles an instance together with its id; without
        // it ids are never reissued.
        recycled += !_seenIds.insert(app.id()).second;
        ForwardingScheduler::onAppAdmitted(app);
    }

    std::uint64_t checks = 0;
    std::uint64_t recycled = 0;
    std::uint64_t pipelinedSlots = 0;
    bool failed = false;

  private:
    void
    mismatch(const std::string &what)
    {
        if (!failed)
            ADD_FAILURE() << "first mismatch at t=" << ops().now() << ": "
                          << what;
        failed = true;
    }

    void
    check()
    {
        SchedulerOps &o = ops();
        ++checks;
        for (AppInstance *app : o.liveApps()) {
            std::string bad = tallyMismatch(*app);
            if (bad.empty())
                bad = firstHitMismatch(*app);
            if (!bad.empty())
                mismatch(app->toString() + " " + bad);
        }
        for (const Slot &s : o.fabric().slots()) {
            const std::uint8_t flags = o.slotPipelineFlags(s.id());
            std::uint8_t kernel = 0;
            if (s.state() == SlotState::Occupied) {
                const AppInstance *app = o.findApp(s.app());
                kernel = app && app->graph().task(s.task()).kernel ? 1 : 0;
            }
            pipelinedSlots += kernel;
            if ((flags & 1) != kernel || (flags & ~3) != 0 ||
                ((flags & 2) && !s.executing()))
                mismatch("slot " + std::to_string(s.id()) + " flags " +
                         std::to_string(flags));
        }
    }

    std::set<AppInstanceId> _seenIds;
};

TEST_F(CleanTickTest, TalliesMatchWalksAroundEveryPass)
{
    std::vector<BoardCase> cases = boardCases();
    BoardCase pool{"app_pool", {}, extendedRegistry(),
                   mixedSequence("pool", {"lenet", "hash_tree",
                                          "image_compression", "alexnet"},
                                 16, 41)};
    pool.cfg.hypervisor.appPoolSize = 4;
    cases.push_back(pool);

    std::uint64_t requeues = 0;
    std::uint64_t recycled = 0;
    std::uint64_t pipelined_slots = 0;
    for (EventQueueImpl impl : {EventQueueImpl::Heap, EventQueueImpl::Wheel}) {
        for (BoardCase &c : cases) {
            c.cfg.eventQueue = impl;
            for (const std::string &sched : extendedSchedulers()) {
                SCOPED_TRACE(std::string(c.name) + "/" + sched +
                             (impl == EventQueueImpl::Heap ? "/heap"
                                                           : "/wheel"));
                TallyProbe probe(makeScheduler(sched));
                BoardRun run = runOnBoard(probe, c.cfg, c.registry, c.seq,
                                          &probe.failed);
                EXPECT_GT(probe.checks, 0u);
                if (probe.failed)
                    return;
                requeues += run.result.hypervisorStats.appRequeues;
                recycled += probe.recycled;
                pipelined_slots += probe.pipelinedSlots;
            }
        }
    }
    EXPECT_GT(requeues, 0u) << "no requeue recounted the tallies";
    EXPECT_GT(recycled, 0u) << "no pooled instance was recycled";
    EXPECT_GT(pipelined_slots, 0u) << "no slot held a kernel-model task";
}

AppInstance
makeLenet(int batch)
{
    return AppInstance(1, benchmarks::lenet(), batch, Priority::Medium, 0, 0);
}

/** Complete @p n batch items of task @p t through the tally setter. */
void
finishItems(AppInstance &app, TaskId t, int n)
{
    for (int i = 0; i < n; ++i)
        app.noteItemDone(t);
}

TEST(AppInstanceTally, FreshAndTransitionsMatchWalk)
{
    AppInstance app = makeLenet(2);
    EXPECT_EQ(tallyMismatch(app), "");
    EXPECT_EQ(app.idlePendingTasks(), 3);
    EXPECT_EQ(app.bulkReadyTasks(), 1);
    app.setTaskPhase(0, TaskPhase::Configuring);
    EXPECT_EQ(tallyMismatch(app), "");
    app.setTaskPhase(0, TaskPhase::Resident);
    app.noteItemDone(0);
    EXPECT_EQ(tallyMismatch(app), "");
    EXPECT_EQ(app.bulkReadyTasks(), 0);
    app.noteItemDone(0);
    EXPECT_EQ(tallyMismatch(app), "");
    EXPECT_EQ(app.bulkReadyTasks(), 1); // Task 1's inputs are complete.
    EXPECT_EQ(app.itemsDoneTotal(), 2);
    app.setTaskPhase(0, TaskPhase::Done);
    EXPECT_EQ(tallyMismatch(app), "");
}

TEST(AppInstanceTally, PreemptedAtFullBatchIsNotPending)
{
    AppInstance app = makeLenet(2);
    app.setTaskPhase(0, TaskPhase::Configuring);
    app.setTaskPhase(0, TaskPhase::Resident);
    finishItems(app, 0, 2);
    // Preempted at the item boundary before the hypervisor completed it.
    app.setTaskPhase(0, TaskPhase::Idle);
    EXPECT_EQ(tallyMismatch(app), "");
    EXPECT_EQ(app.idlePendingTasks(), 2);
    EXPECT_EQ(app.bulkReadyTasks(), 1);
    EXPECT_EQ(app.firstPrefetchableTask(), 1u);
    EXPECT_EQ(app.firstConfigurableTask(false), 1u);
    EXPECT_EQ(app.slotsUsed(), 0u);
}

TEST(AppInstanceTally, ResetProgressKeepsConfiguringTasks)
{
    AppInstance app = makeLenet(2);
    app.setTaskPhase(0, TaskPhase::Configuring);
    app.setTaskPhase(0, TaskPhase::Resident);
    finishItems(app, 0, 2);
    app.setTaskPhase(0, TaskPhase::Done);
    app.noteTaskCompleted();
    app.setTaskPhase(1, TaskPhase::Configuring);
    EXPECT_EQ(tallyMismatch(app), "");

    app.resetProgress();
    EXPECT_EQ(tallyMismatch(app), "");
    EXPECT_EQ(app.taskState(1).phase, TaskPhase::Configuring);
    EXPECT_EQ(app.slotsUsed(), 1u);
    EXPECT_EQ(app.idlePendingTasks(), 2); // Tasks 0 and 2.
    EXPECT_EQ(app.bulkReadyTasks(), 1);   // Task 0 only.
    EXPECT_EQ(app.taskState(1).predsPending, 1);
    EXPECT_EQ(app.itemsDoneTotal(), 0);
    EXPECT_EQ(app.tasksCompleted(), 0);
}

TEST(AppInstanceTally, RestoreFromCheckpointWithDoneAndPartialTasks)
{
    AppCheckpoint ck = makeLenet(4).captureCheckpoint();
    ck.itemsDone = {4, 2, 0};
    AppInstance app = makeLenet(4);
    app.restoreFromCheckpoint(ck);
    EXPECT_EQ(tallyMismatch(app), "");
    EXPECT_EQ(firstHitMismatch(app), "");
    EXPECT_EQ(app.taskState(0).phase, TaskPhase::Done);
    EXPECT_EQ(app.tasksCompleted(), 1);
    EXPECT_EQ(app.itemsDoneTotal(), 6);
    EXPECT_EQ(app.idlePendingTasks(), 2);
    EXPECT_EQ(app.bulkReadyTasks(), 1);
    EXPECT_EQ(app.firstConfigurableTask(false), 1u);
    EXPECT_EQ(app.taskState(2).predsPending, 1);
}

TEST(AppInstanceTally, ReinitFromAlexnetToLenet)
{
    AppInstance app(1, benchmarks::alexnet(), 2, Priority::Low, 0, 0);
    ASSERT_EQ(app.graph().numTasks(), 38u);
    const TaskId conv1 = app.graph().topoOrder().front();
    app.setTaskPhase(conv1, TaskPhase::Configuring);
    app.setTaskPhase(conv1, TaskPhase::Resident);
    finishItems(app, conv1, 2);
    EXPECT_EQ(tallyMismatch(app), "");
    EXPECT_EQ(app.bulkReadyTasks(), 4); // The conv2 stage.

    app.reinit(benchmarks::lenet(), 3, Priority::High, simtime::ms(1), 5);
    ASSERT_EQ(app.graph().numTasks(), 3u);
    EXPECT_EQ(tallyMismatch(app), "");
    EXPECT_EQ(firstHitMismatch(app), "");
    EXPECT_EQ(app.slotsUsed(), 0u);
    EXPECT_EQ(app.idlePendingTasks(), 3);
    EXPECT_EQ(app.bulkReadyTasks(), 1);
    EXPECT_EQ(app.itemsDoneTotal(), 0);
}

TEST(AppInstanceTally, FirstHitQueriesEqualListFronts)
{
    // Walk an alexnet through its batch one task at a time.
    AppInstance app(1, benchmarks::alexnet(), 2, Priority::Low, 0, 0);
    EXPECT_EQ(firstHitMismatch(app), "");
    for (TaskId t : app.graph().topoOrder()) {
        SCOPED_TRACE(t);
        app.setTaskPhase(t, TaskPhase::Configuring);
        EXPECT_EQ(firstHitMismatch(app), "");
        app.setTaskPhase(t, TaskPhase::Resident);
        app.noteItemDone(t);
        EXPECT_EQ(firstHitMismatch(app), "");
        EXPECT_EQ(tallyMismatch(app), "");
        app.noteItemDone(t);
        app.setTaskPhase(t, TaskPhase::Done);
        EXPECT_EQ(firstHitMismatch(app), "");
        EXPECT_EQ(tallyMismatch(app), "");
    }
    EXPECT_EQ(app.firstPrefetchableTask(), kTaskNone);

    // A migrating app offers nothing configurable; prefetch ignores the
    // latch, as the list query does.
    AppInstance mig = makeLenet(4);
    mig.setMigrating(true);
    EXPECT_EQ(mig.firstConfigurableTask(false), kTaskNone);
    EXPECT_EQ(mig.firstConfigurableTask(true), kTaskNone);
    EXPECT_EQ(mig.firstPrefetchableTask(), 0u);
    EXPECT_EQ(firstHitMismatch(mig), "");
}

#if defined(__x86_64__) && defined(__GLIBCXX__)
TEST(AppInstanceTally, TalliesFitThePadding)
{
    // The tallies sit in what was padding (x86-64, libstdc++).
    EXPECT_EQ(sizeof(TaskRunState), 32u);
    EXPECT_EQ(sizeof(AppInstance), 232u);
}
#endif

// ---------------------------------------------------------------------
// The fabric's free-slot tally against a slot scan.

TEST(FreeSlotCounter, MatchesSlotScanAfterEveryTransition)
{
    EventQueue eq;
    FabricConfig fc;
    fc.numSlots = 3;
    Fabric fabric(eq, fc);
    auto check = [&fabric](const char *step) {
        std::size_t free = 0;
        std::int32_t configuring = 0;
        for (const Slot &s : fabric.slots()) {
            free += s.isFree();
            configuring += s.state() == SlotState::Configuring;
        }
        EXPECT_EQ(fabric.freeSlotCount(), free) << step;
        EXPECT_EQ(fabric.configuringCount(), configuring) << step;
    };
    check("initial");
    EXPECT_EQ(fabric.freeSlotCount(), 3u);

    Slot &a = fabric.slot(0);
    Slot &b = fabric.slot(1);
    a.beginConfigure(1, 0, fabric.bitstreamKeyFor("app", 0, 0), 0);
    check("configure");
    a.finishConfigure(10);
    check("finish configure");
    a.beginItem(10);
    check("begin item");
    a.finishItem(20);
    check("finish item");
    a.release(30);
    check("release occupied");

    b.setQuarantined(true);
    check("quarantine free slot");
    b.setQuarantined(true);
    check("quarantine again");
    b.setQuarantined(false);
    check("unquarantine");

    // An aborted placement: configuring straight back to free.
    b.beginConfigure(2, 1, fabric.bitstreamKeyFor("app", 1, 1), 40);
    check("configure");
    b.release(50);
    check("release configuring");

    // Quarantine toggled on an occupied slot, which then frees into it.
    a.beginConfigure(3, 0, fabric.bitstreamKeyFor("app", 0, 0), 60);
    a.setQuarantined(true);
    check("quarantine configuring slot");
    a.release(70);
    check("release into quarantine");
    a.setQuarantined(false);
    check("unquarantine");
    EXPECT_EQ(fabric.freeSlotCount(), 3u);
}

} // namespace
} // namespace nimblock
