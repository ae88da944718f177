/**
 * @file
 * Clean ticks: the passes of prema, nimblock and learned that run while
 * SchedulerOps::stateVersion() is unchanged since an action-free pass
 * skip their state-derived work. These tests pin the results of the
 * three schedulers where subsystems compose — faults, a heterogeneous
 * energy-metered board, pipelined library apps, PS contention, more
 * live apps than a snapshot has rows, and two-board migration with
 * mid-item checkpoints — and rerun every
 * single-board config with stateVersion() hidden behind a forwarding
 * SchedulerOps that reports 0 ("untracked"), which must turn every fast
 * path off without changing a result. Each config asserts that the path
 * it names actually ran. The learned policy's features, computed from
 * live state, are checked byte for byte against the snapshot-based
 * reference they replace, the fabric's free-slot tally against a slot
 * scan, and AppInstance's task-state tallies and the
 * hypervisor's per-slot pipeline flags against the task-state walks
 * they replace, before and after every pass of every extended
 * scheduler. The pure schedulers' settled runs of clean ticks are
 * compared with an eager reference that runs every tick pass body.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/benchmarks.hh"
#include "apps/registry.hh"
#include "cluster/cluster.hh"
#include "core/simulation.hh"
#include "energy/energy.hh"
#include "policy/learned.hh"
#include "policy/observation.hh"
#include "resilience/fault_injector.hh"
#include "sched/factory.hh"
#include "sched/nimblock.hh"
#include "sim/logging.hh"
#include "taskgraph/builder.hh"
#include "workload/generator.hh"
#include "workload/scenario.hh"

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
    EventQueue eq;
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

    // More live apps than a snapshot has rows: learned draws candidates
    // and preemption victims from the first kMaxAppObs live apps and
    // counts every live app in its reward.
    GeneratorConfig deep;
    deep.numEvents = 110;
    deep.appPool = {"hash_tree", "video_transcode", "transformer_block"};
    deep.minDelayMs = 5;
    deep.maxDelayMs = 15;
    deep.maxBatch = 6;
    BoardCase deep_live{"deep_live", {}, extendedRegistry(),
                        generateSequence("deep", deep, Rng(53))};
    cases.push_back(deep_live);

    // 70 transformer blocks that fit only class-a slots, then 40 hash
    // trees that fit only class-b ones: the work-conserving guard places
    // hash trees from outside the observed window, and held retries
    // leave their slots waiting at item boundaries, where learned must
    // not draw them as preemption victims.
    deep.numEvents = 70;
    deep.appPool = {"transformer_block"};
    deep.minDelayMs = 2;
    deep.maxDelayMs = 6;
    BoardCase deep_hetero{"deep_hetero", {}, extendedRegistry(),
                          generateSequence("wide", deep, Rng(61))};
    deep.numEvents = 40;
    deep.appPool = {"hash_tree"};
    const SimTime last = deep_hetero.seq.events.back().arrival;
    for (WorkloadEvent e : generateSequence("tail", deep, Rng(62)).events) {
        e.index += 70;
        e.arrival += last;
        deep_hetero.seq.events.push_back(e);
    }
    FabricConfig &fc = deep_hetero.cfg.fabric;
    fc.slotClasses.resize(2);
    fc.slotClasses[0].name = "a";
    fc.slotClasses[1].name = "b";
    fc.boardLayout.assign(fc.numSlots, "b");
    std::fill_n(fc.boardLayout.begin(), fc.numSlots / 2, "a");
    fc.kernelRules.push_back({"transformer_block", "b", false, 1.0});
    fc.kernelRules.push_back({"hash_tree", "a", false, 1.0});
    deep_hetero.cfg.faults = heldRetryFaults();
    cases.push_back(deep_hetero);

    return cases;
}

/** Most apps live at once in @p records (a retirement frees its place
    before an arrival at the same instant takes one). */
std::size_t
maxLive(const std::vector<AppRecord> &records)
{
    std::vector<std::pair<SimTime, int>> steps;
    for (const AppRecord &r : records) {
        steps.emplace_back(r.arrival, 1);
        steps.emplace_back(r.retire, -1);
    }
    std::sort(steps.begin(), steps.end());
    std::size_t live = 0;
    std::size_t most = 0;
    for (const auto &[when, delta] : steps) {
        (void)when;
        live += delta;
        most = std::max(most, live);
    }
    return most;
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
    // Recorded before learned featurized its candidates from live state.
    {"deep_live", "prema", 0x4d7e301de60c0db3ull},
    {"deep_live", "nimblock", 0x0c70b079cbd00d03ull},
    {"deep_live", "learned", 0x96ace9797212b4adull},
    {"deep_hetero", "prema", 0xcfc0ce7ab2129232ull},
    {"deep_hetero", "nimblock", 0x4e60b7bd07a1b624ull},
    {"deep_hetero", "learned", 0xc910eb069fba7418ull},
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
            } else if (name == "deep_live") {
                EXPECT_GT(maxLive(tracked.records), kMaxAppObs);
            } else if (name == "deep_hetero") {
                EXPECT_GT(maxLive(tracked.records), kMaxAppObs);
                EXPECT_GT(hs.faultRetries, 0u);
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
// Learned features from live state against the snapshot they replace.

/**
 * The learned policy's feature vector as it was computed from a
 * SchedObservation, with @p app the action target's row: the reference
 * for LearnedScheduler::featurize(), which reads live state.
 */
void
snapshotFeaturize(std::array<double, kPolicyFeatures> &phi,
                  const SchedObservation &obs, const SchedAction &action,
                  const AppObs *app)
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

/**
 * LearnedScheduler checked before and after every pass: the features of
 * NoOp, of a Configure of each observed app (into slot i mod numSlots,
 * so every slot class shows) and of a Preempt of each occupied slot
 * must equal snapshotFeaturize()'s over a fresh snapshot, byte for
 * byte. An occupant outside the snapshot's rows is compared as an
 * app-less Preempt.
 */
class FeatureProbe : public LearnedScheduler
{
  public:
    void
    pass(SchedEvent reason) override
    {
        check();
        LearnedScheduler::pass(reason);
        check();
    }

    std::uint64_t compared = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t preempts = 0;
    std::uint64_t classed = 0;  //!< Vectors with a nonzero slot class.
    std::uint64_t energized = 0; //!< Vectors with energy pressure.
    std::size_t deepest = 0;     //!< Most live apps at a check.

  private:
    void
    check()
    {
        SchedulerOps &o = ops();
        const SchedObservation &obs = _reference.build(o, o.liveApps());
        const Board board = readBoard();
        deepest = std::max<std::size_t>(deepest, obs.liveApps);
        compare(obs, board, SchedAction::noOp(), nullptr);
        for (std::uint32_t i = 0; i < obs.numApps; ++i) {
            SchedAction a{};
            a.app = obs.apps[i].id;
            a.kind = static_cast<std::uint32_t>(SchedActionKind::Configure);
            a.task = 0;
            a.slot = i % obs.numSlots;
            compare(obs, board, a, &obs.apps[i]);
        }
        for (std::uint32_t i = 0; i < obs.numSlots && i < kMaxSlotObs; ++i) {
            const SlotObs &s = obs.slots[i];
            if (s.state != static_cast<std::uint8_t>(SlotState::Occupied))
                continue;
            SchedAction a{};
            a.app = s.app;
            a.kind = static_cast<std::uint32_t>(SchedActionKind::Preempt);
            a.task = kTaskNone;
            a.slot = s.id;
            const AppObs *row = nullptr;
            for (std::uint32_t j = 0; j < obs.numApps && !row; ++j) {
                if (obs.apps[j].id == s.app)
                    row = &obs.apps[j];
            }
            compare(obs, board, a, row);
            ++preempts;
        }
    }

    void
    compare(const SchedObservation &obs, const Board &board,
            const SchedAction &action, const AppObs *row)
    {
        std::array<double, kPolicyFeatures> live;
        std::array<double, kPolicyFeatures> reference;
        featurize(live, board, action,
                  row ? ops().findApp(row->id) : nullptr);
        snapshotFeaturize(reference, obs, action, row);
        ++compared;
        classed += reference[13] != 0.0;
        energized += reference[14] != 0.0;
        if (std::memcmp(live.data(), reference.data(), sizeof(live)) != 0) {
            if (mismatches == 0) {
                std::size_t f = 0;
                while (f + 1 < kPolicyFeatures && live[f] == reference[f])
                    ++f;
                ADD_FAILURE() << "first mismatch at t=" << obs.now
                              << ", action kind " << action.kind
                              << ", feature " << f << ": " << live[f]
                              << " vs " << reference[f];
            }
            ++mismatches;
        }
    }

    ObservationBuilder _reference;
};

TEST_F(CleanTickTest, LearnedFeaturesMatchTheSnapshotReference)
{
    for (const BoardCase &c : boardCases()) {
        const std::string name = c.name;
        SCOPED_TRACE(name);
        FeatureProbe probe;
        BoardRun run = runOnBoard(probe, c.cfg, c.registry, c.seq);
        EXPECT_EQ(run.result.records.size(), c.seq.events.size());
        EXPECT_GT(probe.compared, 0u);
        EXPECT_EQ(probe.mismatches, 0u);
        EXPECT_GT(probe.preempts, 0u);
        if (name == "hetero_energy") {
            EXPECT_GT(probe.classed, 0u);
            EXPECT_GT(probe.energized, 0u);
        } else if (name == "faults") {
            EXPECT_GT(run.result.hypervisorStats.faultRetries, 0u);
        } else if (name == "deep_live") {
            EXPECT_GT(probe.deepest, kMaxAppObs);
        }
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
    for (const BoardCase &c : cases) {
        for (const std::string &sched : extendedSchedulers()) {
            // fcfs stalls on this board: 15 of 110 apps retire and then
            // nothing is placed (Simulation::run reports the stall as
            // fatal; this loop has no horizon), so it is left out until
            // the stall is mended.
            if (std::string(c.name) == "deep_hetero" && sched == "fcfs")
                continue;
            SCOPED_TRACE(std::string(c.name) + "/" + sched);
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

// ---------------------------------------------------------------------
// Settled clean ticks: after an elided tick pass, a pure scheduler's run
// of clean ticks is settled in one step. Each run is compared with an
// eager reference that runs every tick pass body, so that nothing is
// elided or settled there.

/**
 * A factory-made scheduler whose passes never count as pure: the
 * hypervisor runs every tick pass body and settles nothing.
 */
class EagerScheduler : public ForwardingScheduler
{
  public:
    explicit EagerScheduler(std::unique_ptr<Scheduler> inner)
        : ForwardingScheduler(std::move(inner), /*untracked=*/false)
    {
    }

    bool passIsPure() const override { return false; }
};

/** The pure schedulers, whose clean ticks settle. */
const char *const kPureSchedulers[] = {"baseline", "fcfs", "rr", "static",
                                       "themis"};

/** One workload of the settle matrix, run under every pure scheduler. */
struct SettleCase
{
    SystemConfig cfg;
    AppRegistry registry;
    EventSequence seq;
    std::size_t boards = 1;        //!< Boards on one queue; arrivals alternate.
    std::vector<SimTime> horizons; //!< run(h) slices before stepping.
    bool counters = false;         //!< CounterRegistry on board 0.
    SimTime freePeriod = 0;        //!< Period of a free PeriodicEvent.
    SimTime freeStart = 0;         //!< When the free timer starts.
    bool settles = true;           //!< Whether some step must settle.
    bool bareSteps = false;        //!< step(), not step(kTimeMax).
};

/** The queue seen after a run(h) slice or by the free timer. */
struct QueuePoint
{
    SimTime now;
    std::uint64_t fired;
    std::uint64_t passes; //!< schedulingPasses over every board.

    bool
    operator==(const QueuePoint &o) const
    {
        return now == o.now && fired == o.fired && passes == o.passes;
    }
};

std::ostream &
operator<<(std::ostream &os, const QueuePoint &p)
{
    return os << "{t=" << p.now << " fired=" << p.fired
              << " passes=" << p.passes << "}";
}

/** What one run of a SettleCase is compared and checked on. */
struct SettleRun
{
    std::string label; //!< Scheduler.
    /** Records, makespan, eventsFired and every HypervisorStats field
        but purePassesElided, of every board. */
    std::uint64_t digest = 0;
    std::vector<QueuePoint> points;
    std::vector<CounterSample> samples;
    std::vector<MarkEvent> marks;
    std::uint64_t elided = 0;
    std::uint64_t steps = 0;   //!< Own step() calls after the slices.
    std::uint64_t stepped = 0; //!< firedCount() growth over those steps.
    /** Item completions on a tick (T_j), or on its pass (T_j + L),
        whose clean stretch settled up to the tick before. */
    std::uint64_t settledIntoTick = 0;
    std::uint64_t settledIntoPass = 0;
    /** Free-timer fires one nanosecond after a settle ended. */
    std::uint64_t freeAtBound = 0;
};

/**
 * Simulation::run's loop over @p c's boards on one queue, composed from
 * the public parts, with every factory-made scheduler wrapped in an
 * EagerScheduler when @p eager.
 */
SettleRun
runSettle(const SettleCase &c, bool eager)
{
    struct Board
    {
        std::unique_ptr<Fabric> fabric;
        std::unique_ptr<Scheduler> scheduler;
        MetricsCollector collector;
        std::unique_ptr<Hypervisor> hyp;
    };
    const SystemConfig &cfg = c.cfg;
    EventQueue eq;
    std::vector<Board> boards(c.boards);
    for (Board &b : boards) {
        b.fabric = std::make_unique<Fabric>(eq, cfg.fabric);
        b.scheduler = makeScheduler(cfg.scheduler);
        if (eager) {
            b.scheduler =
                std::make_unique<EagerScheduler>(std::move(b.scheduler));
        }
        b.hyp = std::make_unique<Hypervisor>(eq, *b.fabric, *b.scheduler,
                                             b.collector, cfg.hypervisor);
        for (const WorkloadEvent &e : c.seq.events)
            b.fabric->internBitstreamName(e.appName);
    }
    CounterRegistry counters;
    if (c.counters)
        boards[0].hyp->setCounters(&counters);
    for (const WorkloadEvent &e : c.seq.events) {
        Hypervisor &hyp =
            *boards[static_cast<std::size_t>(e.index) % c.boards].hyp;
        eq.schedule(e.arrival, "arrival",
                    [&hyp, spec = c.registry.get(e.appName), batch = e.batch,
                     priority = e.priority, index = e.index] {
                        hyp.submit(spec, batch, priority, index);
                    });
    }

    SettleRun out;
    auto sum = [&boards](std::uint64_t HypervisorStats::*field) {
        std::uint64_t n = 0;
        for (const Board &b : boards)
            n += b.hyp->stats().*field;
        return n;
    };
    auto point = [&] {
        return QueuePoint{eq.now(), eq.firedCount(),
                          sum(&HypervisorStats::schedulingPasses)};
    };
    SimTime last_settle = kTimeNone; // now() after the last settling step
    std::unique_ptr<PeriodicEvent> free;
    if (c.freePeriod > 0) {
        free = std::make_unique<PeriodicEvent>(
            eq, c.freePeriod, "free_timer", [&] {
                out.points.push_back(point());
                out.freeAtBound += last_settle == eq.now() - 1;
            });
        eq.schedule(c.freeStart, "free_start", [&free] { free->start(); });
    }
    for (Board &b : boards)
        b.hyp->start();

    bool stopped = false;
    auto stop_when_done = [&] {
        std::size_t retired = 0;
        for (const Board &b : boards)
            retired += b.collector.count();
        if (stopped || retired != c.seq.events.size())
            return;
        for (Board &b : boards)
            b.hyp->stop();
        if (free)
            free->stop();
        stopped = true;
    };
    for (SimTime h : c.horizons) {
        eq.run(h);
        out.points.push_back(point());
        stop_when_done();
    }

    const SimTime interval = cfg.hypervisor.schedInterval;
    const SimTime latency = cfg.hypervisor.passLatency;
    const std::uint64_t fired_before = eq.firedCount();
    std::uint64_t items = sum(&HypervisorStats::itemsExecuted);
    while (!eq.empty()) {
        const std::uint64_t before = eq.firedCount();
        if (!(c.bareSteps ? eq.step() : eq.step(kTimeMax)))
            break;
        ++out.steps;
        const std::uint64_t now_items = sum(&HypervisorStats::itemsExecuted);
        if (now_items != items) {
            // An item at T_j or at T_j + L after a settle that ended at
            // T_(j-1) + L, the last pass before tick T_j.
            const SimTime tick_before = (eq.now() - 1) / interval * interval;
            const SimTime pass_before =
                eq.now() % interval == 0 ? tick_before + latency
                                         : tick_before - interval + latency;
            const bool settled = last_settle == pass_before;
            out.settledIntoTick += settled && eq.now() % interval == 0;
            out.settledIntoPass += settled && eq.now() % interval == latency;
        }
        items = now_items;
        if (eq.firedCount() - before > 1)
            last_settle = eq.now();
        stop_when_done();
    }
    out.stepped = eq.firedCount() - fired_before;
    EXPECT_TRUE(stopped) << "not every app retired";

    Digest d;
    SimTime makespan = 0;
    for (const Board &b : boards) {
        for (const AppRecord &rec : b.collector.records()) {
            d.add(rec);
            makespan = std::max(makespan, rec.retire);
        }
        HypervisorStats stats = b.hyp->stats();
        out.elided += stats.purePassesElided;
        stats.purePassesElided = 0;
        d.add(stats);
    }
    d.add(makespan);
    d.add(eq.firedCount());
    out.digest = d.value();
    out.samples = counters.samples();
    out.marks = counters.marks();
    return out;
}

/** Position of the first differing sample or mark, or -1. */
template <class T>
long
firstCounterMismatch(const std::vector<T> &a, const std::vector<T> &b)
{
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        if (i >= a.size() || i >= b.size() || a[i].time != b[i].time ||
            a[i].id != b[i].id)
            return static_cast<long>(i);
        if constexpr (std::is_same_v<T, CounterSample>) {
            if (a[i].value != b[i].value)
                return static_cast<long>(i);
        }
    }
    return -1;
}

/**
 * @p c under every pure scheduler, each against its eager reference.
 * Returns the settled runs.
 */
std::vector<SettleRun>
expectSettledMatchesEager(SettleCase c)
{
    std::vector<SettleRun> runs;
    for (const char *sched : kPureSchedulers) {
        SCOPED_TRACE(sched);
        c.cfg.scheduler = sched;
        const SettleRun eager = runSettle(c, /*eager=*/true);
        SettleRun run = runSettle(c, /*eager=*/false);
        run.label = sched;
        EXPECT_EQ(run.digest, eager.digest);
        EXPECT_EQ(run.points, eager.points);
        EXPECT_EQ(firstCounterMismatch(run.samples, eager.samples), -1);
        EXPECT_EQ(firstCounterMismatch(run.marks, eager.marks), -1);
        EXPECT_EQ(run.samples.empty(), !c.counters);
        EXPECT_EQ(eager.elided, 0u);
        EXPECT_EQ(eager.steps, eager.stepped);
        if (c.settles) {
            EXPECT_LT(run.steps, run.stepped) << "nothing settled";
            EXPECT_GT(run.elided, 0u);
        } else {
            EXPECT_EQ(run.steps, run.stepped) << "a run settled";
        }
        runs.push_back(std::move(run));
    }
    return runs;
}

constexpr SimTime kInterval = simtime::ms(400);
constexpr SimTime kLatency = simtime::us(100);

/**
 * Apps with zero-byte transfers and bitstreams whose item latencies are
 * multiples of the 100 us pass latency. A cold configure started at a
 * pass (T + 100 us) takes the 200 us SD load plus the 300 us CAP
 * overhead, so "aligned" completes its item on the tenth tick after and
 * "offset" on that tick's pass, each after nine clean ticks.
 */
AppRegistry
settleRegistry()
{
    auto task = [](const char *name, SimTime latency) {
        TaskSpec t;
        t.name = name;
        t.itemLatency = latency;
        return t;
    };
    AppRegistry reg;

    GraphBuilder aligned;
    aligned.addTask(task("aligned", 10 * kInterval - simtime::us(600)));
    reg.add(std::make_shared<AppSpec>("aligned", "A", aligned.build()));

    GraphBuilder offset;
    offset.addTask(task("offset", 10 * kInterval - simtime::us(500)));
    reg.add(std::make_shared<AppSpec>("offset", "O", offset.build()));

    GraphBuilder pulse;
    pulse.addTask(task("pulse", kLatency));
    reg.add(std::make_shared<AppSpec>("pulse", "P", pulse.build()));

    GraphBuilder chain;
    TaskId c0 = chain.addTask(task("c0", simtime::us(300)));
    TaskId c1 = chain.addTask(task("c1", simtime::us(1200)));
    TaskId c2 = chain.addTask(task("c2", kLatency));
    chain.edge(c0, c1).edge(c1, c2);
    reg.add(std::make_shared<AppSpec>("chain", "C", chain.build()));
    return reg;
}

/**
 * A long app on the tick grid, a short one a tick later, then quiet
 * until the next pair thirteen ticks on: each long app's item completes
 * after a clean stretch. Mirrored: every app arrives twice at once.
 */
EventSequence
settleSequence(bool mirrored = false)
{
    const char *const apps[] = {"aligned", "pulse", "offset", "chain"};
    const Priority prios[] = {Priority::Low, Priority::Medium,
                              Priority::High};
    EventSequence seq;
    seq.name = "settle";
    for (int i = 0; i < 12; ++i) {
        const int k = mirrored ? i / 2 : i;
        WorkloadEvent e;
        e.index = i;
        e.appName = apps[k % 4];
        e.batch = k % 2 == 0 ? 1 : 1 + k % 3;
        e.priority = prios[k % 3];
        e.arrival = kInterval * (13 * (k / 2) + k % 2);
        seq.events.push_back(std::move(e));
    }
    return seq;
}

SettleCase
collisionBoard()
{
    SettleCase c;
    c.cfg.fabric.defaultBitstreamBytes = 0;
    c.cfg.fabric.cap.fixedOverhead = simtime::us(300);
    c.cfg.fabric.store.sdSetupLatency = simtime::us(200);
    c.registry = settleRegistry();
    c.seq = settleSequence();
    return c;
}

class SettledTicks : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

TEST_F(SettledTicks, PaperScenariosMatchEager)
{
    const AppRegistry registry = standardRegistry();
    for (Scenario scenario : congestionScenarios()) {
        SCOPED_TRACE(toString(scenario));
        GeneratorConfig gen = scenarioConfig(scenario, registry.names());
        gen.numEvents = 8;
        SettleCase c;
        c.registry = registry;
        c.seq = generateSequence(toString(scenario), gen, Rng(2023));
        expectSettledMatchesEager(c);
    }
}

TEST_F(SettledTicks, ItemsOnTicksAndPassesAfterASettleMatchEager)
{
    for (const SettleRun &run : expectSettledMatchesEager(collisionBoard())) {
        EXPECT_GT(run.settledIntoTick, 0u) << run.label;
        EXPECT_GT(run.settledIntoPass, 0u) << run.label;
    }
}

TEST_F(SettledTicks, RunSlicesStopAtTheirHorizon)
{
    SettleCase c = collisionBoard();
    for (int j : {3, 9, 16, 22, 31, 48, 66}) {
        const SimTime tick = kInterval * j;
        c.horizons.push_back(tick + kLatency - 1);
        c.horizons.push_back(tick + kLatency);
        c.horizons.push_back(tick + kInterval / 2);
    }
    expectSettledMatchesEager(c);
}

TEST_F(SettledTicks, CounterSamplesAndPassMarksMatchEager)
{
    SettleCase c = collisionBoard();
    c.counters = true;
    expectSettledMatchesEager(c);
}

TEST_F(SettledTicks, PassLatencyOfAnIntervalOrMoreSettlesNothing)
{
    for (SimTime latency : {kInterval, kInterval + kInterval / 2}) {
        SCOPED_TRACE(latency);
        SettleCase c = collisionBoard();
        c.cfg.hypervisor.passLatency = latency;
        c.settles = false;
        expectSettledMatchesEager(c);
    }
}

TEST_F(SettledTicks, FreeTimerEndsEachSettleOneNanosecondBefore)
{
    // Fires at T_5k + L + 1: the settle before each one ends at
    // T_5k + L.
    SettleCase c = collisionBoard();
    c.freePeriod = 5 * kInterval;
    c.freeStart = kLatency + 1;
    for (const SettleRun &run : expectSettledMatchesEager(c))
        EXPECT_GT(run.freeAtBound, 0u) << run.label;
}

TEST_F(SettledTicks, BareStepsSettleNothing)
{
    // A bare step() fires one event per call, so a host loop that times
    // each step sees one dispatch per simulated event.
    SettleCase c = collisionBoard();
    c.bareSteps = true;
    c.settles = false;
    for (const SettleRun &run : expectSettledMatchesEager(c))
        EXPECT_GT(run.elided, 0u) << run.label;
}

TEST_F(SettledTicks, InPhaseTwoBoardClusterSettlesNothing)
{
    // Both boards run the same apps at the same instants, so each
    // board's tick or pass ends the other's quiet span at once.
    SettleCase c = collisionBoard();
    c.seq = settleSequence(/*mirrored=*/true);
    c.boards = 2;
    c.settles = false;
    expectSettledMatchesEager(c);
}

// ---------------------------------------------------------------------
// Hypervisor latencies are validated at construction.

/** Construct a hypervisor with @p cfg on a default board. */
void
constructHypervisor(const HypervisorConfig &cfg)
{
    EventQueue eq;
    Fabric fabric(eq, FabricConfig{});
    std::unique_ptr<Scheduler> scheduler = makeScheduler("fcfs");
    MetricsCollector collector;
    Hypervisor hyp(eq, fabric, *scheduler, collector, cfg);
}

TEST(HypervisorLatencies, NegativePassLatencyIsFatal)
{
    HypervisorConfig cfg;
    cfg.passLatency = -simtime::us(1);
    EXPECT_THROW(constructHypervisor(cfg), FatalError);
}

TEST(HypervisorLatencies, NegativeCheckpointLatencyIsFatal)
{
    HypervisorConfig cfg;
    cfg.checkpointLatency = -1;
    EXPECT_THROW(constructHypervisor(cfg), FatalError);
}

} // namespace
} // namespace nimblock
