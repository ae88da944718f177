/**
 * @file
 * Soundness of the hypervisor's readiness delta
 * (SchedulerOps::readyChangedApps()). fcfs and rr walk only the apps it
 * lists, so it must list every app whose set of configurable tasks grew.
 * Checking subclasses of both rescan every live app before each pass and
 * assert that, across the paper scenarios, fault injection, migration, a
 * stall rescue and the pipelined library apps. A depth test pins the
 * delta's size: one arrival lists one app however many apps wait.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "cluster/migration.hh"
#include "cluster/transport.hh"
#include "hypervisor/hypervisor.hh"
#include "resilience/fault_injector.hh"
#include "sched/fcfs.hh"
#include "sched/round_robin.hh"
#include "sim/logging.hh"
#include "taskgraph/builder.hh"
#include "workload/generator.hh"
#include "workload/scenario.hh"

namespace nimblock {
namespace {

/** What a checked scheduler saw over a run. */
struct DeltaStats
{
    std::uint64_t passes = 0;
    std::uint64_t liveSeen = 0; //!< Sum of liveApps().size() per pass.
    std::uint64_t listed = 0;   //!< Sum of readyChangedApps().size().
    std::uint64_t mustList = 0; //!< New or grown apps the checks required.
    std::size_t lastListed = 0; //!< readyChangedApps().size(), last pass.
};

/**
 * fcfs or rr with a full rescan before every pass. The rescan checks
 * that readyChangedApps() is an ordered, duplicate-free subsequence of
 * liveApps(); that it lists every new app and every app whose
 * configurable-task set gained a task since the previous pass ended;
 * and that every configurable task of an unlisted app is already
 * queued, which is what lets the scheduler skip that app.
 */
template <class Base>
class DeltaChecked : public Base
{
  public:
    void
    pass(SchedEvent reason) override
    {
        check();
        Base::pass(reason);
        // Record after the pass, so a task the pass placed that later
        // returns to Idle counts as gained.
        for (AppInstance *app : this->ops().liveApps())
            app->configurableTasksInto(_seen[app], /*pipelined=*/false);
    }

    void
    onAppAdmitted(AppInstance &app) override
    {
        _fresh.insert(&app);
        Base::onAppAdmitted(app);
    }

    void
    onAppRetired(AppInstance &app) override
    {
        // Pooling reuses instances: forget this owner's history.
        _fresh.erase(&app);
        _seen.erase(&app);
        Base::onAppRetired(app);
    }

    DeltaStats stats;

  private:
    void
    check()
    {
        SchedulerOps &o = this->ops();
        const std::vector<AppInstance *> &live = o.liveApps();
        const std::vector<AppInstance *> &delta = o.readyChangedApps();
        ++stats.passes;
        stats.liveSeen += live.size();
        stats.listed += delta.size();
        stats.lastListed = delta.size();

        std::size_t cursor = 0;
        for (AppInstance *app : delta) {
            while (cursor < live.size() && live[cursor] != app)
                ++cursor;
            ASSERT_LT(cursor, live.size())
                << "readyChangedApps() is not an ordered, duplicate-free "
                   "subsequence of liveApps()";
            ++cursor;
        }

        std::set<const AppInstance *> listed(delta.begin(), delta.end());
        for (AppInstance *app : live) {
            app->configurableTasksInto(_now, /*pipelined=*/false);
            bool must_list = _fresh.count(app) > 0;
            const std::vector<TaskId> &before = _seen[app];
            for (TaskId t : _now) {
                must_list |= std::find(before.begin(), before.end(), t) ==
                             before.end();
            }
            if (must_list) {
                ++stats.mustList;
                EXPECT_EQ(listed.count(app), 1u)
                    << app->toString() << " is new or gained a "
                    << "configurable task but is not in readyChangedApps()";
            } else if (listed.count(app) == 0) {
                for (TaskId t : _now) {
                    EXPECT_TRUE(app->taskState(t).queued)
                        << app->toString() << " task " << t
                        << " is configurable, unqueued and unlisted";
                }
            }
        }
        _fresh.clear();
    }

    std::set<const AppInstance *> _fresh;
    std::map<const AppInstance *, std::vector<TaskId>> _seen;
    std::vector<TaskId> _now;
};

/** A checked fcfs or rr, with a handle on its stats. */
struct Checked
{
    std::unique_ptr<Scheduler> sched;
    const DeltaStats *stats = nullptr;
};

template <class Base>
Checked
makeCheckedAs()
{
    auto s = std::make_unique<DeltaChecked<Base>>();
    Checked c;
    c.stats = &s->stats;
    c.sched = std::move(s);
    return c;
}

Checked
makeChecked(const std::string &name)
{
    return name == "fcfs" ? makeCheckedAs<FcfsScheduler>()
                          : makeCheckedAs<RoundRobinScheduler>();
}

/** One board with a checked scheduler, composed as Simulation::run does. */
struct Board
{
    Board(EventQueue &eq, const std::string &sched,
          const FabricConfig &fcfg = FabricConfig{},
          const HypervisorConfig &hcfg = HypervisorConfig{})
        : fabric(eq, fcfg), checked(makeChecked(sched)),
          hyp(eq, fabric, *checked.sched, collector, hcfg)
    {
    }

    const DeltaStats &stats() const { return *checked.stats; }

    Fabric fabric;
    Checked checked;
    MetricsCollector collector;
    Hypervisor hyp;
};

/** Schedule every arrival of @p seq on @p board. */
void
scheduleArrivals(EventQueue &eq, Board &board, const AppRegistry &registry,
                 const EventSequence &seq)
{
    for (const WorkloadEvent &e : seq.events) {
        AppSpecPtr spec = registry.get(e.appName);
        eq.schedule(e.arrival, "arrival",
                    [&board, spec, batch = e.batch, priority = e.priority,
                     index = e.index] {
                        board.hyp.submit(spec, batch, priority, index);
                    });
    }
}

/** Step @p eq until @p boards retired @p want apps in total. */
void
runUntilRetired(EventQueue &eq, const std::vector<Board *> &boards,
                std::size_t want)
{
    auto retired = [&] {
        std::size_t n = 0;
        for (const Board *b : boards)
            n += b->collector.count();
        return n;
    };
    const SimTime horizon = simtime::sec(200000);
    while (retired() < want) {
        ASSERT_TRUE(eq.step()) << "queue drained early";
        ASSERT_LE(eq.now(), horizon) << "run stalled";
    }
    for (Board *b : boards)
        b->hyp.stop();
}

/** The delta did work: checks ran, some apps had to be listed, and the
    lists were shorter than full rescans. */
void
expectExercised(const DeltaStats &s)
{
    EXPECT_GT(s.passes, 0u);
    EXPECT_GT(s.mustList, 0u);
    EXPECT_LT(s.listed, s.liveSeen);
}

EventSequence
compressed(EventSequence seq, SimTime spacing)
{
    for (std::size_t i = 0; i < seq.events.size(); ++i)
        seq.events[i].arrival = spacing * static_cast<SimTime>(i);
    return seq;
}

/** Parameterised on the scheduler name. */
class ReadyDelta : public ::testing::TestWithParam<std::string>
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }

    const std::string &sched() const { return GetParam(); }
};

TEST_P(ReadyDelta, PaperScenarios)
{
    AppRegistry registry = standardRegistry();
    for (Scenario sc :
         {Scenario::Standard, Scenario::Stress, Scenario::RealTime}) {
        SCOPED_TRACE(toString(sc));
        EventSequence seq = generateSequence(
            "delta", scenarioConfig(sc, registry.names()), Rng(2023));
        EventQueue eq;
        Board board(eq, sched());
        scheduleArrivals(eq, board, registry, seq);
        board.hyp.start();
        runUntilRetired(eq, {&board}, seq.events.size());
        expectExercised(board.stats());
    }
}

TEST_P(ReadyDelta, FaultInjection)
{
    AppRegistry registry = standardRegistry();
    GeneratorConfig gen = scenarioConfig(Scenario::Stress, registry.names());
    gen.numEvents = 40;
    EventSequence seq =
        compressed(generateSequence("faults", gen, Rng(7)), simtime::ms(50));

    // Configuration faults drive retries, aborted placements and
    // quarantine; item faults drive requeues and, once the requeue
    // budget is spent, failApp.
    FaultConfig fc;
    fc.enabled = true;
    fc.seed = 11;
    fc.reconfigFailProb = 0.3;
    fc.persistentFaultFrac = 0.3;
    fc.sdReadErrorProb = 0.05;
    fc.itemCrashProb = 0.15;
    fc.itemHangProb = 0.05;
    fc.retry.maxAttempts = 2;
    fc.quarantineAfter = 2;
    fc.appRequeueLimit = 1;
    fc.validate();

    EventQueue eq;
    Board board(eq, sched());
    FaultInjector injector(fc, board.fabric.numSlots());
    board.hyp.setFaultInjector(&injector);
    scheduleArrivals(eq, board, registry, seq);
    board.hyp.start();
    runUntilRetired(eq, {&board}, seq.events.size());

    const HypervisorStats &hs = board.hyp.stats();
    EXPECT_GT(hs.faultRetries, 0u);
    EXPECT_GT(hs.quarantineEvents, 0u);
    EXPECT_GT(hs.appRequeues, 0u);
    EXPECT_GT(hs.appsFailed, 0u);
    expectExercised(board.stats());
}

TEST_P(ReadyDelta, Migration)
{
    AppRegistry registry = standardRegistry();
    GeneratorConfig gen = scenarioConfig(Scenario::Stress, registry.names());
    gen.numEvents = 30;
    EventSequence seq =
        compressed(generateSequence("migrate", gen, Rng(5)),
                   simtime::ms(100));

    EventQueue eq;
    Board b0(eq, sched());
    Board b1(eq, sched());
    MigrationConfig mcfg;
    mcfg.enabled = true;
    ClusterTransport transport(eq, 2, mcfg.transport);
    MigrationEngine engine(eq, transport, mcfg);
    engine.attachBoard(0, b0.hyp);
    engine.attachBoard(1, b1.hyp);

    // Arrivals alternate between the boards; periodic requests then move
    // a queued or running app across, so quiesce, extraction and
    // readmission all run while both schedulers hold queues. (An app
    // never hops straight back, so each board needs native apps.)
    EventSequence halves[2];
    for (const WorkloadEvent &e : seq.events)
        halves[e.index % 2].events.push_back(e);
    scheduleArrivals(eq, b0, registry, halves[0]);
    scheduleArrivals(eq, b1, registry, halves[1]);
    Board *boards[] = {&b0, &b1};
    for (int k = 0; k < 120; ++k) {
        eq.schedule(simtime::ms(150) * (k + 1), "migrate_request",
                    [&engine, &boards, k] {
                        std::size_t src = k % 2;
                        const auto &live = boards[src]->hyp.liveApps();
                        if (live.empty())
                            return;
                        AppInstance *victim = live[k % live.size()];
                        engine.requestMigration(src, 1 - src, victim->id());
                    });
    }
    b0.hyp.start();
    b1.hyp.start();
    runUntilRetired(eq, {&b0, &b1}, seq.events.size());

    for (const Board *b : boards) {
        EXPECT_GT(b->hyp.stats().appsMigratedOut, 0u);
        EXPECT_GT(b->hyp.stats().appsMigratedIn, 0u);
    }
    expectExercised(b0.stats());
    expectExercised(b1.stats());
}

TEST_P(ReadyDelta, ExternalPreemption)
{
    // Preemptions issued from outside the scheduler, at item boundaries
    // and mid-item (checkpointed). A task vacated mid-item has its
    // inputs and is configurable again; only the preemption's mark
    // offers it back to the scheduler.
    AppRegistry registry = standardRegistry();
    GeneratorConfig gen = scenarioConfig(Scenario::Stress, registry.names());
    EventSequence seq =
        compressed(generateSequence("preempt", gen, Rng(3)),
                   simtime::ms(50));

    EventQueue eq;
    HypervisorConfig hcfg;
    hcfg.allowMidItemPreemption = true;
    Board board(eq, sched(), FabricConfig{}, hcfg);
    scheduleArrivals(eq, board, registry, seq);
    for (int k = 0; k < 200; ++k) {
        eq.schedule(simtime::ms(97) * (k + 1), "preempt", [&board, k] {
            const std::vector<Slot> &slots = board.fabric.slots();
            const Slot &s = slots[k % slots.size()];
            if (s.state() == SlotState::Occupied)
                board.hyp.preempt(s.id());
        });
    }
    board.hyp.start();
    runUntilRetired(eq, {&board}, seq.events.size());

    EXPECT_GT(board.hyp.stats().checkpointPreemptions, 0u);
    EXPECT_GT(board.hyp.stats().preemptionsHonored, 0u);
    expectExercised(board.stats());
}

TEST_P(ReadyDelta, StallRescue)
{
    // One slot, and the successor of a chain configured by hand before
    // the scheduler runs: it waits for a producer that has no slot until
    // the rescue preempts it.
    GraphBuilder b;
    b.chain("t", {simtime::ms(100), simtime::ms(100)});
    AppSpecPtr chain = std::make_shared<AppSpec>("chain2", "C2", b.build());

    EventQueue eq;
    FabricConfig fcfg;
    fcfg.numSlots = 1;
    Board board(eq, sched(), fcfg);
    board.hyp.start();
    AppInstanceId id = board.hyp.submit(chain, 2, Priority::Low, 0);
    board.hyp.submit(chain, 1, Priority::High, 1);
    board.hyp.submit(chain, 3, Priority::Medium, 2);
    ASSERT_TRUE(board.hyp.configure(*board.hyp.findApp(id), 1, 0));
    runUntilRetired(eq, {&board}, 3);

    EXPECT_GE(board.hyp.stats().stallRescues, 1u);
    EXPECT_GT(board.stats().mustList, 0u);
}

TEST_P(ReadyDelta, PipelinedLibraryApps)
{
    // Every task carries a kernel model, and the wide fan-out graphs
    // hold several ready tasks per app at once.
    AppRegistry registry = extendedRegistry();
    EventSequence seq;
    seq.name = "library";
    const char *apps[] = {"hash_tree", "video_transcode",
                          "transformer_block"};
    for (int i = 0; i < 18; ++i) {
        seq.events.push_back(WorkloadEvent{
            i, apps[i % 3], 4, i % 4 ? Priority::Medium : Priority::High,
            simtime::ms(static_cast<double>(i))});
    }

    EventQueue eq;
    Board board(eq, sched());
    scheduleArrivals(eq, board, registry, seq);
    board.hyp.start();
    runUntilRetired(eq, {&board}, seq.events.size());
    expectExercised(board.stats());
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, ReadyDelta,
    ::testing::Values(std::string("fcfs"), std::string("rr")),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(ReadyDeltaDepth, OneArrivalListsOneAppAtAnyDepth)
{
    setQuiet(true);
    GraphBuilder b;
    TaskSpec t;
    t.name = "long";
    t.itemLatency = simtime::sec(1000);
    b.addTask(std::move(t));
    AppSpecPtr app = std::make_shared<AppSpec>("single", "S", b.build());

    for (const char *name : {"fcfs", "rr"}) {
        for (std::size_t waiting : {16u, 2048u}) {
            SCOPED_TRACE(std::string(name) + " with " +
                         std::to_string(waiting) + " waiting");
            EventQueue eq;
            Board board(eq, name);
            board.hyp.start();
            std::size_t slots = board.fabric.numSlots();
            for (std::size_t i = 0; i < slots + waiting; ++i)
                board.hyp.submit(app, 1, Priority::Medium,
                                 static_cast<int>(i));
            // Every slot configures and starts its 1000 s item; the rest
            // queue.
            eq.run(simtime::sec(10));
            ASSERT_EQ(board.fabric.freeSlotCount(), 0u);
            ASSERT_EQ(board.hyp.liveCount(), slots + waiting);

            std::uint64_t passes = board.stats().passes;
            board.hyp.submit(app, 1, Priority::Medium,
                             static_cast<int>(slots + waiting));
            while (board.stats().passes == passes)
                ASSERT_TRUE(eq.step());
            EXPECT_EQ(board.stats().lastListed, 1u);
            board.hyp.stop();
        }
    }
    setQuiet(false);
}

} // namespace
} // namespace nimblock
