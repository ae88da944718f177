/**
 * @file
 * Tests for the pipelined-stage kernel model and the programmatic app
 * library: model arithmetic and validation, graph-build derivation,
 * registry lookups, the intra-slot overlap win itself, checkpoint
 * quantization at chunk boundaries, and determinism of the pipelined
 * path across event-queue kernels, migration and fault retries.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/library/library.hh"
#include "apps/registry.hh"
#include "cluster/cluster.hh"
#include "core/simulation.hh"
#include "fabric/fabric.hh"
#include "hypervisor/hypervisor.hh"
#include "kernel_model/kernel_model.hh"
#include "metrics/analysis.hh"
#include "metrics/collector.hh"
#include "sched/scheduler.hh"
#include "sim/logging.hh"
#include "taskgraph/builder.hh"

namespace nimblock {
namespace {

/** Inert scheduler for tests that drive the hypervisor manually. */
class NullScheduler : public Scheduler
{
  public:
    NullScheduler() : Scheduler("null") {}
    void pass(SchedEvent) override {}
    bool bulkItemGating() const override { return false; }
};

class KernelModelTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }

    static StageSpec
    stage(const char *name, SimTime ii, int depth)
    {
        StageSpec s;
        s.name = name;
        s.initiationInterval = ii;
        s.pipelineDepth = depth;
        return s;
    }
};

TEST_F(KernelModelTest, DerivedQuantities)
{
    // Two stages, bottleneck II = 3ms, fill = 2*2 + 3*3 = 13ms, 8 chunks.
    KernelModel m({stage("a", simtime::ms(2), 2),
                   stage("b", simtime::ms(3), 3)},
                  8);
    EXPECT_EQ(m.chunkInterval(), simtime::ms(3));
    EXPECT_EQ(m.fillLatency(), simtime::ms(13));
    EXPECT_EQ(m.itemLatency(), simtime::ms(13 + 7 * 3));
    EXPECT_EQ(m.itemIssueInterval(), simtime::ms(8 * 3));
    EXPECT_LE(m.itemIssueInterval(), m.itemLatency());

    // Chunk c retires at fill + c * interval.
    EXPECT_EQ(m.completedChunks(0), 0);
    EXPECT_EQ(m.completedChunks(simtime::ms(13) - 1), 0);
    EXPECT_EQ(m.completedChunks(simtime::ms(13)), 1);
    EXPECT_EQ(m.completedChunks(simtime::ms(13 + 3)), 2);
    EXPECT_EQ(m.completedChunks(m.itemLatency()), 8);
    EXPECT_EQ(m.completedChunks(m.itemLatency() * 10), 8);
    EXPECT_EQ(m.progressTime(0), 0);
    EXPECT_EQ(m.progressTime(1), simtime::ms(13));
    EXPECT_EQ(m.progressTime(8), m.itemLatency());
}

TEST_F(KernelModelTest, IssueIntervalNeverExceedsLatencyOverShapes)
{
    for (int chunks = 1; chunks <= 16; ++chunks) {
        for (int depth = 1; depth <= chunks; ++depth) {
            KernelModel m({stage("s", simtime::ms(1), depth)}, chunks);
            EXPECT_LE(m.itemIssueInterval(), m.itemLatency())
                << "chunks=" << chunks << " depth=" << depth;
        }
    }
}

TEST_F(KernelModelTest, ChunkAlignedProgressProperties)
{
    KernelModel m({stage("a", simtime::ms(2), 2),
                   stage("b", simtime::ms(3), 3)},
                  8);
    // When the planned duration equals the model's nominal latency the
    // charge is exactly the last retired chunk boundary.
    SimTime nominal = m.itemLatency();
    EXPECT_EQ(m.chunkAlignedProgress(nominal, simtime::ms(13)),
              simtime::ms(13));
    EXPECT_EQ(m.chunkAlignedProgress(nominal, simtime::ms(13) + 1),
              simtime::ms(13));
    EXPECT_EQ(m.chunkAlignedProgress(nominal, simtime::ms(12)), 0);
    EXPECT_EQ(m.chunkAlignedProgress(nominal, nominal), nominal);

    // Under any duration scaling (heterogeneous speedup, primed issue)
    // the charge stays within [0, elapsed], never exceeds duration, and
    // is monotone in elapsed.
    for (SimTime dur : {nominal / 3, nominal, nominal * 2 + 7}) {
        SimTime prev = 0;
        for (SimTime e = 0; e <= dur; e += dur / 50 + 1) {
            SimTime c = m.chunkAlignedProgress(dur, e);
            EXPECT_GE(c, 0) << "dur=" << dur << " e=" << e;
            EXPECT_LE(c, e) << "dur=" << dur << " e=" << e;
            EXPECT_GE(c, prev) << "dur=" << dur << " e=" << e;
            prev = c;
        }
        EXPECT_EQ(m.chunkAlignedProgress(dur, dur), dur);
    }
}

TEST_F(KernelModelTest, StageOffsetsPartitionTheItemSpan)
{
    KernelModel m({stage("a", simtime::ms(2), 2),
                   stage("b", simtime::ms(3), 3),
                   stage("c", simtime::ms(1), 1)},
                  4);
    std::vector<SimTime> off;
    SimTime dur = simtime::ms(100);
    m.stageOffsets(dur, off);
    ASSERT_EQ(off.size(), 4u);
    EXPECT_EQ(off.front(), 0);
    EXPECT_EQ(off.back(), dur);
    for (std::size_t i = 1; i < off.size(); ++i)
        EXPECT_GT(off[i], off[i - 1]);
    // Proportional to depth x II: 4 : 9 : 1 of the fill.
    EXPECT_EQ(off[1], dur * 4 / 14);
    EXPECT_EQ(off[2], dur * 13 / 14);
}

TEST_F(KernelModelTest, ConstructorValidation)
{
    EXPECT_THROW(KernelModel({}, 4), FatalError);
    EXPECT_THROW(KernelModel({stage("s", simtime::ms(1), 1)}, 0),
                 FatalError);
    EXPECT_THROW(KernelModel({stage("", simtime::ms(1), 1)}, 4),
                 FatalError);
    EXPECT_THROW(KernelModel({stage("s", 0, 1)}, 4), FatalError);
    EXPECT_THROW(KernelModel({stage("s", -simtime::ms(1), 1)}, 4),
                 FatalError);
    EXPECT_THROW(KernelModel({stage("s", simtime::ms(1), 0)}, 4),
                 FatalError);
    // The II/depth/chunk bound: a stage deeper than the chunk stream
    // can never fill.
    EXPECT_THROW(KernelModel({stage("s", simtime::ms(1), 5)}, 4),
                 FatalError);
    EXPECT_NO_THROW(KernelModel({stage("s", simtime::ms(1), 4)}, 4));
}

TEST_F(KernelModelTest, UniformFactory)
{
    KernelModelPtr m =
        makeUniformKernelModel("round", 3, simtime::ms(2), 2, 1024, 8);
    ASSERT_EQ(m->stages().size(), 3u);
    EXPECT_EQ(m->stages()[0].name, "round_0");
    EXPECT_EQ(m->stages()[2].name, "round_2");
    EXPECT_EQ(m->fillLatency(), simtime::ms(3 * 2 * 2));
    EXPECT_EQ(m->chunkBytesTotal(), 3u * 1024u);
}

TEST_F(KernelModelTest, GraphBuildDerivesAndValidatesLatency)
{
    KernelModelPtr m = makeUniformKernelModel("s", 1, simtime::ms(2), 2, 0, 4);

    // Left at 0, itemLatency derives from the model.
    GraphBuilder ok;
    TaskSpec t;
    t.name = "k";
    t.kernel = m;
    TaskId id = ok.addTask(std::move(t));
    TaskGraph g = ok.build();
    EXPECT_EQ(g.task(id).itemLatency, m->itemLatency());
    EXPECT_TRUE(g.task(id).pipelined());
    EXPECT_EQ(g.task(id).itemIssueInterval(), m->itemIssueInterval());

    // An explicit latency disagreeing with the model is rejected.
    GraphBuilder bad;
    TaskSpec b;
    b.name = "k";
    b.kernel = m;
    b.itemLatency = m->itemLatency() + 1;
    EXPECT_THROW(bad.addTask(std::move(b)), FatalError);

    // An explicit latency matching the model is fine.
    GraphBuilder match;
    TaskSpec c;
    c.name = "k";
    c.kernel = m;
    c.itemLatency = m->itemLatency();
    EXPECT_NO_THROW(match.addTask(std::move(c)));
}

TEST_F(KernelModelTest, GraphBuildRejectsBadLatencies)
{
    // Non-positive true latency (no model to derive from).
    GraphBuilder neg;
    TaskSpec t;
    t.name = "t";
    t.itemLatency = -simtime::ms(1);
    EXPECT_THROW(neg.addTask(std::move(t)), FatalError);

    GraphBuilder zero;
    TaskSpec z;
    z.name = "t";
    EXPECT_THROW(zero.addTask(std::move(z)), FatalError);

    // estimatedItemLatency == 0 is ambiguous with the kTimeNone
    // sentinel and rejected; negative estimates likewise.
    GraphBuilder est;
    TaskSpec e;
    e.name = "t";
    e.itemLatency = simtime::ms(1);
    e.estimatedItemLatency = 0;
    EXPECT_THROW(est.addTask(std::move(e)), FatalError);
}

TEST_F(KernelModelTest, SchedulerIssueIntervalTracksEstimateError)
{
    TaskSpec t;
    t.name = "t";
    t.kernel = makeUniformKernelModel("s", 1, simtime::ms(2), 2, 0, 4);
    t.itemLatency = t.kernel->itemLatency(); // 10ms cold, 8ms issue.

    // No estimate error: the raw issue interval.
    EXPECT_EQ(t.schedulerItemIssueInterval(), simtime::ms(8));

    // A 1.5x pessimistic estimate scales the overlap estimate too.
    t.estimatedItemLatency = simtime::ms(15);
    EXPECT_EQ(t.schedulerItemIssueInterval(), simtime::ms(12));
}

TEST_F(KernelModelTest, RegistryLookups)
{
    // Satellite: tryMakeApp is the non-fatal path, makeApp fatal()s
    // with the valid-name list.
    EXPECT_EQ(tryMakeApp("no_such_app"), nullptr);
    ASSERT_NE(tryMakeApp("hash_tree"), nullptr);
    ASSERT_NE(tryMakeApp("lenet"), nullptr);
    EXPECT_EQ(makeApp("video_transcode")->shortName(), "VT");
    EXPECT_THROW(makeApp("no_such_app"), FatalError);
    try {
        makeApp("no_such_app");
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("hash_tree"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("lenet"), std::string::npos);
    }

    // extendedRegistry = the six paper benchmarks + the three library
    // apps; standardRegistry stays exactly the paper set.
    EXPECT_EQ(standardRegistry().size(), 6u);
    EXPECT_EQ(extendedRegistry().size(), 9u);
    std::vector<std::string> names = appNames();
    EXPECT_EQ(names.size(), 9u);
}

TEST_F(KernelModelTest, LibraryShapesAndScalarClone)
{
    AppSpecPtr ht = library::hashTree();
    // 4 leaves, 2 first-level merges, 1 root.
    EXPECT_EQ(ht->numTasks(), 7u);
    EXPECT_EQ(ht->numEdges(), 6u);
    for (TaskId t = 0; t < ht->graph().numTasks(); ++t)
        EXPECT_TRUE(ht->graph().task(t).pipelined());

    AppSpecPtr sc = library::scalarClone(*ht);
    EXPECT_EQ(sc->name(), "hash_tree_scalar");
    EXPECT_EQ(sc->numTasks(), ht->numTasks());
    EXPECT_EQ(sc->numEdges(), ht->numEdges());
    for (TaskId t = 0; t < sc->graph().numTasks(); ++t) {
        EXPECT_FALSE(sc->graph().task(t).pipelined());
        // The clone keeps the cold per-item latency, so every
        // difference in a paired run is intra-slot overlap.
        EXPECT_EQ(sc->graph().task(t).itemLatency,
                  ht->graph().task(t).itemLatency);
        // Without a model, issue interval degenerates to the latency.
        EXPECT_EQ(sc->graph().task(t).itemIssueInterval(),
                  sc->graph().task(t).itemLatency);
    }

    library::HashTreeParams deep;
    deep.leaves = 8;
    EXPECT_EQ(library::hashTree(deep)->numTasks(), 15u);
    library::HashTreeParams bad;
    bad.leaves = 0;
    EXPECT_THROW(library::hashTree(bad), FatalError);

    library::TranscodeParams vt;
    vt.filters = 3;
    EXPECT_EQ(library::videoTranscode(vt)->numTasks(), 5u);
    library::TransformerParams tf;
    EXPECT_EQ(library::transformerBlock(tf)->numTasks(),
              static_cast<std::size_t>(3 + tf.heads + 3));
}

/** Registry holding every library app and its scalar control. */
AppRegistry
abRegistry()
{
    AppRegistry reg = extendedRegistry();
    for (const AppSpecPtr &spec : library::all())
        reg.add(library::scalarClone(*spec));
    return reg;
}

EventSequence
batchSequence(const std::string &app, int events, int batch)
{
    EventSequence seq;
    seq.name = "km-" + app;
    for (int i = 0; i < events; ++i) {
        seq.events.push_back(WorkloadEvent{i, app, batch, Priority::Medium,
                                           simtime::ms(200 * i)});
    }
    return seq;
}

TEST_F(KernelModelTest, PipelinedBeatsScalarOnEverySchedulerWhenPrimed)
{
    // Arrivals spaced past each app's response, so pipelines stay
    // primed instead of being flushed by inter-app preemption — the
    // regime where the overlap win is a strict inequality for every
    // scheduler. (Under heavy contention preemptive schedulers flush
    // the pipeline at most item boundaries and the two modes converge;
    // bench_pipeline quantifies that continuum.)
    AppRegistry reg = abRegistry();
    for (const std::string sched : {"fcfs", "nimblock", "prema"}) {
        for (const AppSpecPtr &spec : library::all()) {
            SystemConfig cfg;
            cfg.scheduler = sched;
            EventSequence piped_seq;
            piped_seq.name = "km-ab";
            EventSequence scalar_seq;
            scalar_seq.name = "km-ab";
            for (int i = 0; i < 3; ++i) {
                piped_seq.events.push_back(
                    WorkloadEvent{i, spec->name(), 8, Priority::Medium,
                                  simtime::sec(4 * i)});
                scalar_seq.events.push_back(WorkloadEvent{
                    i, spec->name() + "_scalar", 8, Priority::Medium,
                    simtime::sec(4 * i)});
            }
            RunResult piped = Simulation(cfg, reg).run(piped_seq);
            RunResult scalar = Simulation(cfg, reg).run(scalar_seq);

            // Overlap changes when work finishes, never how much work
            // exists.
            EXPECT_EQ(piped.hypervisorStats.itemsExecuted,
                      scalar.hypervisorStats.itemsExecuted)
                << sched << " " << spec->name();
            EXPECT_LT(meanResponseSec(piped.records),
                      meanResponseSec(scalar.records))
                << sched << " " << spec->name();
            EXPECT_LE(piped.makespan, scalar.makespan)
                << sched << " " << spec->name();
        }
    }
}

TEST_F(KernelModelTest, SoloBatchResponseMatchesIssueArithmetic)
{
    // One single-task pipelined app alone on the board under FCFS: item
    // 0 takes the cold latency, items 1..B-1 each add exactly the issue
    // interval (io is zero here), so the batch runtime is closed-form.
    KernelModelPtr m =
        makeUniformKernelModel("s", 2, simtime::ms(5), 2, 0, 6);
    GraphBuilder b;
    TaskSpec t;
    t.name = "solo";
    t.kernel = m;
    b.addTask(std::move(t));
    AppRegistry reg;
    reg.add(std::make_shared<AppSpec>("solo_pipe", "SP", b.build()));

    SystemConfig cfg;
    cfg.scheduler = "fcfs";
    const int batch = 5;
    RunResult r =
        Simulation(cfg, reg).run(batchSequence("solo_pipe", 1, batch));
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].runTime,
              m->itemLatency() + (batch - 1) * m->itemIssueInterval());
}

TEST_F(KernelModelTest, CheckpointQuantizesToChunkBoundaryExactly)
{
    // Direct-driven mid-item preemption of a pipelined task: the charge
    // must round DOWN to the last fully retired chunk, the saved
    // remainder must complement it exactly (charged + remaining ==
    // duration), and the retired record's runTime must equal one full
    // item — the re-executed partial chunk is never double-charged.
    //
    // Model: one stage, II = 300ms, depth 2, 10 chunks. Chunk c retires
    // at 600 + c*300 ms; cold item latency 3300ms.
    KernelModelPtr m =
        makeUniformKernelModel("s", 1, simtime::ms(300), 2, 0, 10);
    GraphBuilder b;
    TaskSpec t;
    t.name = "long";
    t.kernel = m;
    b.addTask(std::move(t));
    auto spec = std::make_shared<AppSpec>("long_pipe", "LP", b.build());

    EventQueue eq;
    FabricConfig fcfg;
    fcfg.numSlots = 2;
    Fabric fabric(eq, fcfg);
    HypervisorConfig hcfg;
    hcfg.allowMidItemPreemption = true;
    hcfg.checkpointLatency = simtime::ms(5);
    NullScheduler sched;
    MetricsCollector collector;
    Hypervisor hyp(eq, fabric, sched, collector, hcfg);

    AppInstanceId id = hyp.submit(spec, 1, Priority::Low, 0);
    AppInstance *app = hyp.findApp(id);
    ASSERT_TRUE(hyp.configure(*app, 0, 0));
    // Anchor the clock 1s into the 3.3s item: chunks 0 (600ms) and 1
    // (900ms) have retired, chunk 2 is 100ms from its boundary.
    SimTime at = fabric.coldConfigureLatency(8ull << 20) + simtime::sec(1);
    eq.schedule(at, "anchor", [] {});
    eq.run(at);
    ASSERT_TRUE(fabric.slot(0).executing());

    EXPECT_FALSE(hyp.preempt(0));
    eq.run(eq.now() + simtime::ms(10));
    EXPECT_TRUE(fabric.slot(0).isFree());
    ASSERT_NE(app->taskState(0).itemRemaining, kTimeNone);
    // Charged exactly progressTime(2) = 900ms, not the 1000ms elapsed;
    // the 100ms of partial chunk 2 re-executes on resume.
    EXPECT_EQ(app->taskState(0).itemRemaining,
              m->itemLatency() - simtime::ms(900));
    EXPECT_EQ(hyp.stats().checkpointPreemptions, 1u);

    // Resume on the other slot: total accounted runTime is exactly one
    // item (charged + remainder), nothing double-counted.
    ASSERT_TRUE(hyp.configure(*app, 0, 1));
    eq.run();
    ASSERT_EQ(collector.count(), 1u);
    EXPECT_EQ(collector.records()[0].runTime, m->itemLatency());
}

TEST_F(KernelModelTest, MidItemMigrationCheckpointsAtChunkBoundary)
{
    // Migration quiesce is the production caller of preempt() on an
    // EXECUTING slot (schedulers only batch-preempt waiting slots), so
    // a mid-item migration of a pipelined app drives the chunk-aligned
    // checkpoint end to end: quiesce checkpoints the in-flight item at
    // a chunk boundary, the remainder ships with the checkpoint, and
    // the target board completes every item exactly once.
    KernelModelPtr m =
        makeUniformKernelModel("s", 1, simtime::ms(300), 2, 0, 10);
    GraphBuilder b;
    TaskSpec t;
    t.name = "long";
    t.kernel = m;
    b.addTask(std::move(t));
    AppRegistry reg;
    reg.add(std::make_shared<AppSpec>("long_pipe", "LP", b.build()));

    ClusterConfig cfg;
    cfg.numBoards = 2;
    cfg.board.scheduler = "nimblock";
    cfg.board.hypervisor.allowMidItemPreemption = true;
    cfg.dispatch = DispatchPolicy::RoundRobin;
    cfg.migration.enabled = true;
    cfg.migration.rebalance.interval = simtime::sec(100000);

    EventQueue eq;
    Cluster cluster(eq, cfg);
    const int batch = 4;
    WorkloadEvent e;
    e.index = 0;
    e.appName = "long_pipe";
    e.batch = batch;
    e.priority = Priority::Medium;
    e.arrival = 0;
    eq.schedule(0, "arrival", [&] { cluster.submit(reg, e); });
    cluster.start();

    // Let one 3.3s item complete, then pull the app while the next item
    // is in flight (items are long; the next step lands mid-item).
    while (!eq.empty() && cluster.board(0).stats().itemsExecuted < 1)
        eq.step();
    ASSERT_EQ(cluster.board(0).liveApps().size(), 1u);
    AppInstanceId id = cluster.board(0).liveApps()[0]->id();
    ASSERT_TRUE(cluster.migrationEngine()->requestMigration(0, 1, id));

    while (!eq.empty() && cluster.retiredCount() < 1)
        eq.step();
    ASSERT_EQ(cluster.retiredCount(), 1u);
    EXPECT_GE(cluster.board(0).stats().checkpointPreemptions, 1u)
        << "migration quiesce never took the mid-item checkpoint path";

    const AppRecord &rec = cluster.collector(1).records()[0];
    EXPECT_EQ(rec.migrations, 1);
    EXPECT_FALSE(rec.failed);
    // Every item completes exactly once across the two boards — the
    // checkpointed item's completion lands on the target.
    std::uint64_t total = cluster.board(0).stats().itemsExecuted +
                          cluster.board(1).stats().itemsExecuted;
    EXPECT_EQ(total, static_cast<std::uint64_t>(batch));
    EXPECT_GT(cluster.board(1).stats().itemsExecuted, 0u);
    // Chunk-aligned accounting closure: charged progress plus the
    // shipped remainder always sums to the planned durations, so the
    // record's runTime is the exact item-arithmetic total (item 0 cold,
    // later items primed at the issue interval; the migrated item
    // restarts cold from its remainder, adding no accounted time).
    EXPECT_GE(rec.runTime, m->itemLatency() +
                               (batch - 1) * m->itemIssueInterval());
    EXPECT_LE(rec.runTime, static_cast<SimTime>(batch) * m->itemLatency());
}

TEST_F(KernelModelTest, MigrationMovesPipelinedProgressExactly)
{
    // Stage-boundary checkpoints under migration: pull a pipelined app
    // to another board mid-run; every item still executes exactly once
    // across the two boards (nothing recomputed, nothing skipped).
    AppRegistry reg = abRegistry();
    ClusterConfig cfg;
    cfg.numBoards = 2;
    cfg.board.scheduler = "nimblock";
    cfg.dispatch = DispatchPolicy::RoundRobin;
    cfg.migration.enabled = true;
    cfg.migration.rebalance.interval = simtime::sec(100000);

    EventQueue eq;
    Cluster cluster(eq, cfg);
    WorkloadEvent e;
    e.index = 0;
    e.appName = "hash_tree";
    e.batch = 4;
    e.priority = Priority::Medium;
    e.arrival = 0;
    eq.schedule(0, "arrival", [&] { cluster.submit(reg, e); });
    cluster.start();

    while (!eq.empty() && cluster.board(0).stats().itemsExecuted < 4)
        eq.step();
    ASSERT_GE(cluster.board(0).stats().itemsExecuted, 4u);
    ASSERT_EQ(cluster.board(0).liveApps().size(), 1u);
    AppInstanceId id = cluster.board(0).liveApps()[0]->id();
    ASSERT_TRUE(cluster.migrationEngine()->requestMigration(0, 1, id));

    while (!eq.empty() && cluster.retiredCount() < 1)
        eq.step();
    ASSERT_EQ(cluster.retiredCount(), 1u);
    const AppRecord &rec = cluster.collector(1).records()[0];
    EXPECT_EQ(rec.migrations, 1);
    EXPECT_FALSE(rec.failed);

    // 7 tasks x batch 4 = 28 items, split across the boards.
    std::uint64_t total = cluster.board(0).stats().itemsExecuted +
                          cluster.board(1).stats().itemsExecuted;
    EXPECT_EQ(total, 28u);
    EXPECT_GT(cluster.board(1).stats().itemsExecuted, 0u);
}

TEST_F(KernelModelTest, FaultRetriesFlushThePipeline)
{
    // A crashed item flushes the pipeline: the retry restarts cold
    // (never at the primed issue interval), and the app still retires.
    AppRegistry reg = abRegistry();
    SystemConfig cfg;
    cfg.scheduler = "nimblock";
    cfg.faults.enabled = true;
    cfg.faults.seed = 11;
    cfg.faults.itemCrashProb = 0.05;

    RunResult r = Simulation(cfg, reg).run(
        batchSequence("video_transcode", 6, 4));
    EXPECT_EQ(r.records.size(), 6u);
    EXPECT_GT(r.hypervisorStats.faultsInjected, 0u)
        << "stimulus never injected a fault";
    std::size_t ok = 0;
    for (const AppRecord &rec : r.records)
        ok += rec.failed ? 0 : 1;
    EXPECT_GT(ok, 0u);
}

} // namespace
} // namespace nimblock
