/**
 * @file
 * Tests for the gym-style policy layer: observation layout and
 * determinism, the 128-bit estimatedRemaining fix, golden byte-identity
 * of the PREMA/Nimblock feature-sourcing refactor and of the FCFS/RR
 * readiness-delta refactor, the learned
 * scheduler's behavior, and the binary decision-trace round trip.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/registry.hh"
#include "core/simulation.hh"
#include "metrics/collector.hh"
#include "policy/learned.hh"
#include "policy/observation.hh"
#include "policy/trace.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "taskgraph/builder.hh"
#include "workload/generator.hh"
#include "workload/scenario.hh"

namespace nimblock {
namespace {

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h = 1469598103934665603ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** The recordsCsv-style serialization used by the golden digests. */
std::string
digestInput(const RunResult &r)
{
    std::string out;
    char line[256];
    for (const AppRecord &rec : r.records) {
        std::snprintf(line, sizeof(line),
                      "%d,%s,%d,%d,%lld,%lld,%lld,%lld,%lld,%d,%d\n",
                      rec.eventIndex, rec.appName.c_str(), rec.batch,
                      rec.priority, static_cast<long long>(rec.arrival),
                      static_cast<long long>(rec.firstLaunch),
                      static_cast<long long>(rec.retire),
                      static_cast<long long>(rec.runTime),
                      static_cast<long long>(rec.reconfigTime),
                      rec.reconfigs, rec.preemptions);
        out += line;
    }
    std::snprintf(line, sizeof(line), "makespan=%lld\n",
                  static_cast<long long>(r.makespan));
    out += line;
    return out;
}

/** Digest of 2 sequences x 20 events for (scheduler, scenario). */
std::uint64_t
runDigest(const std::string &sched, Scenario scenario,
          EventQueueImpl impl = EventQueueImpl::Auto)
{
    AppRegistry registry = standardRegistry();
    GeneratorConfig gen = scenarioConfig(scenario, registry.names());
    gen.numEvents = 20;
    Rng rng(2023);
    auto seqs =
        generateSequences(std::string(toString(scenario)), 2, gen, rng);
    std::uint64_t h = 1469598103934665603ull;
    for (const auto &seq : seqs) {
        SystemConfig cfg;
        cfg.scheduler = sched;
        cfg.eventQueue = impl;
        RunResult res = Simulation(cfg, registry).run(seq);
        std::string in = digestInput(res);
        h ^= fnv1a(in.data(), in.size());
        h *= 1099511628211ull;
    }
    return h;
}

class PolicyTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

// ---------------------------------------------------------------------
// Observation layout.

TEST(PolicyObservation, LayoutIsTraceStable)
{
    // These sizes are written into every trace header; a change here is
    // a format break and must bump PolicyTraceHeader::version.
    EXPECT_EQ(sizeof(SlotObs), 24u);
    EXPECT_EQ(sizeof(AppObs), 96u);
    EXPECT_EQ(sizeof(SchedAction), 24u);
    EXPECT_EQ(sizeof(SchedObservation),
              48u + kMaxSlotObs * sizeof(SlotObs) +
                  kMaxAppObs * sizeof(AppObs));
    EXPECT_EQ(sizeof(PolicyTraceHeader), 40u);
}

TEST(PolicyObservation, NoOpActionHasZeroedPadding)
{
    SchedAction a = SchedAction::noOp();
    EXPECT_EQ(a.kind, static_cast<std::uint32_t>(SchedActionKind::NoOp));
    EXPECT_EQ(a.app, kAppNone);
    EXPECT_EQ(a.task, kTaskNone);
    EXPECT_EQ(a.slot, kSlotNone);
    EXPECT_EQ(a.pad, 0u);
}

// ---------------------------------------------------------------------
// estimatedRemaining: the 128-bit overflow fix.

TEST(PolicyObservation, EstimatedRemainingMatchesExactSmallCases)
{
    const SimTime est = simtime::ms(250);
    EXPECT_EQ(estimatedRemaining(est, 123, 400), est * 123 / 400);
    EXPECT_EQ(estimatedRemaining(est, 0, 400), 0);
    EXPECT_EQ(estimatedRemaining(est, 400, 400), est);
    EXPECT_EQ(estimatedRemaining(est, 400, 0), 0);
}

TEST(PolicyObservation, EstimatedRemainingSurvivesInt64Overflow)
{
    // Large batch of tiny items: total estimate ~18 simulated minutes
    // (1.1e12 ns) over 1e8 items with half remaining. The old int64
    // intermediate product (estimate * remaining = 5.5e19) overflowed
    // and collapsed PREMA's shortest-remaining order; the 128-bit path
    // returns the exact proportional estimate.
    const SimTime big = std::int64_t{1} << 40;
    const std::int64_t total = 100'000'000;
    EXPECT_EQ(estimatedRemaining(big, total / 2, total), big / 2);
    EXPECT_GT(estimatedRemaining(big, total / 2, total), 0);

    // Worst realistic magnitudes stay exact too.
    const SimTime hour = simtime::sec(3600);
    SimTime r = estimatedRemaining(hour, total - 1, total);
    EXPECT_GT(r, 0);
    EXPECT_LE(r, hour);

    // The hypervisor's remaining-work estimate (rebalancer victims,
    // checkpoints, board load) shares the 128-bit helper: one 100 ms task
    // with a batch of 10^6 and no item done still needs its whole
    // single-slot estimate, whose product with the item count is past
    // the int64 range.
    TaskSpec task;
    task.name = "tiny";
    task.itemLatency = simtime::ms(100);
    GraphBuilder graph;
    graph.addTask(task);
    auto spec = std::make_shared<AppSpec>("tiny", "T", graph.build());
    SystemConfig cfg;
    EventQueue eq;
    Fabric fabric(eq, cfg.fabric);
    std::unique_ptr<Scheduler> sched = makeScheduler("fcfs");
    MetricsCollector collector;
    Hypervisor hyp(eq, fabric, *sched, collector, cfg.hypervisor);
    AppInstance &app =
        *hyp.findApp(hyp.submit(spec, 1'000'000, Priority::Low, 0));
    const SimTime est = hyp.estimatedSingleSlotLatency(app);
    ASSERT_GT(static_cast<__int128>(est) * app.totalItems(),
              static_cast<__int128>(INT64_MAX));
    EXPECT_EQ(hyp.remainingWorkEstimate(app), est);
    EXPECT_EQ(hyp.pendingWorkEstimate(), est);

    // PREMA's shortest-remaining order uses the same helper. On a
    // one-slot board, a 10 ms x 10^6 app (product ~1e19, which wraps
    // negative in 64 bits) and a one-item app arrive together: the
    // short app must take the slot.
    TaskSpec item;
    item.name = "item";
    item.itemLatency = simtime::ms(10);
    GraphBuilder long_graph;
    long_graph.addTask(item);
    auto long_spec =
        std::make_shared<AppSpec>("long", "L", long_graph.build());
    SystemConfig one_slot;
    one_slot.fabric.numSlots = 1;
    EventQueue prema_eq;
    Fabric prema_fabric(prema_eq, one_slot.fabric);
    std::unique_ptr<Scheduler> prema = makeScheduler("prema");
    MetricsCollector prema_collector;
    Hypervisor prema_hyp(prema_eq, prema_fabric, *prema, prema_collector,
                         one_slot.hypervisor);
    const AppInstanceId long_id =
        prema_hyp.submit(long_spec, 1'000'000, Priority::Low, 0);
    const AppInstanceId short_id = prema_hyp.submit(spec, 1, Priority::Low, 1);
    AppInstance &long_app = *prema_hyp.findApp(long_id);
    ASSERT_LT(static_cast<__int128>(
                  prema_hyp.estimatedSingleSlotLatency(long_app)) *
                  long_app.totalItems(),
              static_cast<__int128>(1) << 64);
    ASSERT_GT(static_cast<__int128>(
                  prema_hyp.estimatedSingleSlotLatency(long_app)) *
                  long_app.totalItems(),
              static_cast<__int128>(INT64_MAX));
    prema_hyp.start();
    while (prema_fabric.slot(0).isFree() && prema_eq.step()) {
    }
    EXPECT_EQ(prema_fabric.slot(0).app(), short_id);
}

// ---------------------------------------------------------------------
// Golden byte-identity: results must match the digests captured before
// each refactor of the schedulers' candidate features (seed build, same
// stimuli).

struct GoldenCase
{
    const char *sched;
    Scenario scenario;
    std::uint64_t digest;
};

TEST_F(PolicyTest, RefactoredSchedulersMatchPreRefactorGoldens)
{
    const GoldenCase cases[] = {
        {"prema", Scenario::Standard, 0xaccf610ac39a511cull},
        {"prema", Scenario::Stress, 0x8bc56a433777d297ull},
        {"prema", Scenario::RealTime, 0x61c5e634330fce4full},
        {"nimblock", Scenario::Standard, 0x3bb059ec97331cb9ull},
        {"nimblock", Scenario::Stress, 0xd7e31e7fbca8224full},
        {"nimblock", Scenario::RealTime, 0xdd89fcaa807e816bull},
        // Recorded before fcfs and rr switched from rescanning every live
        // app to the hypervisor's readiness delta.
        {"fcfs", Scenario::Standard, 0x017faecd1f23bd73ull},
        {"fcfs", Scenario::Stress, 0x51356d2f50adc1caull},
        {"fcfs", Scenario::RealTime, 0x7613030bedf1c860ull},
        {"rr", Scenario::Standard, 0x420feaf038e91675ull},
        {"rr", Scenario::Stress, 0x9c724971549ee29bull},
        {"rr", Scenario::RealTime, 0x7f320f04dc03ed3cull},
        // Recorded before learned reused its snapshot rows and skipped
        // its work-conserving guard on clean ticks.
        {"learned", Scenario::Standard, 0xc17ad26c135672a3ull},
        {"learned", Scenario::Stress, 0x6c13fd904e432d65ull},
        {"learned", Scenario::RealTime, 0x1dd6aa4eae33a37bull},
    };
    for (const GoldenCase &c : cases) {
        EXPECT_EQ(runDigest(c.sched, c.scenario), c.digest)
            << c.sched << "/" << toString(c.scenario);
    }
}

// ---------------------------------------------------------------------
// Snapshot determinism: a probe scheduler that digests every snapshot
// it builds, used to prove "same state => byte-identical snapshot"
// across event-kernel implementations.

class ProbeScheduler : public Scheduler
{
  public:
    explicit ProbeScheduler(std::vector<std::uint64_t> &digests)
        : Scheduler("probe"), _digests(digests)
    {
    }

    void
    pass(SchedEvent) override
    {
        const SchedObservation &obs =
            _builder.build(ops(), ops().liveApps());
        _digests.push_back(fnv1a(&obs, sizeof(obs)));

        EXPECT_EQ(obs.numSlots, ops().fabric().numSlots());
        EXPECT_GT(obs.stateVersion, 0u);
        EXPECT_GE(obs.stateVersion, _lastVersion);
        _lastVersion = obs.stateVersion;

        // Cross-check a feature row against the direct walk it distills.
        for (std::uint32_t i = 0; i < obs.numApps; ++i) {
            const AppObs &row = obs.apps[i];
            AppInstance *app = ops().findApp(row.id);
            ASSERT_NE(app, nullptr);
            std::int64_t total =
                static_cast<std::int64_t>(app->graph().numTasks()) *
                app->batch();
            EXPECT_EQ(row.totalItems, total);
            EXPECT_EQ(row.itemsRemaining, total - app->itemsDoneTotal());
            EXPECT_EQ(row.waitingTime, ops().now() - app->arrival());
            EXPECT_EQ(row.priority, app->priorityValue());
            EXPECT_EQ(row.slotsUsed,
                      static_cast<std::int32_t>(app->slotsUsed()));
        }

        // Keep the board busy so the run completes (FCFS placement).
        for (AppInstance *app : ops().liveApps()) {
            if (ops().fabric().freeSlotCount() == 0)
                break;
            configureBulkReady(*app);
        }
    }

  private:
    ObservationBuilder _builder;
    std::vector<std::uint64_t> &_digests;
    std::uint64_t _lastVersion = 0;
};

std::vector<std::uint64_t>
probeRun(EventQueueImpl impl)
{
    AppRegistry registry = standardRegistry();
    GeneratorConfig gen =
        scenarioConfig(Scenario::Stress, registry.names());
    gen.numEvents = 12;
    EventSequence seq = generateSequence("probe", gen, Rng(11));

    SystemConfig cfg;
    cfg.eventQueue = impl;
    EventQueue eq(impl);
    Fabric fabric(eq, cfg.fabric);
    std::vector<std::uint64_t> digests;
    ProbeScheduler sched(digests);
    MetricsCollector collector;
    Hypervisor hyp(eq, fabric, sched, collector, cfg.hypervisor);
    for (const WorkloadEvent &e : seq.events) {
        AppSpecPtr spec = registry.get(e.appName);
        eq.schedule(e.arrival, "arrival",
                    [&hyp, spec, batch = e.batch, priority = e.priority,
                     index = e.index] {
                        hyp.submit(spec, batch, priority, index);
                    });
    }
    hyp.start();
    while (!eq.empty()) {
        if (!eq.step())
            break;
        if (collector.count() == seq.events.size()) {
            hyp.stop();
            break;
        }
    }
    EXPECT_EQ(collector.count(), seq.events.size());
    EXPECT_FALSE(digests.empty());
    return digests;
}

TEST_F(PolicyTest, SnapshotsAreByteIdenticalAcrossEventKernels)
{
    // Heap and wheel kernels produce the same event order, so every
    // per-pass snapshot — padding included — must hash identically.
    std::vector<std::uint64_t> heap = probeRun(EventQueueImpl::Heap);
    std::vector<std::uint64_t> wheel = probeRun(EventQueueImpl::Wheel);
    ASSERT_EQ(heap.size(), wheel.size());
    EXPECT_EQ(heap, wheel);
}

// ---------------------------------------------------------------------
// Learned scheduler behavior.

TEST_F(PolicyTest, LearnedCompletesEveryScenarioDeterministically)
{
    for (Scenario scenario : congestionScenarios()) {
        std::uint64_t first = runDigest("learned", scenario);
        std::uint64_t second = runDigest("learned", scenario);
        EXPECT_EQ(first, second) << toString(scenario);
    }
}

TEST_F(PolicyTest, LearnedIsByteIdenticalAcrossEventKernels)
{
    std::uint64_t heap =
        runDigest("learned", Scenario::Stress, EventQueueImpl::Heap);
    std::uint64_t wheel =
        runDigest("learned", Scenario::Stress, EventQueueImpl::Wheel);
    EXPECT_EQ(heap, wheel);
}

TEST_F(PolicyTest, LearnedSeedChangesExplorationButAlwaysCompletes)
{
    AppRegistry registry = standardRegistry();
    GeneratorConfig gen =
        scenarioConfig(Scenario::Standard, registry.names());
    gen.numEvents = 15;
    EventSequence seq = generateSequence("seeds", gen, Rng(5));
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        EventQueue eq;
        SystemConfig cfg;
        Fabric fabric(eq, cfg.fabric);
        LearnedConfig lcfg;
        lcfg.seed = seed;
        LearnedScheduler sched(lcfg);
        MetricsCollector collector;
        Hypervisor hyp(eq, fabric, sched, collector, cfg.hypervisor);
        for (const WorkloadEvent &e : seq.events) {
            AppSpecPtr spec = registry.get(e.appName);
            eq.schedule(e.arrival, "arrival",
                        [&hyp, spec, batch = e.batch,
                         priority = e.priority, index = e.index] {
                            hyp.submit(spec, batch, priority, index);
                        });
        }
        hyp.start();
        while (!eq.empty()) {
            if (!eq.step())
                break;
            if (collector.count() == seq.events.size()) {
                hyp.stop();
                break;
            }
        }
        EXPECT_EQ(collector.count(), seq.events.size()) << "seed " << seed;
        EXPECT_GT(sched.decisions(), 0u);
    }
}

TEST_F(PolicyTest, LearnedOnlineUpdateMovesWeights)
{
    AppRegistry registry = standardRegistry();
    GeneratorConfig gen =
        scenarioConfig(Scenario::Stress, registry.names());
    gen.numEvents = 15;
    EventSequence seq = generateSequence("weights", gen, Rng(5));

    EventQueue eq;
    SystemConfig cfg;
    Fabric fabric(eq, cfg.fabric);
    LearnedConfig lcfg;
    LearnedScheduler sched(lcfg);
    const std::array<double, kPolicyFeatures> before = sched.weights();
    MetricsCollector collector;
    Hypervisor hyp(eq, fabric, sched, collector, cfg.hypervisor);
    for (const WorkloadEvent &e : seq.events) {
        AppSpecPtr spec = registry.get(e.appName);
        eq.schedule(e.arrival, "arrival",
                    [&hyp, spec, batch = e.batch, priority = e.priority,
                     index = e.index] {
                        hyp.submit(spec, batch, priority, index);
                    });
    }
    hyp.start();
    while (!eq.empty()) {
        if (!eq.step())
            break;
        if (collector.count() == seq.events.size()) {
            hyp.stop();
            break;
        }
    }
    EXPECT_EQ(collector.count(), seq.events.size());
    EXPECT_NE(sched.weights(), before)
        << "online updates never adjusted the policy";
}

// ---------------------------------------------------------------------
// Trace bridge round trip.

TEST_F(PolicyTest, TraceRoundTripsThroughReader)
{
    const std::string path =
        ::testing::TempDir() + "nimblock_policy_trace_test.bin";

    AppRegistry registry = standardRegistry();
    GeneratorConfig gen =
        scenarioConfig(Scenario::Stress, registry.names());
    gen.numEvents = 10;
    EventSequence seq = generateSequence("trace", gen, Rng(3));

    std::uint64_t decisions = 0;
    SystemConfig cfg;
    {
        EventQueue eq;
        Fabric fabric(eq, cfg.fabric);
        LearnedConfig lcfg;
        lcfg.tracePath = path;
        LearnedScheduler sched(lcfg);
        MetricsCollector collector;
        Hypervisor hyp(eq, fabric, sched, collector, cfg.hypervisor);
        for (const WorkloadEvent &e : seq.events) {
            AppSpecPtr spec = registry.get(e.appName);
            eq.schedule(e.arrival, "arrival",
                        [&hyp, spec, batch = e.batch,
                         priority = e.priority, index = e.index] {
                            hyp.submit(spec, batch, priority, index);
                        });
        }
        hyp.start();
        while (!eq.empty()) {
            if (!eq.step())
                break;
            if (collector.count() == seq.events.size()) {
                hyp.stop();
                break;
            }
        }
        EXPECT_EQ(collector.count(), seq.events.size());
        decisions = sched.decisions();
        ASSERT_GT(decisions, 0u);
    } // Scheduler destruction flushes and closes the trace.

    PolicyTraceReader reader;
    ASSERT_TRUE(reader.open(path));
    EXPECT_EQ(reader.header().version, 1u);
    EXPECT_EQ(reader.header().obsBytes, sizeof(SchedObservation));
    EXPECT_EQ(reader.header().actionBytes, sizeof(SchedAction));
    EXPECT_EQ(reader.header().recordBytes, sizeof(PolicyTraceRecord));
    EXPECT_EQ(reader.header().maxSlots, kMaxSlotObs);
    EXPECT_EQ(reader.header().maxApps, kMaxAppObs);

    PolicyTraceRecord rec;
    std::uint64_t n = 0;
    SimTime last_now = -1;
    while (reader.next(rec)) {
        ++n;
        EXPECT_EQ(rec.observation.numSlots, cfg.fabric.numSlots);
        EXPECT_GE(rec.observation.now, last_now);
        last_now = rec.observation.now;
        EXPECT_LT(rec.action.kind, 4u);
        EXPECT_LE(rec.observation.numApps, kMaxAppObs);
    }
    EXPECT_EQ(n, decisions);
    std::remove(path.c_str());
}

TEST(PolicyTrace, ReaderRejectsMissingAndCorruptFiles)
{
    setQuiet(true);
    PolicyTraceReader reader;
    EXPECT_FALSE(reader.open("/nonexistent/policy_trace.bin"));

    const std::string path =
        ::testing::TempDir() + "nimblock_policy_trace_bad.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace", f);
    std::fclose(f);
    EXPECT_FALSE(reader.open(path));
    std::remove(path.c_str());
    setQuiet(false);
}

} // namespace
} // namespace nimblock
