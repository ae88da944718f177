/**
 * @file
 * GridContext warm-up and the makespan estimator behind it.
 *
 * Goal numbers (§4.2) are the knee of each (application, batch) pair's
 * makespan-vs-slots curve. The saturation sweep stops one point past the
 * knee, GridContext::warm shares one bulk sweep between the single-slot
 * latency and both goal caches, and deadlineSweep() asks for each
 * record's deadline unit once. None of these shortcuts may change a
 * result: the full curves are pinned to a digest recorded before they
 * existed, and every shortcut is checked against the long way round.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "alloc/saturation.hh"
#include "apps/registry.hh"
#include "core/config.hh"
#include "core/grid_context.hh"
#include "hypervisor/app_instance.hh"
#include "metrics/deadline.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "taskgraph/builder.hh"
#include "workload/generator.hh"
#include "workload/scenario.hh"

namespace nimblock {
namespace {

constexpr std::size_t kMaxSlots = 10;
constexpr int kMaxBatch = 30;
constexpr double kThreshold = 0.03;

/** The board's own fabric timing, as GridContext derives it. */
MakespanParams
boardTiming()
{
    SystemConfig cfg;
    MakespanParams p;
    p.reconfigLatency = cfg.reconfigLatency();
    p.psBandwidthBytesPerSec = cfg.fabric.psBandwidthBytesPerSec;
    return p;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/** One FNV-1a step over the bytes of @p m. */
std::uint64_t
fnv(std::uint64_t h, SimTime m)
{
    const auto *b = reinterpret_cast<const unsigned char *>(&m);
    for (std::size_t i = 0; i < sizeof(m); ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Makespans for k = 1..kMaxSlots, one estimateMakespan() per point. */
std::vector<SimTime>
fullCurve(const TaskGraph &graph, MakespanParams p)
{
    std::vector<SimTime> out;
    for (std::size_t k = 1; k <= kMaxSlots; ++k) {
        p.slots = k;
        out.push_back(estimateMakespan(graph, p));
    }
    return out;
}

/** The saturation point of @p curve's first @p max_slots points. */
std::size_t
knee(const std::vector<SimTime> &curve, std::size_t max_slots)
{
    for (std::size_t k = 1; k < max_slots; ++k) {
        double before = static_cast<double>(curve[k - 1]);
        double after = static_cast<double>(curve[k]);
        double improvement = before <= 0 ? 0.0 : (before - after) / before;
        if (improvement < kThreshold)
            return k;
    }
    return max_slots;
}

TEST(EstimatorGolden, FullCurvesMatchTheRecordedDigest)
{
    // The six paper apps and the three library apps (streaming kernels),
    // batch 1-30, both modes, 1-10 slots, under the board's timing and
    // under MakespanParams' defaults (80 ms reconfiguration).
    AppRegistry reg = extendedRegistry();
    ASSERT_EQ(reg.names().size(), 9u);
    std::uint64_t h = kFnvBasis;
    std::size_t points = 0;
    for (MakespanParams p : {boardTiming(), MakespanParams{}}) {
        for (const std::string &name : reg.names()) {
            for (int batch = 1; batch <= kMaxBatch; ++batch) {
                for (bool pipelined : {true, false}) {
                    p.batch = batch;
                    p.pipelined = pipelined;
                    for (SimTime m : fullCurve(reg.get(name)->graph(), p)) {
                        h = fnv(h, m);
                        ++points;
                    }
                }
            }
        }
    }
    EXPECT_EQ(points, 2u * 9 * kMaxBatch * 2 * kMaxSlots);
    // Recorded from the event-queue estimator this one replaced.
    EXPECT_EQ(h, 0x9a1e2f6d803022f4ull);
}

/**
 * A seeded DAG of 3-8 tasks whose item latencies are multiples of 40 ms,
 * with no transfers: under the default 80 ms reconfiguration many
 * reconfigurations and items finish at the same instant.
 */
TaskGraph
coTimedGraph(std::uint64_t seed)
{
    Rng rng(seed);
    GraphBuilder b;
    std::size_t n = 3 + static_cast<std::size_t>(rng.uniformInt(0, 5));
    for (std::size_t i = 0; i < n; ++i) {
        TaskSpec t;
        t.name = "t" + std::to_string(i);
        t.itemLatency = simtime::ms(40) * (1 + rng.uniformInt(0, 3));
        b.addTask(std::move(t));
    }
    for (std::size_t j = 1; j < n; ++j) {
        for (std::size_t i = 0; i < j; ++i) {
            if (rng.uniformDouble(0.0, 1.0) < 0.4)
                b.edge(static_cast<TaskId>(i), static_cast<TaskId>(j));
        }
    }
    return b.build();
}

TEST(EstimatorGolden, CoTimedEventsFireInInsertionOrder)
{
    // The paper apps rarely finish two events at one instant, so their
    // digest cannot see the tie-break. These graphs do: firing co-timed
    // events newest first, or in heap order, changes this digest.
    std::uint64_t h = kFnvBasis;
    std::size_t points = 0;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        TaskGraph graph = coTimedGraph(seed);
        MakespanParams p;
        for (int batch = 1; batch <= 6; ++batch) {
            for (bool pipelined : {true, false}) {
                for (std::size_t k = 1; k <= 5; ++k) {
                    p.batch = batch;
                    p.pipelined = pipelined;
                    p.slots = k;
                    h = fnv(h, estimateMakespan(graph, p));
                    ++points;
                }
            }
        }
    }
    EXPECT_EQ(points, 64u * 6 * 2 * 5);
    // Recorded from the event-queue estimator this one replaced.
    EXPECT_EQ(h, 0x846dc14da24149d3ull);
}

TEST(SaturationKnee, SweepIsThePrefixOfTheFullCurveUpToOnePastTheKnee)
{
    AppRegistry reg = extendedRegistry();
    MakespanParams p = boardTiming();
    std::size_t stopped_early = 0;
    for (const std::string &name : reg.names()) {
        const TaskGraph &graph = reg.get(name)->graph();
        for (int batch = 1; batch <= kMaxBatch; ++batch) {
            for (bool pipelined : {true, false}) {
                p.batch = batch;
                p.pipelined = pipelined;
                std::vector<SimTime> curve = fullCurve(graph, p);
                for (std::size_t max = 1; max <= kMaxSlots; ++max) {
                    SCOPED_TRACE(name + " batch " + std::to_string(batch) +
                                 (pipelined ? " pipelined" : " bulk") +
                                 " max_slots " + std::to_string(max));
                    SaturationAnalysis a =
                        analyzeSaturation(graph, max, p, kThreshold);
                    std::size_t want = knee(curve, max);
                    ASSERT_EQ(a.saturationPoint, want);
                    ASSERT_EQ(a.makespans.size(), std::min(want + 1, max));
                    ASSERT_TRUE(std::equal(a.makespans.begin(),
                                           a.makespans.end(), curve.begin()));
                    stopped_early += a.makespans.size() < max;
                }
            }
        }
    }
    EXPECT_GT(stopped_early, 0u);
}

TEST(GridContextWarm, Figure5UnitMatchesPrivateCachesAndFreeFunctions)
{
    setQuiet(true);
    AppRegistry reg = standardRegistry();
    SystemConfig cfg;
    GeneratorConfig gen = scenarioConfig(Scenario::Standard, reg.names());
    gen.numEvents = 20;
    std::vector<EventSequence> seqs =
        generateSequences("standard", 10, gen, Rng(2023));

    GridContext ctx(cfg);
    std::set<std::pair<std::string, int>> pairs;
    for (const EventSequence &seq : seqs) {
        ctx.warmSequence(seq, reg);
        for (const WorkloadEvent &e : seq.events)
            pairs.emplace(e.appName, e.batch);
    }
    ctx.freeze();
    EXPECT_EQ(ctx.pairCount(), pairs.size());

    const std::size_t slots = cfg.fabric.numSlots;
    MakespanParams pipe = boardTiming();
    MakespanParams bulk = pipe;
    bulk.pipelined = false;
    const GoalNumberCache *shared[] = {ctx.goalCache(slots, pipe, kThreshold),
                                       ctx.goalCache(slots, bulk, kThreshold)};
    ASSERT_NE(shared[0], nullptr);
    ASSERT_NE(shared[1], nullptr);
    ASSERT_NE(shared[0], shared[1]);
    GoalNumberCache priv[] = {GoalNumberCache(slots, pipe, kThreshold),
                              GoalNumberCache(slots, bulk, kThreshold)};

    bool saw_shared_sweep = false, saw_pipelined = false;
    for (const auto &[name, batch] : pairs) {
        SCOPED_TRACE(name + " batch " + std::to_string(batch));
        AppSpecPtr spec = reg.get(name);
        EXPECT_EQ(ctx.singleSlotLatency(spec.get(), batch),
                  singleSlotLatency(spec->graph(), batch,
                                    cfg.reconfigLatency(),
                                    cfg.fabric.psBandwidthBytesPerSec));
        for (int mode = 0; mode < 2; ++mode) {
            const SaturationAnalysis *got = shared[mode]->peek(*spec, batch);
            ASSERT_NE(got, nullptr);
            const SaturationAnalysis &want = priv[mode].analysis(*spec, batch);
            EXPECT_EQ(got->saturationPoint, want.saturationPoint);
            EXPECT_EQ(got->makespans, want.makespans);
        }
        (spec->pipelineAcrossBatch() ? saw_pipelined : saw_shared_sweep) =
            true;
    }
    // Both warm-up paths ran: one sweep shared by both caches
    // (digit_recognition) and a separate pipelined sweep.
    EXPECT_TRUE(saw_shared_sweep);
    EXPECT_TRUE(saw_pipelined);
}

TEST(DeadlineSweepUnit, CalledOncePerConsideredRecord)
{
    std::vector<AppRecord> records;
    for (int i = 0; i < 12; ++i) {
        AppRecord r;
        r.eventIndex = i;
        r.appName = "app";
        r.batch = 1 + i % 5;
        r.priority = static_cast<int>(i % 3 ? Priority::Medium
                                            : Priority::High);
        r.arrival = 0;
        r.retire = simtime::ms(100.0 * (i + 1));
        records.push_back(r);
    }
    std::size_t calls = 0;
    auto unit = [&calls](const AppRecord &r) {
        ++calls;
        return simtime::ms(50.0 * r.batch);
    };

    DeadlineCurve high = deadlineSweep(records, unit);
    EXPECT_EQ(high.ds.size(), 77u);
    EXPECT_EQ(high.consideredEvents, 4u);
    EXPECT_EQ(calls, 4u);

    calls = 0;
    DeadlineSweepConfig all;
    all.onlyHighPriority = false;
    DeadlineCurve every = deadlineSweep(records, unit, all);
    EXPECT_EQ(every.consideredEvents, records.size());
    EXPECT_EQ(calls, records.size());

    // The rates are those of a unit looked up at every step.
    for (std::size_t i = 0; i < every.ds.size(); ++i) {
        std::size_t violations = 0;
        for (const AppRecord &r : records) {
            auto deadline = static_cast<SimTime>(
                every.ds[i] * static_cast<double>(simtime::ms(50.0 * r.batch)));
            violations += r.responseTime() > deadline;
        }
        EXPECT_DOUBLE_EQ(every.violationRate[i],
                         static_cast<double>(violations) / records.size());
    }
}

} // namespace
} // namespace nimblock
