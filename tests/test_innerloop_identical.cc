/**
 * @file
 * Golden equivalence test for the inner-loop optimizations.
 *
 * Idle-tick and pure-pass elision must be invisible in results: for every
 * evaluation scheduler, a run must produce the per-application records,
 * makespan and result-bearing counters of the eager hypervisor, which
 * ran every tick and every pass body. Only the bookkeeping counters that
 * measure the elision itself (scheduling passes and kernel events fired)
 * may differ, and the elided run must never do *more* work. The eager
 * side is pinned by goldens recorded from the last build that could still
 * run it; the other tests compare two configurations that still exist.
 */

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "apps/registry.hh"
#include "core/experiment.hh"
#include "core/simulation.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"
#include "workload/scenario.hh"

namespace nimblock {
namespace {

/** Serialize every field of every record into one comparable string. */
std::string
recordsCsv(const RunResult &result)
{
    std::string out = "eventIndex,appName,batch,priority,arrival,"
                      "firstLaunch,retire,runTime,reconfigTime,"
                      "reconfigs,preemptions\n";
    char line[256];
    for (const AppRecord &r : result.records) {
        std::snprintf(line, sizeof(line),
                      "%d,%s,%d,%d,%lld,%lld,%lld,%lld,%lld,%d,%d\n",
                      r.eventIndex, r.appName.c_str(), r.batch, r.priority,
                      static_cast<long long>(r.arrival),
                      static_cast<long long>(r.firstLaunch),
                      static_cast<long long>(r.retire),
                      static_cast<long long>(r.runTime),
                      static_cast<long long>(r.reconfigTime), r.reconfigs,
                      r.preemptions);
        out += line;
    }
    return out;
}

/** FNV-1a over recordsCsv(): the records digest of a golden. */
std::uint64_t
recordsDigest(const RunResult &result)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : recordsCsv(result)) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * One run of the eager hypervisor: idle ticks never parked (the first
 * three tests) or every pass body executed (the pure-pass test). The
 * last field is the pure-pass count of the same run with both elisions
 * on, which is the only hypervisor left.
 */
struct EagerGolden
{
    const char *scheduler;
    std::uint64_t records;
    SimTime makespan;
    std::uint64_t retired;
    std::uint64_t configures;
    std::uint64_t preemptions;
    std::uint64_t items;
    std::uint64_t passes;
    std::uint64_t events;
    std::uint64_t eagerElided; //!< purePassesElided of the eager run.
    std::uint64_t elided;      //!< purePassesElided with both elisions.
};

/**
 * The elided run @p r against its eager golden: identical results,
 * never more passes or events, the recorded elision count.
 */
void
expectMatchesEager(const RunResult &r, const EagerGolden &g)
{
    SCOPED_TRACE(g.scheduler);
    EXPECT_EQ(recordsDigest(r), g.records);
    EXPECT_EQ(r.makespan, g.makespan);
    EXPECT_EQ(r.hypervisorStats.appsRetired, g.retired);
    EXPECT_EQ(r.hypervisorStats.configuresIssued, g.configures);
    EXPECT_EQ(r.hypervisorStats.preemptionsHonored, g.preemptions);
    EXPECT_EQ(r.hypervisorStats.itemsExecuted, g.items);
    EXPECT_LE(r.hypervisorStats.schedulingPasses, g.passes);
    EXPECT_LE(r.eventsFired, g.events);
    EXPECT_EQ(r.hypervisorStats.purePassesElided, g.elided);
}

// Recorded at commit 940e6dc, the last with the elision knobs, with
// idle-tick elision off and pure-pass elision on.
constexpr EagerGolden kSparseIdleGoldens[] = {
    {"baseline", 0x239eb1c443a0f3fcull, 29132460619, 6, 18, 0, 48, 144,
     294, 70, 11},
    {"fcfs", 0x42be682920a88027ull, 29304432779, 6, 18, 0, 48, 145, 296, 68,
     12},
    {"prema", 0x42be682920a88027ull, 29304432779, 6, 18, 0, 48, 145, 296, 0,
     0},
    {"rr", 0x835bc2ad3846c915ull, 29436261899, 6, 18, 0, 48, 145, 308, 67,
     11},
    {"nimblock", 0x1992389c0748afacull, 29304432779, 6, 18, 0, 48, 145, 299,
     0, 0},
};

constexpr EagerGolden kTickAlignedGoldens[] = {
    {"baseline", 0x0d280b55affd3eeaull, 16300282528, 3, 12, 0, 18, 70, 152,
     37, 1},
    {"fcfs", 0x01edf261d706b6f7ull, 16405531104, 3, 12, 0, 18, 71, 154, 35,
     1},
    {"prema", 0x01edf261d706b6f7ull, 16405531104, 3, 12, 0, 18, 71, 154, 0,
     0},
    {"rr", 0x8e679bd355a94da7ull, 16537360224, 3, 12, 0, 18, 71, 157, 34, 0},
    {"nimblock", 0x00980b5344bb305dull, 16405531104, 3, 12, 0, 18, 71, 154,
     0, 0},
};

constexpr EagerGolden kIdleSavingGolden = {
    "nimblock", 0xdf5e4d372b00d0caull, 30405531104, 2, 6, 0, 6, 89, 182, 0,
    0};

// Recorded at the same commit with pure-pass elision off and idle-tick
// elision on.
constexpr EagerGolden kPurePassGoldens[] = {
    {"baseline", 0x3bc55fd61b2e687cull, 1721346832644, 8, 167, 0, 460, 4665,
     9653, 0, 4288},
    {"fcfs", 0xfaf888838fa61317ull, 788266248905, 8, 167, 0, 460, 2583, 5312,
     0, 1938},
    {"prema", 0x3ae820b9cdb61868ull, 820414983293, 8, 167, 0, 460, 2686,
     5516, 0, 0},
    {"rr", 0x38c6b9e013fd82a6ull, 790884084290, 8, 167, 0, 460, 2609, 5372,
     0, 1953},
    {"nimblock", 0x536f33c6cb40832full, 826802863908, 8, 168, 1, 460, 2650,
     5492, 0, 0},
};

class InnerloopIdenticalTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }

    RunResult
    run(const std::string &scheduler, const EventSequence &seq)
    {
        SystemConfig cfg;
        cfg.scheduler = scheduler;
        return Simulation(cfg, registry).run(seq);
    }

    /** Run with an arbitrary config tweak applied on top of defaults. */
    template <typename Tweak>
    RunResult
    runWith(const std::string &scheduler, const EventSequence &seq,
            Tweak tweak)
    {
        SystemConfig cfg;
        cfg.scheduler = scheduler;
        tweak(cfg);
        return Simulation(cfg, registry).run(seq);
    }

    /** A dense mixed-priority sequence that keeps the fabric contended. */
    EventSequence
    denseSequence() const
    {
        GeneratorConfig gen;
        gen.numEvents = 8;
        gen.appPool = {"lenet", "alexnet", "image_compression",
                       "3d_rendering", "digit_recognition"};
        gen.minDelayMs = 50;
        gen.maxDelayMs = 800;
        gen.minBatch = 1;
        gen.maxBatch = 6;
        return generateSequence("dense", gen, Rng(7));
    }

    AppRegistry registry = standardRegistry();
};

TEST_F(InnerloopIdenticalTest, ElisionIsResultInvariantForEveryScheduler)
{
    // Sparse arrivals so the fabric actually drains between applications
    // — the only regime where idle-tick elision changes anything.
    GeneratorConfig gen;
    gen.numEvents = 6;
    gen.appPool = {"lenet", "image_compression", "3d_rendering"};
    gen.minDelayMs = 2000;
    gen.maxDelayMs = 6000;
    gen.minBatch = 1;
    gen.maxBatch = 4;
    EventSequence seq = generateSequence("golden", gen, Rng(42));

    ASSERT_EQ(std::size(kSparseIdleGoldens), evaluationSchedulers().size());
    for (const EagerGolden &g : kSparseIdleGoldens)
        expectMatchesEager(run(g.scheduler, seq), g);
}

TEST_F(InnerloopIdenticalTest, TickAlignedSubmitsAreResultInvariant)
{
    // Submits landing EXACTLY on the tick grid (default schedInterval is
    // 400ms) make the aligned restart fire co-timed with the arrival:
    // the restarted tick must still order after the pending arrival pass
    // just like a free-running tick armed one period earlier would (see
    // PeriodicEvent::startAligned). Spacing lets the fabric drain so the
    // elided run really stops and restarts the timer at each arrival.
    EventSequence seq;
    seq.name = "tick_aligned";
    seq.events.push_back(
        WorkloadEvent{0, "lenet", 1, Priority::Medium, simtime::ms(400)});
    seq.events.push_back(WorkloadEvent{1, "image_compression", 2,
                                       Priority::High, simtime::sec(8)});
    seq.events.push_back(WorkloadEvent{2, "lenet", 1, Priority::Low,
                                       simtime::sec(16)});

    ASSERT_EQ(std::size(kTickAlignedGoldens), evaluationSchedulers().size());
    for (const EagerGolden &g : kTickAlignedGoldens)
        expectMatchesEager(run(g.scheduler, seq), g);
}

TEST_F(InnerloopIdenticalTest, ElisionActuallySavesTicksWhenIdle)
{
    // Two widely spaced short applications leave the fabric idle for
    // seconds; the elided run must skip those ticks.
    EventSequence seq;
    seq.name = "sparse";
    seq.events.push_back(
        WorkloadEvent{0, "lenet", 1, Priority::Medium, simtime::ms(1)});
    seq.events.push_back(WorkloadEvent{1, "lenet", 1, Priority::Medium,
                                       simtime::sec(30)});

    const EagerGolden &g = kIdleSavingGolden;
    RunResult on = run(g.scheduler, seq);
    expectMatchesEager(on, g);
    EXPECT_LT(on.hypervisorStats.schedulingPasses, g.passes);
    EXPECT_LT(on.eventsFired, g.events);
}

TEST_F(InnerloopIdenticalTest, PurePassElisionIsResultInvariant)
{
    // Eliding the no-op body of pure scheduler passes (FCFS/RR/static
    // with no state change) must be invisible in results; the elided pass
    // still counts as a pass, and only the elision counter itself may
    // differ from the eager run, and only upward.
    EventSequence seq = denseSequence();
    ASSERT_EQ(std::size(kPurePassGoldens), evaluationSchedulers().size());
    for (const EagerGolden &g : kPurePassGoldens) {
        RunResult on = run(g.scheduler, seq);
        expectMatchesEager(on, g);
        EXPECT_EQ(on.hypervisorStats.schedulingPasses, g.passes)
            << g.scheduler;
        EXPECT_EQ(g.eagerElided, 0u) << g.scheduler;
        EXPECT_GE(on.hypervisorStats.purePassesElided, g.eagerElided)
            << g.scheduler;
    }
}

TEST_F(InnerloopIdenticalTest, AppInstancePoolingIsResultInvariant)
{
    // Instance recycling (hypervisor appPoolSize, the soak steady-state
    // enabler) reuses AppInstance storage and ids; with it on, every
    // record, timing and event count must match the pool-free run.
    EventSequence seq = denseSequence();
    for (const std::string &name : evaluationSchedulers()) {
        RunResult off = runWith(name, seq, [](SystemConfig &cfg) {
            cfg.hypervisor.appPoolSize = 0;
        });
        RunResult on = runWith(name, seq, [](SystemConfig &cfg) {
            cfg.hypervisor.appPoolSize = 32;
        });

        EXPECT_EQ(recordsCsv(off), recordsCsv(on)) << name;
        EXPECT_EQ(off.makespan, on.makespan) << name;
        EXPECT_EQ(off.eventsFired, on.eventsFired) << name;
        EXPECT_EQ(off.hypervisorStats.schedulingPasses,
                  on.hypervisorStats.schedulingPasses)
            << name;
    }
}

TEST_F(InnerloopIdenticalTest, GridContextInterningIsResultInvariant)
{
    // ExperimentGrid runs share one frozen GridContext (pre-computed
    // latency estimates, goal-number sweeps, pre-interned bitstream
    // names); a context-free solo Simulation fills the same caches
    // organically mid-run. Both paths must agree byte-for-byte.
    EventSequence seq = denseSequence();
    for (const std::string &name : evaluationSchedulers()) {
        SystemConfig cfg;
        cfg.scheduler = name;
        RunResult solo = Simulation(cfg, registry).run(seq);

        ExperimentGrid grid(cfg, registry);
        auto results = grid.runAll({name}, {seq});
        ASSERT_EQ(results.at(name).runs.size(), 1u) << name;
        const RunResult &shared = results.at(name).runs[0];

        EXPECT_EQ(recordsCsv(solo), recordsCsv(shared)) << name;
        EXPECT_EQ(solo.makespan, shared.makespan) << name;
        EXPECT_EQ(solo.eventsFired, shared.eventsFired) << name;
        EXPECT_EQ(solo.hypervisorStats.schedulingPasses,
                  shared.hypervisorStats.schedulingPasses)
            << name;
    }
}

} // namespace
} // namespace nimblock
