/**
 * @file
 * Self-tests of the benchmark harness: the traced paths must reproduce
 * the public entry points byte for byte, and bad command lines must end
 * in a usage error, never an uncaught FatalError.
 */

#include <gtest/gtest.h>

#include "cli.hh"
#include "sim/logging.hh"
#include "traced.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

class HarnessTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }
};

// The forwarding wrappers change no decision: the first sequence of every
// scenario digests identically through Simulation::run and through the
// composed traced run, for all seven grid schedulers.
TEST_F(HarnessTest, TracedSequenceMatchesSimulation)
{
    GridInputs in = makeGridInputs(kReferenceSeed, 1);
    // The first grid seed's units: one per scenario.
    for (std::size_t u = 0; u < congestionScenarios().size(); ++u) {
        const EventSequence &seq = in.units[u].sequences.front();
        auto ctx = std::make_shared<GridContext>(SystemConfig{});
        ctx->warmSequence(seq, in.registry);
        ctx->freeze();
        for (const std::string &sched : gridSchedulers()) {
            SystemConfig cfg;
            cfg.scheduler = sched;
            RunResult plain =
                Simulation(cfg, in.registry).setGridContext(ctx).run(seq);
            Tracer tracer;
            SchedStats stats;
            std::uint64_t pending = 0;
            RunResult traced = runTracedSequence(cfg, in.registry, seq, *ctx,
                                                 tracer, stats, pending);
            EXPECT_EQ(runDigest(plain), runDigest(traced))
                << in.units[u].label << "/" << sched;
            EXPECT_EQ(plain.eventsFired, traced.eventsFired);
            EXPECT_EQ(plain.hypervisorStats.schedulingPasses,
                      stats.passes + traced.hypervisorStats.purePassesElided);
            EXPECT_EQ(tracer[Span::SimStep].count, traced.eventsFired);
        }
    }
}

// ComposedSoak is SoakEngine rebuilt from public parts: same outcome
// digest on a short horizon of both soak shapes.
TEST_F(HarnessTest, ComposedSoakMatchesSoakEngine)
{
    for (Workload w : {Workload::SoakSaturated, Workload::SoakBacklog}) {
        SoakShape shape = soakShapes(w, kReferenceSeed, 1).front();
        shape.cfg.horizon = w == Workload::SoakSaturated ? simtime::sec(60)
                                                         : simtime::sec(1);
        SoakEngine engine(shape.cfg, shape.tenants, shape.rng);
        SoakStats plain = engine.run();

        Tracer tracer;
        SchedStats stats;
        ComposedSoak soak(shape, tracer, stats);
        soak.start();
        soak.drain();
        SoakStats traced = soak.finish();
        EXPECT_EQ(soakDigest(plain), soakDigest(traced)) << workloadName(w);
        EXPECT_EQ(plain.eventsFired, traced.eventsFired);
        EXPECT_GT(plain.shed, 0u) << workloadName(w);
        EXPECT_GT(tracer[Span::FaasPump].count, 0u);
        EXPECT_EQ(tracer[Span::FaasRecord].count, traced.retired);
    }
}

// The live-depth probe holds the live set at the requested depth.
TEST_F(HarnessTest, DepthProbeHoldsLiveSet)
{
    SchedStats p = depthProbe("fcfs", 64, 200, 5.0);
    ASSERT_GT(p.passes, 0u);
    EXPECT_GE(p.meanLive(), 0.9 * 64);
    EXPECT_LE(p.meanLive(), 1.1 * 64);
}

int
runMain(std::vector<const char *> args)
{
    args.insert(args.begin(), "perfbench");
    return perfbenchMain(static_cast<int>(args.size()),
                         const_cast<char **>(args.data()));
}

TEST_F(HarnessTest, UnknownFlagIsUsageError)
{
    EXPECT_EXIT(runMain({"--workload", "paper_grid", "--bogus"}),
                ::testing::ExitedWithCode(2), "usage");
}

TEST_F(HarnessTest, UnknownWorkloadIsUsageError)
{
    EXPECT_EXIT(runMain({"--workload", "no_such_workload"}),
                ::testing::ExitedWithCode(2), "unknown workload");
}

TEST_F(HarnessTest, MalformedValuesAreUsageErrors)
{
    EXPECT_EXIT(runMain({"--workload", "soak_backlog", "--seed", "12x"}),
                ::testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(runMain({"--workload", "soak_backlog", "--trace", "2"}),
                ::testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(runMain({"--workload", "soak_backlog", "--seconds", "0"}),
                ::testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(runMain({"--seed"}), ::testing::ExitedWithCode(2), "usage");
    EXPECT_EXIT(runMain({}), ::testing::ExitedWithCode(2), "usage");
}

} // namespace
} // namespace perfbench
