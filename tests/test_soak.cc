/**
 * @file
 * Tests for the open-loop streaming soak engine: accounting invariants,
 * seed determinism, event-queue-implementation independence, admission
 * policy behavior under overload, and stepwise execution.
 */

#include <gtest/gtest.h>

#include "apps/app_spec.hh"
#include "faas/soak.hh"
#include "fabric/resources.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "taskgraph/builder.hh"

namespace nimblock {
namespace {

AppSpecPtr
kernelApp(const std::string &name, double latency_ms)
{
    GraphBuilder b;
    TaskSpec t;
    t.name = name + "_k";
    t.itemLatency = simtime::msF(latency_ms);
    b.addTask(std::move(t));
    return std::make_shared<AppSpec>(name, name, b.build());
}

std::vector<TenantSpec>
twoTenants()
{
    std::vector<TenantSpec> out(2);
    out[0].name = "fast";
    out[0].app = kernelApp("soak_t_fast", 5.0);
    out[0].priority = Priority::High;
    out[0].users = 3000;
    out[1].name = "slow";
    out[1].app = kernelApp("soak_t_slow", 20.0);
    out[1].users = 1000;
    return out;
}

/** Lightly loaded two-board baseline configuration. */
SoakConfig
baseConfig()
{
    SoakConfig cfg;
    cfg.cluster.numBoards = 2;
    cfg.cluster.board.scheduler = "fcfs";
    cfg.cluster.board.hypervisor.allowReconfigSkip = true;
    cfg.arrivals.ratePerSec = 400.0;
    cfg.horizon = simtime::sec(10);
    cfg.admission.policy = AdmissionPolicy::QueueDepth;
    cfg.admission.queueDepthCap = 64;
    cfg.appPoolSize = 64;
    return cfg;
}

class SoakTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }

    static void
    expectSameStats(const SoakStats &a, const SoakStats &b)
    {
        EXPECT_EQ(a.submitted, b.submitted);
        EXPECT_EQ(a.admitted, b.admitted);
        EXPECT_EQ(a.shed, b.shed);
        EXPECT_EQ(a.retired, b.retired);
        EXPECT_EQ(a.eventsFired, b.eventsFired);
        EXPECT_DOUBLE_EQ(a.simSeconds, b.simSeconds);
        EXPECT_EQ(a.peakLive, b.peakLive);
        EXPECT_TRUE(a.latencyNs == b.latencyNs);
        EXPECT_DOUBLE_EQ(a.slaAttainment, b.slaAttainment);
        EXPECT_DOUBLE_EQ(a.worstWindowAttainment, b.worstWindowAttainment);
    }
};

TEST_F(SoakTest, AccountingClosesAndEveryAdmissionRetires)
{
    SoakEngine engine(baseConfig(), twoTenants(), Rng(2023));
    SoakStats s = engine.run();

    EXPECT_GT(s.submitted, 0u);
    EXPECT_EQ(s.submitted, s.admitted + s.shed);
    EXPECT_EQ(s.retired, s.admitted);
    EXPECT_EQ(s.latencyNs.count(), s.retired);
    // Light load on a 2x10-slot cluster: ~4000 arrivals at a tenth of
    // service capacity should all be admitted.
    EXPECT_EQ(s.shed, 0u);
    EXPECT_GE(s.simSeconds, 10.0);
    EXPECT_GT(s.eventsFired, s.retired);
    EXPECT_GE(s.slaAttainment, 0.0);
    EXPECT_LE(s.slaAttainment, 1.0);
    EXPECT_LE(s.worstWindowAttainment, 1.0);
    // Quantiles are monotone in q.
    EXPECT_LE(s.latencyNs.quantile(0.50), s.latencyNs.quantile(0.99));
    EXPECT_LE(s.latencyNs.quantile(0.99), s.latencyNs.quantile(0.999));
    EXPECT_LE(s.latencyNs.quantile(0.999), s.latencyNs.max());
}

TEST_F(SoakTest, SameSeedIsByteIdenticalAcrossRuns)
{
    SoakEngine a(baseConfig(), twoTenants(), Rng(7));
    SoakEngine b(baseConfig(), twoTenants(), Rng(7));
    expectSameStats(a.run(), b.run());

    // A different seed must actually change the run.
    SoakEngine c(baseConfig(), twoTenants(), Rng(8));
    SoakStats sc = c.run();
    SoakEngine a2(baseConfig(), twoTenants(), Rng(7));
    EXPECT_FALSE(a2.run().latencyNs == sc.latencyNs);
}

TEST_F(SoakTest, QueueDepthBoundsLiveSetUnderOverload)
{
    SoakConfig cfg = baseConfig();
    cfg.cluster.numBoards = 1;
    // 20 ms kernels on 10 slots serve ~500/s; offer 4x that.
    cfg.arrivals.ratePerSec = 2000.0;
    cfg.horizon = simtime::sec(5);
    cfg.admission.queueDepthCap = 16;
    cfg.appPoolSize = 16;

    std::vector<TenantSpec> tenants(1);
    tenants[0].name = "hot";
    tenants[0].app = kernelApp("soak_t_hot", 20.0);
    tenants[0].users = 100;

    SoakEngine engine(cfg, tenants, Rng(5));
    SoakStats s = engine.run();
    EXPECT_EQ(s.submitted, s.admitted + s.shed);
    EXPECT_GT(s.shed, 0u);
    EXPECT_LE(s.peakLive, 16u);
    EXPECT_EQ(s.retired, s.admitted);
}

TEST_F(SoakTest, NoneAdmissionAdmitsEverything)
{
    SoakConfig cfg = baseConfig();
    cfg.admission.policy = AdmissionPolicy::None;
    cfg.horizon = simtime::sec(3);
    SoakEngine engine(cfg, twoTenants(), Rng(3));
    SoakStats s = engine.run();
    EXPECT_EQ(s.shed, 0u);
    EXPECT_EQ(s.admitted, s.submitted);
}

TEST_F(SoakTest, TokenBucketShedsTheRateExcess)
{
    SoakConfig cfg = baseConfig();
    cfg.cluster.numBoards = 1;
    cfg.arrivals.ratePerSec = 1000.0;
    cfg.horizon = simtime::sec(10);
    cfg.admission.policy = AdmissionPolicy::TokenBucket;
    // Two tenants splitting 1000/s 3:1 against a 200/s per-tenant refill:
    // the 750/s tenant sheds most of its traffic, the 250/s one little.
    cfg.admission.tokensPerSec = 200.0;
    cfg.admission.bucketCapacity = 50.0;

    SoakEngine engine(cfg, twoTenants(), Rng(11));
    SoakStats s = engine.run();
    EXPECT_GT(s.shed, 0u);
    EXPECT_EQ(s.submitted, s.admitted + s.shed);
    // Admitted rate is capped near numTenants x tokensPerSec.
    EXPECT_LT(static_cast<double>(s.admitted), 10.0 * 2 * 200.0 * 1.25);
    EXPECT_GT(engine.admission().shedCountOf(0),
              engine.admission().shedCountOf(1));
}

TEST_F(SoakTest, StepwiseExecutionMatchesRun)
{
    SoakEngine one_shot(baseConfig(), twoTenants(), Rng(13));
    SoakStats a = one_shot.run();

    SoakEngine stepped(baseConfig(), twoTenants(), Rng(13));
    stepped.start();
    EXPECT_TRUE(stepped.pumping());
    std::uint64_t steps = 0;
    while (stepped.step())
        ++steps;
    EXPECT_FALSE(stepped.pumping());
    SoakStats b = stepped.finish();
    expectSameStats(a, b);
    EXPECT_EQ(steps, b.eventsFired);
}

TEST_F(SoakTest, RejectsBrokenLifecyclesAndConfigs)
{
    SoakConfig cfg = baseConfig();
    SoakEngine engine(cfg, twoTenants(), Rng(1));
    EXPECT_THROW(engine.finish(), FatalError); // finish before start
    engine.start();
    EXPECT_THROW(engine.start(), FatalError); // double start

    cfg.horizon = 0;
    EXPECT_THROW(SoakEngine(cfg, twoTenants(), Rng(1)), FatalError);
    cfg = baseConfig();
    cfg.slaFactor = 0.0;
    EXPECT_THROW(SoakEngine(cfg, twoTenants(), Rng(1)), FatalError);
}

} // namespace
} // namespace nimblock
