/**
 * @file
 * Unit tests for the PREMA token policy (Algorithm 1).
 */

#include <gtest/gtest.h>

#include <memory>

#include "apps/benchmarks.hh"
#include "sched/prema_tokens.hh"
#include "sim/logging.hh"

namespace nimblock {
namespace {

class TokenTest : public ::testing::Test
{
  protected:
    std::unique_ptr<AppInstance>
    makeApp(AppInstanceId id, Priority prio, SimTime arrival,
            AppSpecPtr spec = benchmarks::lenet(), int batch = 2)
    {
        auto app = std::make_unique<AppInstance>(id, spec, batch, prio,
                                                 arrival, 0);
        owned.push_back(std::move(app));
        return nullptr; // Unused; apps tracked via owned.
    }

    AppInstance *
    add(Priority prio, SimTime arrival, AppSpecPtr spec = benchmarks::lenet(),
        int batch = 2)
    {
        owned.push_back(std::make_unique<AppInstance>(
            static_cast<AppInstanceId>(owned.size() + 1), spec, batch, prio,
            arrival, 0));
        AppInstance *app = owned.back().get();
        // Simple estimate: batch x summed item latency.
        app->setLatencyEstimate(
            app->graph().totalEstimatedItemLatency() * app->batch());
        apps.push_back(app);
        return app;
    }

    TokenPolicy
    policy(double alpha = 1.0)
    {
        TokenPolicyConfig cfg;
        cfg.alpha = alpha;
        return TokenPolicy(cfg);
    }

    std::vector<std::unique_ptr<AppInstance>> owned;
    std::vector<AppInstance *> apps;
};

TEST_F(TokenTest, FloorToPriorityLevel)
{
    EXPECT_DOUBLE_EQ(TokenPolicy::floorToPriorityLevel(0.5), 0.0);
    EXPECT_DOUBLE_EQ(TokenPolicy::floorToPriorityLevel(1.0), 1.0);
    EXPECT_DOUBLE_EQ(TokenPolicy::floorToPriorityLevel(2.9), 1.0);
    EXPECT_DOUBLE_EQ(TokenPolicy::floorToPriorityLevel(3.0), 3.0);
    EXPECT_DOUBLE_EQ(TokenPolicy::floorToPriorityLevel(8.99), 3.0);
    EXPECT_DOUBLE_EQ(TokenPolicy::floorToPriorityLevel(9.0), 9.0);
    EXPECT_DOUBLE_EQ(TokenPolicy::floorToPriorityLevel(1234.0), 9.0);
}

TEST_F(TokenTest, NewArrivalsGetPriorityTokens)
{
    add(Priority::Low, 0);
    add(Priority::Medium, 0);
    add(Priority::High, 0);
    TokenPolicy tp = policy();
    tp.update(apps, 0);
    EXPECT_DOUBLE_EQ(apps[0]->token(), 1.0);
    EXPECT_DOUBLE_EQ(apps[1]->token(), 3.0);
    EXPECT_DOUBLE_EQ(apps[2]->token(), 9.0);
}

TEST_F(TokenTest, HighPriorityIsImmediateCandidate)
{
    add(Priority::Low, 0);
    add(Priority::High, 0);
    TokenPolicy tp = policy();
    auto candidates = tp.update(apps, 0);
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0]->priority(), Priority::High);
    EXPECT_DOUBLE_EQ(tp.threshold(), 9.0);
}

TEST_F(TokenTest, TokensGrowWithWaiting)
{
    add(Priority::Medium, 0);
    TokenPolicy tp = policy();
    tp.update(apps, 0);
    double t0 = apps[0]->token();
    tp.update(apps, simtime::sec(1));
    double t1 = apps[0]->token();
    EXPECT_GT(t1, t0);
    // Degradation is normalized to the max: a single app always gains the
    // full alpha x priority.
    EXPECT_DOUBLE_EQ(t1 - t0, 3.0);
}

TEST_F(TokenTest, ShorterAppsDegradeFaster)
{
    AppInstance *short_app = add(Priority::Low, 0, benchmarks::lenet(), 1);
    AppInstance *long_app =
        add(Priority::Low, 0, benchmarks::digitRecognition(), 30);
    TokenPolicy tp = policy();
    tp.update(apps, 0);
    tp.update(apps, simtime::sec(5));
    EXPECT_GT(short_app->token(), long_app->token());
}

TEST_F(TokenTest, LowPriorityEventuallyBecomesCandidate)
{
    AppInstance *low = add(Priority::Low, 0);
    add(Priority::High, 0);
    TokenPolicy tp = policy();
    bool low_candidate = false;
    for (int tick = 0; tick <= 40 && !low_candidate; ++tick) {
        auto candidates =
            tp.update(apps, simtime::ms(400) * static_cast<SimTime>(tick));
        for (AppInstance *c : candidates)
            low_candidate |= c == low;
    }
    EXPECT_TRUE(low_candidate);
}

TEST_F(TokenTest, CandidateMarksStickyMetadata)
{
    AppInstance *high = add(Priority::High, 0);
    TokenPolicy tp = policy();
    tp.update(apps, simtime::ms(7));
    EXPECT_TRUE(high->everCandidate());
    EXPECT_EQ(high->candidateSince(), simtime::ms(7));
    tp.update(apps, simtime::ms(99));
    EXPECT_EQ(high->candidateSince(), simtime::ms(7));
}

TEST_F(TokenTest, EmptyPoolYieldsNoCandidates)
{
    TokenPolicy tp = policy();
    auto candidates = tp.update({}, 0);
    EXPECT_TRUE(candidates.empty());
    EXPECT_DOUBLE_EQ(tp.threshold(), 0.0);
}

TEST_F(TokenTest, AlphaZeroFreezesAccumulation)
{
    add(Priority::Medium, 0);
    TokenPolicy tp = policy(0.0);
    tp.update(apps, 0);
    tp.update(apps, simtime::sec(10));
    EXPECT_DOUBLE_EQ(apps[0]->token(), 3.0);
}

TEST_F(TokenTest, AccumulatesOnMatchesPaperTriggers)
{
    EXPECT_TRUE(TokenPolicy::accumulatesOn(SchedEvent::Tick));
    EXPECT_TRUE(TokenPolicy::accumulatesOn(SchedEvent::Arrival));
    EXPECT_TRUE(TokenPolicy::accumulatesOn(SchedEvent::AppDone));
    EXPECT_FALSE(TokenPolicy::accumulatesOn(SchedEvent::ItemBoundary));
    EXPECT_FALSE(TokenPolicy::accumulatesOn(SchedEvent::ReconfigDone));
    EXPECT_FALSE(TokenPolicy::accumulatesOn(SchedEvent::TaskDone));
    EXPECT_FALSE(TokenPolicy::accumulatesOn(SchedEvent::PreemptDone));
}

TEST_F(TokenTest, RejectsBadConfig)
{
    TokenPolicyConfig cfg;
    cfg.alpha = -1.0;
    EXPECT_THROW(TokenPolicy{cfg}, FatalError);

    // An app whose scheduler never memoized its latency estimate is a
    // simulator bug: the token step panics.
    AppInstance *app = add(Priority::Low, 0);
    app->setLatencyEstimate(kTimeNone);
    TokenPolicy tp = policy();
    EXPECT_DEATH(tp.update(apps, 0), "no latency estimate");
}

} // namespace
} // namespace nimblock
