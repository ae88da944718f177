/**
 * @file
 * Unit tests for saturation analysis and goal numbers (§4.2).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "alloc/saturation.hh"
#include "apps/benchmarks.hh"
#include "sim/logging.hh"
#include "taskgraph/builder.hh"

namespace nimblock {
namespace {

TaskGraph
chain(std::size_t n, SimTime lat)
{
    GraphBuilder b;
    b.chain("c", std::vector<SimTime>(n, lat));
    return b.build();
}

TEST(Saturation, SweepCoversAllSlotCounts)
{
    // The sweep stops one point past the knee; the whole curve comes
    // from estimateMakespan, and the analysis must agree with it.
    TaskGraph g = chain(4, simtime::ms(100));
    MakespanParams p;
    p.batch = 4;
    std::vector<SimTime> curve;
    for (std::size_t k = 1; k <= 10; ++k) {
        p.slots = k;
        curve.push_back(estimateMakespan(g, p));
    }
    auto analysis = analyzeSaturation(g, 10, p);
    std::size_t knee = 10;
    for (std::size_t k = 1; k < 10; ++k) {
        double before = static_cast<double>(curve[k - 1]);
        double after = static_cast<double>(curve[k]);
        if ((before - after) / before < 0.03) {
            knee = k;
            break;
        }
    }
    EXPECT_EQ(analysis.saturationPoint, knee);
    ASSERT_EQ(analysis.makespans.size(), std::min<std::size_t>(knee + 1, 10));
    for (std::size_t i = 0; i < analysis.makespans.size(); ++i)
        EXPECT_EQ(analysis.makespans[i], curve[i]) << "k = " << i + 1;
}

TEST(Saturation, MakespansAreNonIncreasing)
{
    auto spec = benchmarks::opticalFlow();
    MakespanParams p;
    p.batch = 10;
    auto analysis = analyzeSaturation(spec->graph(), 10, p);
    for (std::size_t i = 1; i < analysis.makespans.size(); ++i)
        EXPECT_LE(analysis.makespans[i], analysis.makespans[i - 1]);
}

TEST(Saturation, SingleTaskSaturatesAtOneSlot)
{
    TaskGraph g = chain(1, simtime::ms(100));
    MakespanParams p;
    p.batch = 8;
    auto analysis = analyzeSaturation(g, 10, p);
    EXPECT_EQ(analysis.saturationPoint, 1u);
}

TEST(Saturation, SecondSlotHelpsPipelinedChains)
{
    // The paper notes "allocating a second slot provides the greatest
    // benefit" for pipelining apps.
    TaskGraph g = chain(3, simtime::ms(500));
    MakespanParams p;
    p.pipelined = true;
    p.batch = 10;
    auto analysis = analyzeSaturation(g, 10, p);
    double improvement =
        1.0 - static_cast<double>(analysis.makespans[1]) /
                  static_cast<double>(analysis.makespans[0]);
    EXPECT_GT(improvement, 0.2);
    EXPECT_GE(analysis.saturationPoint, 2u);
}

TEST(Saturation, BulkChainSaturatesEarly)
{
    // Without pipelining a chain cannot use a second slot for compute,
    // only for hiding reconfiguration; goal stays small.
    TaskGraph g = chain(5, simtime::sec(2));
    MakespanParams p;
    p.pipelined = false;
    p.batch = 10;
    auto analysis = analyzeSaturation(g, 10, p);
    EXPECT_LE(analysis.saturationPoint, 2u);
}

TEST(GoalNumberCache, CachesPerAppAndBatch)
{
    MakespanParams p;
    GoalNumberCache cache(10, p);
    auto spec = benchmarks::lenet();
    std::size_t g1 = cache.goalNumber(*spec, 5);
    std::size_t g2 = cache.goalNumber(*spec, 5);
    EXPECT_EQ(g1, g2);
    EXPECT_EQ(cache.size(), 1u);
    cache.goalNumber(*spec, 10);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(GoalNumberCache, GoalNeverExceedsSlotCount)
{
    MakespanParams p;
    GoalNumberCache cache(6, p);
    for (const auto &spec : benchmarks::all()) {
        for (int batch : {1, 5, 30}) {
            std::size_t goal = cache.goalNumber(*spec, batch);
            EXPECT_GE(goal, 1u) << spec->name();
            EXPECT_LE(goal, 6u) << spec->name();
        }
    }
}

TEST(GoalNumberCache, NonPipelineableAppGetsBulkGoal)
{
    MakespanParams p;
    p.pipelined = true;
    GoalNumberCache cache(10, p);
    // Digit recognition cannot pipeline across batches: extra slots only
    // prefetch reconfigurations, so its goal stays small even at large
    // batch sizes.
    std::size_t goal = cache.goalNumber(*benchmarks::digitRecognition(), 30);
    EXPECT_LE(goal, 2u);
}

TEST(GoalNumberCache, AlexNetUsesManySlots)
{
    MakespanParams p;
    GoalNumberCache cache(10, p);
    EXPECT_GE(cache.goalNumber(*benchmarks::alexnet(), 5), 4u);
}

TEST(Saturation, RejectsZeroSlots)
{
    TaskGraph g = chain(1, simtime::ms(1));
    MakespanParams p;
    EXPECT_THROW(analyzeSaturation(g, 0, p), FatalError);
    EXPECT_THROW(GoalNumberCache(0, p), FatalError);
}

} // namespace
} // namespace nimblock
