/**
 * @file
 * Heterogeneous fabric & energy subsystem tests: slot-class validation,
 * fairness metrics, energy-accounting closure, and the themis scheduler.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "apps/registry.hh"
#include "core/simulation.hh"
#include "metrics/fairness.hh"
#include "sched/factory.hh"
#include "sched/themis.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"

namespace nimblock {
namespace {

EventSequence
smallSequence(std::uint64_t seed = 7, int events = 6)
{
    GeneratorConfig cfg;
    cfg.numEvents = events;
    cfg.appPool = {"lenet", "image_compression", "3d_rendering"};
    cfg.minDelayMs = 100;
    cfg.maxDelayMs = 300;
    cfg.minBatch = 1;
    cfg.maxBatch = 6;
    return generateSequence("small", cfg, Rng(seed));
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

class EnergyTest : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { setQuiet(false); }

    AppRegistry registry = standardRegistry();
};

// ---------------------------------------------------------------------
// Slot-class configuration validation (fatal at construction).
// ---------------------------------------------------------------------

TEST(SlotClassValidation, UnknownClassInBoardLayoutThrows)
{
    EventQueue eq;
    FabricConfig fc;
    SlotClassConfig c;
    c.name = "big";
    fc.slotClasses = {c};
    fc.boardLayout.assign(fc.numSlots, "nonesuch");
    EXPECT_THROW((Fabric(eq, fc)), FatalError);
}

TEST(SlotClassValidation, BoardLayoutSizeMismatchThrows)
{
    EventQueue eq;
    FabricConfig fc;
    fc.boardLayout = {"default"};
    EXPECT_THROW((Fabric(eq, fc)), FatalError);
}

TEST(SlotClassValidation, DuplicateClassNameThrows)
{
    EventQueue eq;
    FabricConfig fc;
    SlotClassConfig c;
    c.name = "dup";
    fc.slotClasses = {c, c};
    EXPECT_THROW((Fabric(eq, fc)), FatalError);
}

TEST(SlotClassValidation, NegativePowerCoefficientThrows)
{
    EventQueue eq;
    FabricConfig fc;
    SlotClassConfig c;
    c.name = "bad";
    c.staticPowerWatts = -1.0;
    fc.slotClasses = {c};
    EXPECT_THROW((Fabric(eq, fc)), FatalError);
}

TEST(SlotClassValidation, NonPositiveReconfigScaleThrows)
{
    EventQueue eq;
    FabricConfig fc;
    SlotClassConfig c;
    c.name = "bad";
    c.reconfigScale = 0.0;
    fc.slotClasses = {c};
    EXPECT_THROW((Fabric(eq, fc)), FatalError);
}

TEST(SlotClassValidation, KernelRuleUnknownClassThrows)
{
    EventQueue eq;
    FabricConfig fc;
    fc.kernelRules.push_back({"lenet", "nonesuch", true, 1.0});
    EXPECT_THROW((Fabric(eq, fc)), FatalError);
}

TEST(SlotClassValidation, KernelCompatibleWithZeroClassesThrows)
{
    EventQueue eq;
    FabricConfig fc;
    SlotClassConfig c; // Single "default" class...
    fc.slotClasses = {c};
    // ...and the kernel is forbidden from it: nowhere to run.
    fc.kernelRules.push_back({"lenet", "default", false, 1.0});
    EXPECT_THROW((Fabric(eq, fc)), FatalError);
}

TEST(SlotClassValidation, ValidHeterogeneousConfigConstructs)
{
    EventQueue eq;
    Fabric fabric(eq, twoClassFabric());
    EXPECT_TRUE(fabric.heterogeneous());
    EXPECT_EQ(fabric.numSlotClasses(), 2u);
    EXPECT_EQ(fabric.slotClassOf(0), 0u);
    EXPECT_EQ(fabric.slotClassOf(9), 1u);
    EXPECT_EQ(fabric.slotClass(0).name, "big");
    BitstreamNameId lenet = fabric.internBitstreamName("lenet");
    BitstreamNameId other = fabric.internBitstreamName("other");
    EXPECT_TRUE(fabric.kernelCompatible(lenet, 0));
    EXPECT_DOUBLE_EQ(fabric.kernelSpeedup(lenet, 0), 1.5);
    EXPECT_DOUBLE_EQ(fabric.kernelSpeedup(lenet, 1), 1.0);
    EXPECT_DOUBLE_EQ(fabric.kernelSpeedup(other, 0), 1.0);
}

TEST(SlotClassValidation, UniformBoardIsNotHeterogeneous)
{
    EventQueue eq;
    Fabric fabric(eq, FabricConfig{});
    EXPECT_FALSE(fabric.heterogeneous());
    EXPECT_EQ(fabric.numSlotClasses(), 1u);
    for (SlotId s = 0; s < fabric.numSlots(); ++s)
        EXPECT_EQ(fabric.slotClassOf(s), 0u);
}

TEST(ThemisValidation, BadWeightsThrow)
{
    ThemisConfig bad_time;
    bad_time.timeWeight = 0.0;
    EXPECT_THROW((ThemisScheduler(bad_time)), FatalError);
    ThemisConfig bad_energy;
    bad_energy.energyWeight = -0.1;
    EXPECT_THROW((ThemisScheduler(bad_energy)), FatalError);
}

// ---------------------------------------------------------------------
// Fairness metrics.
// ---------------------------------------------------------------------

TEST(Fairness, SingleTenantIsPerfectlyFair)
{
    EXPECT_DOUBLE_EQ(jainsIndex({5.0}), 1.0);
    EXPECT_DOUBLE_EQ(maxMinShare({5.0}), 1.0);
}

TEST(Fairness, AllEqualIsPerfectlyFair)
{
    std::vector<double> x(8, 3.25);
    EXPECT_DOUBLE_EQ(jainsIndex(x), 1.0);
    EXPECT_DOUBLE_EQ(maxMinShare(x), 1.0);
}

TEST(Fairness, OneHogHitsTheLowerBound)
{
    std::vector<double> x = {1.0, 0.0, 0.0, 0.0};
    EXPECT_DOUBLE_EQ(jainsIndex(x), 0.25); // 1/n
    EXPECT_DOUBLE_EQ(maxMinShare(x), 0.0);
}

TEST(Fairness, DegenerateVectorsReportFair)
{
    EXPECT_DOUBLE_EQ(jainsIndex({}), 1.0);
    EXPECT_DOUBLE_EQ(maxMinShare({}), 1.0);
    EXPECT_DOUBLE_EQ(jainsIndex({0.0, 0.0}), 1.0);
    EXPECT_DOUBLE_EQ(maxMinShare({0.0, 0.0}), 1.0);
}

TEST(Fairness, JainMonotoneInSkew)
{
    double even = jainsIndex({2.0, 2.0, 2.0, 2.0});
    double mild = jainsIndex({3.0, 2.0, 2.0, 1.0});
    double harsh = jainsIndex({6.0, 1.0, 0.5, 0.5});
    EXPECT_GT(even, mild);
    EXPECT_GT(mild, harsh);
    EXPECT_GE(harsh, 0.25);
}

// ---------------------------------------------------------------------
// Energy accounting.
// ---------------------------------------------------------------------

TEST_F(EnergyTest, DisabledByDefaultAndAllZero)
{
    SystemConfig cfg;
    cfg.scheduler = "nimblock";
    RunResult r = Simulation(cfg, registry).run(smallSequence());
    EXPECT_FALSE(r.energy.enabled);
    EXPECT_EQ(r.energy.totalJoules, 0.0);
    for (const AppRecord &rec : r.records)
        EXPECT_EQ(rec.energyJoules, 0.0);
}

TEST_F(EnergyTest, AccountingDoesNotPerturbScheduling)
{
    EventSequence seq = smallSequence(21);
    for (std::string sched : {"nimblock", "prema", "themis"}) {
        SystemConfig off;
        off.scheduler = sched;
        RunResult base = Simulation(off, registry).run(seq);

        SystemConfig on = off;
        on.energy.enabled = true;
        RunResult metered = Simulation(on, registry).run(seq);

        ASSERT_EQ(base.records.size(), metered.records.size()) << sched;
        EXPECT_EQ(base.makespan, metered.makespan) << sched;
        EXPECT_EQ(base.eventsFired, metered.eventsFired) << sched;
        for (std::size_t i = 0; i < base.records.size(); ++i) {
            EXPECT_EQ(base.records[i].retire, metered.records[i].retire)
                << sched;
            EXPECT_EQ(base.records[i].runTime, metered.records[i].runTime)
                << sched;
        }
        EXPECT_TRUE(metered.energy.enabled);
        EXPECT_GT(metered.energy.totalJoules, 0.0);
    }
}

TEST_F(EnergyTest, ClosureHoldsOnUniformBoard)
{
    SystemConfig cfg;
    cfg.scheduler = "nimblock";
    cfg.energy.enabled = true;
    RunResult r = Simulation(cfg, registry).run(smallSequence(3));

    double per_app = 0.0;
    for (const AppRecord &rec : r.records) {
        EXPECT_GT(rec.energyJoules, 0.0);
        per_app += rec.energyJoules;
    }
    const EnergyReport &e = r.energy;
    EXPECT_NEAR(per_app + e.idleStaticJoules, e.totalJoules,
                1e-9 * e.totalJoules + 1e-9);
    EXPECT_NEAR(e.dynamicJoules + e.reconfigJoules + e.busyStaticJoules +
                    e.idleStaticJoules,
                e.totalJoules, 1e-6);
    EXPECT_GT(e.dynamicJoules, 0.0);
    EXPECT_GT(e.reconfigJoules, 0.0);
    EXPECT_GT(e.busyStaticJoules, 0.0);
    EXPECT_GE(e.idleStaticJoules, 0.0);
}

TEST_F(EnergyTest, ClosureHoldsOnHeterogeneousBoardAllSchedulers)
{
    EventSequence seq = smallSequence(11);
    for (const std::string &sched : extendedSchedulers()) {
        SystemConfig cfg;
        cfg.scheduler = sched;
        cfg.fabric = twoClassFabric();
        cfg.energy.enabled = true;
        RunResult r = Simulation(cfg, registry).run(seq);
        ASSERT_EQ(r.records.size(), seq.events.size()) << sched;

        double per_app = 0.0;
        for (const AppRecord &rec : r.records)
            per_app += rec.energyJoules;
        EXPECT_NEAR(per_app + r.energy.idleStaticJoules,
                    r.energy.totalJoules,
                    1e-9 * r.energy.totalJoules + 1e-9)
            << sched;
    }
}

TEST_F(EnergyTest, HeterogeneousSpeedupShortensRunTime)
{
    // lenet runs 1.5x faster in "big" slots; baseline (no-sharing) puts
    // the whole app on the board alone, so with all-big vs all-small
    // layouts its run time must differ by the speedup on kernel time.
    EventSequence seq;
    seq.name = "single";
    seq.events.push_back(
        WorkloadEvent{0, "lenet", 2, Priority::Medium, simtime::ms(1)});

    SystemConfig fast;
    fast.scheduler = "fcfs";
    fast.fabric = twoClassFabric();
    fast.fabric.boardLayout.assign(fast.fabric.numSlots, "big");
    RunResult on_big = Simulation(fast, registry).run(seq);

    SystemConfig slow;
    slow.scheduler = "fcfs";
    slow.fabric = twoClassFabric();
    slow.fabric.boardLayout.assign(slow.fabric.numSlots, "small");
    RunResult on_small = Simulation(slow, registry).run(seq);

    EXPECT_LT(on_big.records[0].runTime, on_small.records[0].runTime);
}

TEST_F(EnergyTest, ThemisCompletesHeterogeneousWorkload)
{
    SystemConfig cfg;
    cfg.scheduler = "themis";
    cfg.fabric = twoClassFabric();
    cfg.energy.enabled = true;
    EventSequence seq = smallSequence(17, 8);
    RunResult r = Simulation(cfg, registry).run(seq);
    ASSERT_EQ(r.records.size(), seq.events.size());
    for (const AppRecord &rec : r.records) {
        EXPECT_GT(rec.responseTime(), 0);
        EXPECT_FALSE(rec.failed);
    }
}

TEST_F(EnergyTest, ThemisHeterogeneousRunsAreDeterministic)
{
    SystemConfig cfg;
    cfg.scheduler = "themis";
    cfg.fabric = twoClassFabric();
    cfg.energy.enabled = true;
    EventSequence seq = smallSequence(23);
    RunResult a = Simulation(cfg, registry).run(seq);
    RunResult b = Simulation(cfg, registry).run(seq);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].retire, b.records[i].retire);
        EXPECT_EQ(a.records[i].runTime, b.records[i].runTime);
        EXPECT_DOUBLE_EQ(a.records[i].energyJoules,
                         b.records[i].energyJoules);
    }
    EXPECT_EQ(a.eventsFired, b.eventsFired);
    EXPECT_DOUBLE_EQ(a.energy.totalJoules, b.energy.totalJoules);
}

TEST_F(EnergyTest, IncompatibleClassIsNeverUsed)
{
    // Forbid lenet from "small": every placement must land in slots 0-4.
    SystemConfig cfg;
    cfg.scheduler = "themis";
    cfg.fabric = twoClassFabric();
    cfg.fabric.kernelRules.push_back({"lenet", "small", false, 1.0});
    cfg.recordTimeline = true;
    EventSequence seq;
    seq.name = "single";
    seq.events.push_back(
        WorkloadEvent{0, "lenet", 2, Priority::Medium, simtime::ms(1)});
    RunResult r = Simulation(cfg, registry).run(seq);
    ASSERT_TRUE(r.timeline);
    for (const TimelineEvent &e : r.timeline->events()) {
        if (e.slot != kSlotNone) {
            EXPECT_LT(e.slot, 5u) << "lenet placed in a forbidden class";
        }
    }
}

} // namespace
} // namespace nimblock
