/**
 * @file
 * Unit tests for AppInstance runtime state and readiness rules.
 */

#include <gtest/gtest.h>

#include "apps/benchmarks.hh"
#include "hypervisor/app_instance.hh"
#include "sim/logging.hh"

namespace nimblock {
namespace {

AppInstance
makeLenet(int batch = 4)
{
    return AppInstance(1, benchmarks::lenet(), batch, Priority::Medium, 0, 0);
}

/** Complete @p n batch items of task @p t through the tally setter. */
void
finishItems(AppInstance &app, TaskId t, int n)
{
    for (int i = 0; i < n; ++i)
        app.noteItemDone(t);
}

TEST(Priority, FromIntAcceptsLevels)
{
    EXPECT_EQ(priorityFromInt(1), Priority::Low);
    EXPECT_EQ(priorityFromInt(3), Priority::Medium);
    EXPECT_EQ(priorityFromInt(9), Priority::High);
    EXPECT_THROW(priorityFromInt(2), FatalError);
    EXPECT_THROW(priorityFromInt(0), FatalError);
}

TEST(AppInstance, InitialState)
{
    AppInstance app = makeLenet();
    EXPECT_EQ(app.tasksCompleted(), 0);
    EXPECT_FALSE(app.done());
    EXPECT_EQ(app.slotsUsed(), 0u);
    EXPECT_EQ(app.firstLaunch(), kTimeNone);
    EXPECT_DOUBLE_EQ(app.token(), 0.0);
}

TEST(AppInstance, RejectsBadBatch)
{
    EXPECT_THROW(
        AppInstance(1, benchmarks::lenet(), 0, Priority::Low, 0, 0),
        FatalError);
}

TEST(AppInstance, SourceTaskIsAlwaysInputReady)
{
    AppInstance app = makeLenet();
    EXPECT_TRUE(app.inputsReady(0, 0));
    EXPECT_TRUE(app.inputsReady(0, 3));
    EXPECT_FALSE(app.inputsReady(0, 4)); // Beyond the batch.
}

TEST(AppInstance, SuccessorNeedsPredecessorItems)
{
    AppInstance app = makeLenet();
    EXPECT_FALSE(app.inputsReady(1, 0));
    app.noteItemDone(0);
    EXPECT_TRUE(app.inputsReady(1, 0));
    EXPECT_FALSE(app.inputsReady(1, 1));
}

TEST(AppInstance, BulkVsPipelinedConfigurability)
{
    AppInstance app = makeLenet();
    app.noteItemDone(0);
    // Pipelined: one item from task 0 suffices for task 1.
    EXPECT_TRUE(app.taskConfigurable(1, true));
    // Bulk: task 0 must finish the whole batch.
    EXPECT_FALSE(app.taskConfigurable(1, false));
    finishItems(app, 0, 3);
    EXPECT_TRUE(app.taskConfigurable(1, false));
    EXPECT_TRUE(app.predsFullyDone(1));
}

TEST(AppInstance, NonIdleTasksAreNotConfigurable)
{
    AppInstance app = makeLenet();
    app.setTaskPhase(0, TaskPhase::Resident);
    EXPECT_FALSE(app.taskConfigurable(0, true));
    app.setTaskPhase(0, TaskPhase::Done);
    EXPECT_FALSE(app.taskConfigurable(0, true));
}

TEST(AppInstance, FinishedTaskIsNotConfigurable)
{
    AppInstance app = makeLenet();
    finishItems(app, 0, 4); // Batch complete but still Idle.
    EXPECT_FALSE(app.taskConfigurable(0, true));
}

TEST(AppInstance, ConfigurableTasksInTopoOrder)
{
    AppInstance app(1, benchmarks::alexnet(), 2, Priority::Low, 0, 0);
    auto ready = app.configurableTasks(true);
    ASSERT_EQ(ready.size(), 1u); // Only the conv1 source stage.
    EXPECT_EQ(ready[0], app.graph().topoOrder().front());
}

TEST(AppInstance, PrefetchableIgnoresDataReadiness)
{
    AppInstance app = makeLenet();
    auto prefetchable = app.prefetchableTasks();
    EXPECT_EQ(prefetchable.size(), 3u);
    app.setTaskPhase(1, TaskPhase::Configuring);
    EXPECT_EQ(app.prefetchableTasks().size(), 2u);
}

TEST(AppInstance, SlotsUsedCountsConfiguringAndResident)
{
    AppInstance app = makeLenet();
    app.setTaskPhase(0, TaskPhase::Configuring);
    app.setTaskPhase(1, TaskPhase::Resident);
    app.setTaskPhase(2, TaskPhase::Done);
    EXPECT_EQ(app.slotsUsed(), 2u);
}

TEST(AppInstance, OverConsumption)
{
    AppInstance app = makeLenet();
    app.setTaskPhase(0, TaskPhase::Resident);
    app.setTaskPhase(1, TaskPhase::Resident);
    app.setSlotsAllocated(1);
    EXPECT_EQ(app.overConsumption(), 1);
    app.setSlotsAllocated(3);
    EXPECT_EQ(app.overConsumption(), -1);
}

TEST(AppInstance, DoneAfterAllTasksComplete)
{
    AppInstance app = makeLenet();
    app.noteTaskCompleted();
    app.noteTaskCompleted();
    EXPECT_FALSE(app.done());
    app.noteTaskCompleted();
    EXPECT_TRUE(app.done());
}

TEST(AppInstance, NoteLaunchOnlyRecordsFirst)
{
    AppInstance app = makeLenet();
    app.noteLaunch(simtime::ms(10));
    app.noteLaunch(simtime::ms(99));
    EXPECT_EQ(app.firstLaunch(), simtime::ms(10));
}

TEST(AppInstance, CandidateSinceIsSticky)
{
    AppInstance app = makeLenet();
    EXPECT_EQ(app.candidateSince(), kTimeNone);
    app.setCandidateSince(simtime::ms(5));
    app.setCandidateSince(simtime::ms(50));
    EXPECT_EQ(app.candidateSince(), simtime::ms(5));
}

TEST(AppInstance, ResidentTasksInTopoOrder)
{
    AppInstance app = makeLenet();
    app.setTaskPhase(2, TaskPhase::Resident);
    app.setTaskPhase(0, TaskPhase::Resident);
    auto resident = app.residentTasks();
    ASSERT_EQ(resident.size(), 2u);
    EXPECT_EQ(resident[0], 0u);
    EXPECT_EQ(resident[1], 2u);
}

} // namespace
} // namespace nimblock
