/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"

namespace nimblock {
namespace {

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pendingCount(), 0u);
}

TEST(EventQueue, FiresEventAtScheduledTime)
{
    EventQueue eq;
    SimTime fired_at = kTimeNone;
    eq.schedule(simtime::ms(5), "e", [&] { fired_at = eq.now(); });
    eq.run();
    EXPECT_EQ(fired_at, simtime::ms(5));
    EXPECT_EQ(eq.now(), simtime::ms(5));
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(simtime::ms(30), "c", [&] { order.push_back(3); });
    eq.schedule(simtime::ms(10), "a", [&] { order.push_back(1); });
    eq.schedule(simtime::ms(20), "b", [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBreaksByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(simtime::ms(7), "tie", [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    SimTime inner = kTimeNone;
    eq.schedule(simtime::ms(10), "outer", [&] {
        eq.scheduleAfter(simtime::ms(5), "inner", [&] { inner = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(inner, simtime::ms(15));
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule(simtime::ms(5), "e", [&] { fired = true; });
    EXPECT_TRUE(eq.cancel(id));
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelReturnsFalseWhenAlreadyFired)
{
    EventQueue eq;
    EventId id = eq.schedule(simtime::ms(1), "e", [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, CancelReturnsFalseOnDoubleCancel)
{
    EventQueue eq;
    EventId id = eq.schedule(simtime::ms(1), "e", [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, RunRespectsHorizon)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(simtime::ms(1), "a", [&] { ++fired; });
    eq.schedule(simtime::ms(10), "b", [&] { ++fired; });
    eq.schedule(simtime::ms(20), "c", [&] { ++fired; });
    eq.run(simtime::ms(10));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pendingCount(), 1u);
}

TEST(EventQueue, EventAtHorizonStillFires)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(simtime::ms(10), "edge", [&] { fired = true; });
    eq.run(simtime::ms(10));
    EXPECT_TRUE(fired);
}

TEST(EventQueue, StepFiresExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(simtime::ms(1), "a", [&] { ++fired; });
    eq.schedule(simtime::ms(2), "b", [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, NestedSchedulingDuringCallback)
{
    EventQueue eq;
    std::vector<SimTime> times;
    eq.schedule(simtime::ms(1), "seed", [&] {
        times.push_back(eq.now());
        eq.scheduleAfter(simtime::ms(1), "child", [&] {
            times.push_back(eq.now());
        });
    });
    eq.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[1], simtime::ms(2));
}

TEST(EventQueue, ZeroDelayEventFiresAtSameTime)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(simtime::ms(5), "a", [&] {
        order.push_back(1);
        eq.scheduleAfter(0, "zero", [&] { order.push_back(2); });
    });
    eq.schedule(simtime::ms(5), "b", [&] { order.push_back(3); });
    eq.run();
    // The zero-delay event was inserted after "b", so it fires after it.
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(EventQueue, FiredCountAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(simtime::ms(i + 1), "e", [] {});
    eq.run();
    EXPECT_EQ(eq.firedCount(), 5u);
}

TEST(EventQueue, NextEventTimeReportsEarliest)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventTime(), kTimeNone);
    eq.schedule(simtime::ms(9), "late", [] {});
    EventId early = eq.schedule(simtime::ms(3), "early", [] {});
    EXPECT_EQ(eq.nextEventTime(), simtime::ms(3));
    eq.cancel(early);
    EXPECT_EQ(eq.nextEventTime(), simtime::ms(9));
    // The probe must not advance time or fire anything.
    EXPECT_EQ(eq.now(), 0);
    EXPECT_EQ(eq.firedCount(), 0u);
    EXPECT_EQ(eq.pendingCount(), 1u);
}

TEST(EventQueue, SelfCancelDuringFireReportsFalse)
{
    EventQueue eq;
    EventId self = kEventNone;
    bool self_cancel = true;
    self = eq.schedule(simtime::ms(1), "self",
                       [&] { self_cancel = eq.cancel(self); });
    eq.run();
    EXPECT_FALSE(self_cancel) << "an event firing right now already left "
                                 "the pending set";
}

TEST(EventQueue, CancelCoTimedEventFromCallbackIsSafe)
{
    // Three events at one timestamp: the first cancels the second, which
    // must not fire, while the third still does.
    EventQueue eq;
    std::vector<int> order;
    SimTime when = simtime::ms(3);
    EventId second = kEventNone;
    eq.schedule(when, "first", [&] {
        order.push_back(1);
        EXPECT_TRUE(eq.cancel(second));
    });
    second = eq.schedule(when, "second", [&] { order.push_back(2); });
    eq.schedule(when, "third", [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
    EXPECT_TRUE(eq.empty());
}

TEST(PeriodicEvent, FiresAtFixedPeriod)
{
    EventQueue eq;
    std::vector<SimTime> times;
    PeriodicEvent tick(eq, simtime::ms(400), "tick", [&] {
        times.push_back(eq.now());
    });
    tick.start();
    eq.run(simtime::ms(2000));
    ASSERT_EQ(times.size(), 5u);
    for (std::size_t i = 0; i < times.size(); ++i)
        EXPECT_EQ(times[i], simtime::ms(400) * static_cast<SimTime>(i + 1));
}

TEST(PeriodicEvent, StopCancelsFutureFirings)
{
    EventQueue eq;
    int count = 0;
    PeriodicEvent tick(eq, simtime::ms(10), "tick", [&] { ++count; });
    tick.start();
    eq.schedule(simtime::ms(35), "stopper", [&] { tick.stop(); });
    eq.run();
    EXPECT_EQ(count, 3);
    EXPECT_TRUE(eq.empty());
}

TEST(PeriodicEvent, RestartAfterStop)
{
    EventQueue eq;
    int count = 0;
    PeriodicEvent tick(eq, simtime::ms(10), "tick", [&] { ++count; });
    tick.start();
    eq.schedule(simtime::ms(25), "stop", [&] { tick.stop(); });
    eq.schedule(simtime::ms(100), "restart", [&] { tick.start(); });
    eq.run(simtime::ms(130));
    // 2 firings before stop (10, 20) + 3 after restart (110, 120, 130).
    EXPECT_EQ(count, 5);
}

TEST(PeriodicEvent, StartIsIdempotent)
{
    EventQueue eq;
    int count = 0;
    PeriodicEvent tick(eq, simtime::ms(10), "tick", [&] { ++count; });
    tick.start();
    tick.start();
    eq.run(simtime::ms(30));
    EXPECT_EQ(count, 3);
}

TEST(PeriodicEvent, StartAlignedRestartOffGridPreservesGrid)
{
    // Anchor a periodic timer off any round timestamp, let it run, stop
    // it, advance the clock to another arbitrary time, and restart
    // aligned: firings must resume on the original anchor + k * period
    // grid with no drift and no double-fire.
    EventQueue eq;
    SimTime period = simtime::ms(400);
    std::vector<SimTime> ticks;
    PeriodicEvent timer(eq, period, "tick",
                        [&ticks, &eq] { ticks.push_back(eq.now()); });

    SimTime anchor = simtime::ms(7) + 1;
    eq.schedule(anchor, "start", [&] { timer.start(); });
    eq.run(anchor + 2 * period);
    ASSERT_EQ(ticks.size(), 2u);
    EXPECT_EQ(ticks[0], anchor + period);
    EXPECT_EQ(ticks[1], anchor + 2 * period);

    timer.stop();
    // Idle gap of ~3.7 periods, ending off the grid.
    SimTime restart = anchor + 5 * period + simtime::us(13) + 5;
    eq.schedule(restart, "restart", [&] { timer.startAligned(); });
    eq.run(anchor + 7 * period);

    ASSERT_EQ(ticks.size(), 4u);
    EXPECT_EQ(ticks[2], anchor + 6 * period)
        << "aligned restart must land on the next original grid point";
    EXPECT_EQ(ticks[3], anchor + 7 * period);
}

TEST(EventQueue, MassCancellationLeavesHeapGarbageButZeroPending)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(eq.schedule(simtime::ms(i + 1), "bulk", [] {}));
    for (EventId id : ids)
        EXPECT_TRUE(eq.cancel(id));

    // The heap still holds the cancelled entries until they are skipped,
    // but the live count is already exact.
    EXPECT_EQ(eq.pendingCount(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_GE(eq.heapSize(), 100u);

    // Draining skips every dead entry without firing anything.
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_EQ(eq.firedCount(), 0u);
    EXPECT_EQ(eq.heapSize(), 0u);
}

TEST(EventQueue, SkipDeadFindsSurvivorAmongGarbage)
{
    EventQueue eq;
    std::vector<EventId> doomed;
    for (int i = 0; i < 50; ++i)
        doomed.push_back(eq.schedule(simtime::ms(i + 1), "doomed", [] {}));
    bool fired = false;
    eq.schedule(simtime::ms(200), "survivor", [&] { fired = true; });
    for (EventId id : doomed)
        eq.cancel(id);

    EXPECT_EQ(eq.pendingCount(), 1u);
    EXPECT_EQ(eq.nextEventTime(), simtime::ms(200));
    EXPECT_TRUE(eq.step());
    EXPECT_TRUE(fired);
    EXPECT_EQ(eq.now(), simtime::ms(200));
}

TEST(EventQueue, StaleHandleCannotCancelRecycledSlot)
{
    EventQueue eq;
    // Fire e1 so its internal slot is recycled for e2.
    EventId e1 = eq.schedule(simtime::ms(1), "first", [] {});
    eq.run();
    bool fired = false;
    EventId e2 = eq.schedule(simtime::ms(2), "second", [&] { fired = true; });
    EXPECT_NE(e1, e2);

    // The stale handle must not cancel the slot's new occupant.
    EXPECT_FALSE(eq.cancel(e1));
    eq.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelledSlotRecycledForNewEvent)
{
    EventQueue eq;
    EventId e1 = eq.schedule(simtime::ms(5), "victim", [] {});
    EXPECT_TRUE(eq.cancel(e1));
    int fired = 0;
    eq.schedule(simtime::ms(3), "fresh", [&] { ++fired; });
    EXPECT_FALSE(eq.cancel(e1)); // stale handle, recycled or not
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.firedCount(), 1u);
}

TEST(EventQueue, SchedulingFromCallbackReusesFreedSlots)
{
    EventQueue eq;
    // A chain of events where each firing schedules the next; slot reuse
    // during the firing callback must not corrupt the in-flight event.
    int hops = 0;
    std::function<void()> hop = [&] {
        if (++hops < 20)
            eq.scheduleAfter(simtime::ms(1), "hop", hop);
    };
    eq.schedule(simtime::ms(1), "hop", hop);
    eq.run();
    EXPECT_EQ(hops, 20);
    EXPECT_EQ(eq.now(), simtime::ms(20));
}

TEST(EventQueue, LabelOutlivesCallSite)
{
    EventQueue eq;
    EventId id = kEventNone;
    {
        // Literals have static storage duration, so taking the label from
        // an inner scope is safe under the non-owning representation.
        id = eq.schedule(simtime::ms(1), "inner_scope_literal", [] {});
    }
    EXPECT_NE(id, kEventNone);
    EXPECT_EQ(eq.run(), 1u);
}

TEST(EventQueueDeathTest, SchedulingIntoThePastPanicsWithLabel)
{
    EXPECT_DEATH(
        {
            EventQueue eq;
            eq.schedule(simtime::ms(10), "mover", [&eq] {
                eq.schedule(simtime::ms(1), "time_traveler", [] {});
            });
            eq.run();
        },
        "time_traveler");
}

TEST(EventQueueDeathTest, LabelCheckCatchesRecycledLabelStorage)
{
    // The label contract requires literal/interned storage. Build a label
    // in a buffer, schedule with it, then overwrite the buffer: with the
    // verifier on, the fire must panic instead of silently reporting a
    // wrong label in traces.
    EXPECT_DEATH(
        {
            EventQueue eq;
            eq.setLabelCheck(true);
            char label[32];
            std::strcpy(label, "volatile_label");
            eq.schedule(simtime::ms(1), label, [] {});
            std::strcpy(label, "overwritten!!!");
            eq.run();
        },
        "label");
}

TEST(SimTimeHelpers, UnitConversions)
{
    EXPECT_EQ(simtime::us(1), 1000);
    EXPECT_EQ(simtime::ms(1), 1000 * 1000);
    EXPECT_EQ(simtime::sec(1), 1000 * 1000 * 1000);
    EXPECT_DOUBLE_EQ(simtime::toMs(simtime::ms(80)), 80.0);
    EXPECT_DOUBLE_EQ(simtime::toSec(simtime::sec(3)), 3.0);
    EXPECT_EQ(simtime::msF(0.5), 500 * 1000);
}

} // namespace
} // namespace nimblock
