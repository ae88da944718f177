/**
 * @file
 * The timer lane: armed timers wait beside the event heap instead of
 * inside it, and draw their (when, seq) tie-break from the same sequence
 * stream as ordinary events.
 *
 * A seeded op generator drives the production queue and a test-local
 * reference queue — a sorted map keyed on (when, seq) in which a timer
 * occurrence is a plain entry — and after every step the two must agree
 * on the fire sequence, firedCount(), pendingCount() and nextEventTime().
 * This lockstep run is what pins the queue's (when, seq) fire order. The
 * hypervisor-level goldens at the end pin runs whose ticks, passes and
 * item completions share exact timestamps to digests recorded before the
 * lane existed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/registry.hh"
#include "core/config.hh"
#include "fabric/fabric.hh"
#include "hypervisor/hypervisor.hh"
#include "metrics/collector.hh"
#include "sched/factory.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "taskgraph/builder.hh"
#include "workload/event.hh"

namespace nimblock {
namespace {

// ---------------------------------------------------------------------
// Differential queue test.

/** A short gap (32.768 us) and a far one (2^51 ns, about 26 days). */
constexpr SimTime kShortGap = SimTime{1} << 15;
constexpr SimTime kFarGap = SimTime{1} << 51;

/** What fired: an ordinary event, a bare timer or a PeriodicEvent. */
enum class FireKind : std::uint8_t
{
    Event,
    Timer,
    Periodic,
};

struct Fire
{
    FireKind kind;
    int index;
};

/** One fire as logged: what fired and when. */
struct LoggedFire
{
    FireKind kind;
    int index;
    SimTime when;

    bool operator==(const LoggedFire &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const LoggedFire &f)
{
    return os << "{kind " << static_cast<int>(f.kind) << ", index "
              << f.index << ", at " << f.when << "}";
}

/**
 * The queue operations the generator performs. Events are named by a
 * harness token, timers and periodic events by their index; every fire
 * calls back into the harness, which may perform further operations from
 * inside the callback.
 */
class QueueUnderTest
{
  public:
    using FireFn = std::function<void(Fire)>;

    virtual ~QueueUnderTest() = default;
    void onFire(FireFn fn) { _onFire = std::move(fn); }

    virtual SimTime now() const = 0;
    virtual void schedule(SimTime when, int token) = 0;
    virtual bool cancel(int token) = 0;
    virtual void arm(int timer, SimTime when) = 0;
    virtual bool disarm(int timer) = 0;
    virtual bool armed(int timer) const = 0;
    virtual void periodicStart(int p) = 0;
    virtual void periodicStartAligned(int p) = 0;
    virtual void periodicStop(int p) = 0;
    virtual bool step() = 0;
    virtual std::uint64_t run(SimTime horizon) = 0;
    virtual SimTime nextEventTime() = 0;
    virtual std::uint64_t fired() const = 0;
    virtual std::size_t pending() const = 0;

  protected:
    void fire(Fire f) { _onFire(f); }

  private:
    FireFn _onFire;
};

/** Timers and periodic events of one generated run. */
struct LaneShape
{
    int timers = 4;
    std::vector<SimTime> periods = {simtime::ms(400), simtime::ms(3)};
};

/** The production EventQueue. */
class RealQueue final : public QueueUnderTest
{
  public:
    explicit RealQueue(const LaneShape &shape)
    {
        _eq.setLabelCheck(true);
        for (int t = 0; t < shape.timers; ++t) {
            _timers.push_back(_eq.addTimer(
                "lane_timer", [this, t] { fire({FireKind::Timer, t}); }));
        }
        for (std::size_t p = 0; p < shape.periods.size(); ++p) {
            const int index = static_cast<int>(p);
            _periodics.push_back(std::make_unique<PeriodicEvent>(
                _eq, shape.periods[p], "lane_periodic",
                [this, index] { fire({FireKind::Periodic, index}); }));
        }
    }

    SimTime now() const override { return _eq.now(); }

    void
    schedule(SimTime when, int token) override
    {
        if (static_cast<std::size_t>(token) >= _ids.size())
            _ids.resize(token + 1, kEventNone);
        _ids[token] = _eq.schedule(when, "lane_event", [this, token] {
            fire({FireKind::Event, token});
        });
    }

    bool cancel(int token) override { return _eq.cancel(_ids[token]); }
    void arm(int timer, SimTime when) override
    {
        _eq.armTimer(_timers[timer], when);
    }
    bool disarm(int timer) override { return _eq.disarmTimer(_timers[timer]); }
    bool armed(int timer) const override
    {
        return _eq.timerArmed(_timers[timer]);
    }
    void periodicStart(int p) override { _periodics[p]->start(); }
    void periodicStartAligned(int p) override
    {
        _periodics[p]->startAligned();
    }
    void periodicStop(int p) override { _periodics[p]->stop(); }
    bool step() override { return _eq.step(); }
    std::uint64_t run(SimTime horizon) override { return _eq.run(horizon); }
    SimTime nextEventTime() override { return _eq.nextEventTime(); }
    std::uint64_t fired() const override { return _eq.firedCount(); }
    std::size_t pending() const override { return _eq.pendingCount(); }

  private:
    EventQueue _eq;
    std::vector<EventId> _ids;
    std::vector<TimerId> _timers;
    std::vector<std::unique_ptr<PeriodicEvent>> _periodics;
};

/**
 * The reference: one map ordered by (when, seq). An event, a timer
 * occurrence and a periodic firing are all plain entries, and one
 * counter hands out seq to schedules and arms alike. Periodic events
 * re-implement PeriodicEvent's documented contract on top.
 */
class ReferenceQueue final : public QueueUnderTest
{
  public:
    explicit ReferenceQueue(const LaneShape &shape)
        : _timerKey(shape.timers + shape.periods.size(), kNoKey),
          _periodic(shape.periods.size())
    {
        _numTimers = shape.timers;
        for (std::size_t p = 0; p < shape.periods.size(); ++p)
            _periodic[p].period = shape.periods[p];
    }

    SimTime now() const override { return _now; }

    void
    schedule(SimTime when, int token) override
    {
        if (static_cast<std::size_t>(token) >= _eventKey.size())
            _eventKey.resize(token + 1, kNoKey);
        _eventKey[token] = insert(when, {FireKind::Event, token});
    }

    bool
    cancel(int token) override
    {
        Key &key = _eventKey[token];
        if (key == kNoKey)
            return false;
        _pending.erase(key);
        key = kNoKey;
        return true;
    }

    void
    arm(int timer, SimTime when) override
    {
        Key &key = _timerKey[timer];
        if (key != kNoKey)
            _pending.erase(key);
        key = insert(when, {FireKind::Timer, timer});
    }

    bool
    disarm(int timer) override
    {
        Key &key = _timerKey[timer];
        if (key == kNoKey)
            return false;
        _pending.erase(key);
        key = kNoKey;
        return true;
    }

    bool armed(int timer) const override
    {
        return _timerKey[timer] != kNoKey;
    }

    void
    periodicStart(int p) override
    {
        Periodic &pe = _periodic[p];
        if (pe.running)
            return;
        pe.running = true;
        pe.nextDue = _now + pe.period;
        arm(periodicTimer(p), pe.nextDue);
    }

    void
    periodicStartAligned(int p) override
    {
        Periodic &pe = _periodic[p];
        if (pe.running)
            return;
        if (pe.nextDue == kTimeNone) {
            periodicStart(p);
            return;
        }
        pe.running = true;
        if (pe.nextDue < _now) {
            SimTime behind = _now - pe.nextDue;
            pe.nextDue += (behind + pe.period - 1) / pe.period * pe.period;
        }
        arm(periodicTimer(p), pe.nextDue);
    }

    void
    periodicStop(int p) override
    {
        Periodic &pe = _periodic[p];
        if (!pe.running)
            return;
        pe.running = false;
        disarm(periodicTimer(p));
    }

    bool
    step() override
    {
        if (_pending.empty())
            return false;
        auto it = _pending.begin();
        const Key key = it->first;
        const Fire what = it->second;
        _pending.erase(it);
        _now = key.first;
        ++_fired;
        if (what.kind == FireKind::Event) {
            _eventKey[what.index] = kNoKey;
            fire(what);
            return true;
        }
        _timerKey[what.index] = kNoKey;
        if (what.index < _numTimers) {
            fire(what);
            return true;
        }
        const int p = what.index - _numTimers;
        Periodic &pe = _periodic[p];
        if (!pe.running)
            return true;
        pe.nextDue = _now + pe.period;
        fire({FireKind::Periodic, p});
        if (pe.running)
            arm(periodicTimer(p), pe.nextDue);
        return true;
    }

    std::uint64_t
    run(SimTime horizon) override
    {
        std::uint64_t n = 0;
        while (!_pending.empty() && _pending.begin()->first.first <= horizon) {
            step();
            ++n;
        }
        return n;
    }

    SimTime
    nextEventTime() override
    {
        return _pending.empty() ? kTimeNone : _pending.begin()->first.first;
    }

    std::uint64_t fired() const override { return _fired; }
    std::size_t pending() const override { return _pending.size(); }

  private:
    using Key = std::pair<SimTime, std::uint64_t>;
    static constexpr Key kNoKey{kTimeNone, 0};

    struct Periodic
    {
        SimTime period = 0;
        SimTime nextDue = kTimeNone;
        bool running = false;
    };

    int periodicTimer(int p) const { return _numTimers + p; }

    Key
    insert(SimTime when, Fire what)
    {
        Key key{when, _nextSeq++};
        _pending.emplace(key, what);
        return key;
    }

    std::map<Key, Fire> _pending;
    std::vector<Key> _eventKey;
    std::vector<Key> _timerKey; //!< Bare timers, then periodic timers.
    std::vector<Periodic> _periodic;
    int _numTimers = 0;
    SimTime _now = 0;
    std::uint64_t _nextSeq = 1;
    std::uint64_t _fired = 0;
};

/** Operation kinds of the generator. */
enum class OpKind : std::uint8_t
{
    Schedule,
    ScheduleAtEvent, //!< Co-timed with an earlier event's timestamp.
    ScheduleAtTimer, //!< Co-timed with an armed timer: event after it.
    Cancel,
    Arm,
    ArmAtEvent, //!< Timer co-timed with an earlier event: timer after it.
    RearmEarlier,
    RearmLater,
    Disarm,
    PeriodicStart,
    PeriodicStartAligned,
    PeriodicStop,
    Step,
    Run,
    RunToTimer, //!< Horizon exactly at an armed timer, or 1 ns before.
    Count,
};

/**
 * Drives one QueueUnderTest through a generated op stream and logs every
 * fire. Top-level ops come from a stream shared by all harnesses (so
 * they never depend on queue state); the follow-up ops a callback makes
 * come from a stream seeded by the fire's position in the log, which is
 * the same in every harness as long as the queues agree.
 */
class Harness
{
  public:
    Harness(QueueUnderTest &q, const LaneShape &shape, std::uint64_t seed)
        : _q(q), _shape(shape), _seed(seed),
          _timerWhen(shape.timers, kTimeNone)
    {
        _q.onFire([this](Fire f) { onFire(f); });
    }

    QueueUnderTest &queue() { return _q; }
    const std::vector<LoggedFire> &log() const { return _log; }

    /** Apply one op drawn from @p rng; returns its observable result. */
    std::int64_t
    apply(Rng &rng)
    {
        const auto kind = static_cast<OpKind>(
            rng.index(static_cast<std::size_t>(OpKind::Count)));
        return apply(kind, rng);
    }

    std::int64_t
    apply(OpKind kind, Rng &rng)
    {
        switch (kind) {
          case OpKind::Schedule:
            scheduleEvent(_q.now() + drawDelta(rng));
            return 0;
          case OpKind::ScheduleAtEvent:
            scheduleEvent(atEvent(rng));
            return 0;
          case OpKind::ScheduleAtTimer: {
            const int t = drawTimer(rng);
            scheduleEvent(_q.armed(t) ? _timerWhen[t]
                                      : _q.now() + drawDelta(rng));
            return 0;
          }
          case OpKind::Cancel:
            if (_nextToken == 0)
                return 0;
            return _q.cancel(static_cast<int>(rng.index(_nextToken)));
          case OpKind::Arm:
            armTimer(drawTimer(rng), _q.now() + drawDelta(rng));
            return 0;
          case OpKind::ArmAtEvent:
            armTimer(drawTimer(rng), atEvent(rng));
            return 0;
          case OpKind::RearmEarlier: {
            const int t = drawTimer(rng);
            if (_q.armed(t)) {
                armTimer(t, _q.now() + (_timerWhen[t] - _q.now()) / 2);
            } else {
                armTimer(t, _q.now() + drawDelta(rng));
            }
            return 0;
          }
          case OpKind::RearmLater: {
            const int t = drawTimer(rng);
            const SimTime base = _q.armed(t) ? _timerWhen[t] : _q.now();
            armTimer(t, base + drawDelta(rng));
            return 0;
          }
          case OpKind::Disarm:
            return _q.disarm(drawTimer(rng));
          case OpKind::PeriodicStart:
            _q.periodicStart(drawPeriodic(rng));
            return 0;
          case OpKind::PeriodicStartAligned:
            _q.periodicStartAligned(drawPeriodic(rng));
            return 0;
          case OpKind::PeriodicStop:
            _q.periodicStop(drawPeriodic(rng));
            return 0;
          case OpKind::Step:
            return _q.step();
          case OpKind::Run:
            // Bounded horizons: a periodic event fires on every period.
            return static_cast<std::int64_t>(_q.run(
                _q.now() + std::min(drawDelta(rng), simtime::sec(1))));
          case OpKind::RunToTimer: {
            const int t = drawTimer(rng);
            const bool before = rng.bernoulli(0.5);
            if (!_q.armed(t) || (before && _timerWhen[t] == _q.now()))
                return -1;
            return static_cast<std::int64_t>(
                _q.run(_timerWhen[t] - (before ? 1 : 0)));
          }
          case OpKind::Count:
            break;
        }
        return 0;
    }

    /** Schedule a fresh event at @p when; returns its token. */
    int
    scheduleEvent(SimTime when)
    {
        const int token = static_cast<int>(_nextToken++);
        _eventWhen.push_back(when);
        _q.schedule(when, token);
        return token;
    }

    void
    armTimer(int t, SimTime when)
    {
        _timerWhen[t] = when;
        _q.arm(t, when);
    }

    /** Random follow-up ops from callbacks; off keeps them inert. */
    void setFollowUps(bool on) { _followUps = on; }

    /** Replace the random follow-ups with @p script (called per fire). */
    void
    setScript(QueueUnderTest::FireFn script)
    {
        _script = std::move(script);
    }

  private:
    /**
     * Offsets from now: at now, under and over the short gap, the
     * hypervisor's pass latency and tick, spans up to about 13 days,
     * and (rarely) past the far gap.
     */
    SimTime
    drawDelta(Rng &rng)
    {
        switch (rng.index(16)) {
          case 0:
          case 1:
            return 0;
          case 2:
          case 3:
            return rng.uniformInt(1, kShortGap - 1);
          case 4:
          case 5:
          case 6:
            return rng.uniformInt(1, kShortGap * 64);
          case 7:
            return simtime::us(100);
          case 8:
            return simtime::ms(400);
          case 9:
          case 10:
            return rng.uniformInt(1, SimTime{1} << 27);
          case 11:
            return rng.uniformInt(1, SimTime{1} << 40);
          case 12:
            return rng.bernoulli(0.2)
                       ? kFarGap + rng.uniformInt(0, SimTime{1} << 36)
                       : rng.uniformInt(1, 8);
          default:
            return rng.uniformInt(1, simtime::ms(2));
        }
    }

    /** An earlier event's timestamp (now if it is already past). */
    SimTime
    atEvent(Rng &rng)
    {
        if (_nextToken == 0)
            return _q.now();
        const SimTime when = _eventWhen[rng.index(_nextToken)];
        return when < _q.now() ? _q.now() : when;
    }

    int drawTimer(Rng &rng)
    {
        return static_cast<int>(rng.index(_shape.timers));
    }

    int drawPeriodic(Rng &rng)
    {
        return static_cast<int>(rng.index(_shape.periods.size()));
    }

    void
    onFire(Fire f)
    {
        _log.push_back({f.kind, f.index, _q.now()});
        if (_script) {
            _script(f);
            return;
        }
        if (!_followUps)
            return;
        // Follow-ups keep the pending set bounded: fewer than one new
        // entry per fire on average, and none past a soft cap.
        static constexpr OpKind kFollowUps[] = {
            OpKind::Schedule,     OpKind::ScheduleAtTimer,
            OpKind::Cancel,       OpKind::Arm,
            OpKind::RearmEarlier, OpKind::Disarm,
            OpKind::PeriodicStop, OpKind::PeriodicStartAligned,
        };
        Rng rng(_seed * 0x9e3779b97f4a7c15ull + _log.size());
        const std::size_t n = rng.index(3);
        for (std::size_t i = 0; i < n; ++i) {
            const OpKind kind = kFollowUps[rng.index(std::size(kFollowUps))];
            if ((kind == OpKind::Schedule ||
                 kind == OpKind::ScheduleAtTimer) &&
                _q.pending() > 64)
                continue;
            apply(kind, rng);
        }
    }

    QueueUnderTest &_q;
    LaneShape _shape;
    std::uint64_t _seed;
    bool _followUps = true;
    QueueUnderTest::FireFn _script;
    std::size_t _nextToken = 0;
    std::vector<SimTime> _eventWhen;
    std::vector<SimTime> _timerWhen;
    std::vector<LoggedFire> _log;
};

/** The production queue and the reference, compared in lockstep. */
class LanePair
{
  public:
    LanePair(const LaneShape &shape, std::uint64_t seed)
        : _real(shape), _ref(shape)
    {
        _harness.emplace_back(std::make_unique<Harness>(_ref, shape, seed));
        _harness.emplace_back(std::make_unique<Harness>(_real, shape, seed));
    }

    std::vector<std::unique_ptr<Harness>> &harnesses() { return _harness; }

    /**
     * Apply the same op to both and compare. Draws come from copies of
     * @p rng so each harness sees the identical stream.
     */
    ::testing::AssertionResult
    applyAll(Rng &rng, bool peek)
    {
        Rng next = rng;
        const std::int64_t expect = _harness[0]->apply(next);
        for (std::size_t i = 1; i < _harness.size(); ++i) {
            Rng copy = rng;
            const std::int64_t got = _harness[i]->apply(copy);
            if (got != expect) {
                return ::testing::AssertionFailure()
                       << "queue op result " << got
                       << ", reference " << expect;
            }
        }
        rng = next;
        return check(peek);
    }

    /** One step on each queue, then compare. */
    ::testing::AssertionResult
    stepAll(bool peek)
    {
        const bool expect = _harness[0]->queue().step();
        for (std::size_t i = 1; i < _harness.size(); ++i) {
            if (_harness[i]->queue().step() != expect) {
                return ::testing::AssertionFailure()
                       << "queue step() disagrees";
            }
        }
        return check(peek);
    }

    /** Compare every observable against the reference. */
    ::testing::AssertionResult
    check(bool peek)
    {
        QueueUnderTest &ref = _harness[0]->queue();
        const std::vector<LoggedFire> &want = _harness[0]->log();
        const SimTime ref_next = peek ? ref.nextEventTime() : kTimeNone;
        for (std::size_t i = 1; i < _harness.size(); ++i) {
            QueueUnderTest &q = _harness[i]->queue();
            const std::vector<LoggedFire> &got = _harness[i]->log();
            if (got.size() != want.size()) {
                return ::testing::AssertionFailure()
                       << "queue fired " << got.size()
                       << " callbacks, reference " << want.size();
            }
            for (std::size_t k = _checked; k < want.size(); ++k) {
                if (!(got[k] == want[k])) {
                    return ::testing::AssertionFailure()
                           << "queue fire #" << k << " is "
                           << got[k] << ", reference " << want[k];
                }
            }
            if (q.now() != ref.now() || q.fired() != ref.fired() ||
                q.pending() != ref.pending()) {
                return ::testing::AssertionFailure()
                       << "queue now/fired/pending " << q.now()
                       << "/" << q.fired() << "/" << q.pending()
                       << ", reference " << ref.now() << "/" << ref.fired()
                       << "/" << ref.pending();
            }
            if (peek && q.nextEventTime() != ref_next) {
                return ::testing::AssertionFailure()
                       << "queue nextEventTime "
                       << q.nextEventTime() << ", reference " << ref_next;
            }
        }
        _checked = want.size();
        return ::testing::AssertionSuccess();
    }

    std::size_t fires() const { return _harness[0]->log().size(); }

  private:
    RealQueue _real;
    ReferenceQueue _ref;
    std::vector<std::unique_ptr<Harness>> _harness;
    std::size_t _checked = 0;
};

TEST(TimerLane, GeneratedOpsMatchTheReference)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        LaneShape shape;
        shape.timers = 2 + static_cast<int>(seed % 5);
        LanePair lanes(shape, seed);
        Rng rng(seed);
        // Odd seeds skip some nextEventTime() probes, so the fire paths
        // also meet cancelled entries no peek has reclaimed.
        const bool always_peek = seed % 2 == 0;
        for (int op = 0; op < 3000; ++op) {
            const bool peek = always_peek || rng.bernoulli(0.5);
            ASSERT_TRUE(lanes.applyAll(rng, peek)) << "op " << op;
        }
        // Drain: periodic events run forever and follow-ups re-arm, so
        // stop both first.
        for (auto &h : lanes.harnesses()) {
            h->setFollowUps(false);
            for (int p = 0; p < static_cast<int>(shape.periods.size()); ++p)
                h->queue().periodicStop(p);
        }
        ASSERT_TRUE(lanes.check(true));
        while (lanes.harnesses()[0]->queue().pending() > 0)
            ASSERT_TRUE(lanes.stepAll(true));
        EXPECT_GT(lanes.fires(), 1000u);
    }
}

TEST(TimerLane, RunFiresTheTimerAtTheHorizonButNotOneNanosecondPast)
{
    LaneShape shape;
    shape.timers = 3;
    for (bool timer_first : {true, false}) {
        SCOPED_TRACE(timer_first ? "timer armed first" : "event first");
        LanePair lanes(shape, 7);
        const SimTime horizon = simtime::ms(400) + simtime::us(100);
        for (auto &h : lanes.harnesses()) {
            h->setFollowUps(false);
            if (timer_first)
                h->armTimer(0, horizon);
            h->scheduleEvent(horizon);
            if (!timer_first)
                h->armTimer(0, horizon);
            h->armTimer(1, horizon + 1);
            h->armTimer(2, horizon - kShortGap);
        }
        ASSERT_TRUE(lanes.check(true));
        std::vector<std::uint64_t> ran;
        for (auto &h : lanes.harnesses())
            ran.push_back(h->queue().run(horizon));
        EXPECT_EQ(ran, (std::vector<std::uint64_t>{3, 3}));
        ASSERT_TRUE(lanes.check(true));
        for (auto &h : lanes.harnesses()) {
            EXPECT_EQ(h->queue().now(), horizon);
            EXPECT_EQ(h->queue().nextEventTime(), horizon + 1);
            EXPECT_TRUE(h->queue().armed(1));
            const std::vector<LoggedFire> &log = h->log();
            ASSERT_EQ(log.size(), 3u);
            EXPECT_EQ(log[0], (LoggedFire{FireKind::Timer, 2,
                                          horizon - kShortGap}));
            const LoggedFire timer{FireKind::Timer, 0, horizon};
            const LoggedFire event{FireKind::Event, 0, horizon};
            EXPECT_EQ(log[1], timer_first ? timer : event);
            EXPECT_EQ(log[2], timer_first ? event : timer);
        }
        ASSERT_TRUE(lanes.stepAll(true));
        EXPECT_EQ(lanes.harnesses()[0]->queue().pending(), 0u);
    }
}

/**
 * The timer population of a 64-board soak: every board's scheduling
 * tick (all on one 400 ms grid, as boards start together) and pass
 * timer, plus the arrival pump — 129 timers. An arrival queues work on a
 * board and requests a pass 100 us out (coalescing like
 * Hypervisor::requestPass); a pass starts up to two items, which complete
 * on 100 us multiples and request passes of their own; a tick on an idle
 * board parks it until the next arrival restarts it aligned.
 */
class SoakScript
{
  public:
    static constexpr int kBoards = 64;
    static constexpr int kArrivals = 3000;

    /** Board b: periodic b is its tick, timer b its pass timer. */
    SoakScript(Harness &h, std::uint64_t seed)
        : _h(h), _q(h.queue()), _rng(seed), _queued(kBoards, 0),
          _running(kBoards, 0)
    {
    }

    static constexpr int kPump = kBoards;

    void
    start()
    {
        for (int b = 0; b < kBoards; ++b)
            _q.periodicStart(b);
        _h.armTimer(kPump, 0);
    }

    void
    onFire(Fire f)
    {
        switch (f.kind) {
          case FireKind::Periodic:
            if (_queued[f.index] + _running[f.index] == 0)
                _q.periodicStop(f.index);
            else
                requestPass(f.index);
            break;
          case FireKind::Timer:
            if (f.index == kPump)
                arrival();
            else
                runPass(f.index);
            break;
          case FireKind::Event:
            --_running[_itemBoard[f.index]];
            requestPass(_itemBoard[f.index]);
            break;
        }
    }

    int arrivals() const { return _arrivals; }

  private:
    void
    arrival()
    {
        ++_arrivals;
        const int board = static_cast<int>(_rng.index(kBoards));
        _q.periodicStartAligned(board);
        ++_queued[board];
        requestPass(board);
        if (_arrivals < kArrivals) {
            const SimTime gap =
                _rng.bernoulli(0.3) ? 0
                                    : simtime::us(100) * _rng.uniformInt(1, 40);
            _h.armTimer(kPump, _q.now() + gap);
        }
    }

    void
    requestPass(int board)
    {
        if (!_q.armed(board))
            _h.armTimer(board, _q.now() + simtime::us(100));
    }

    void
    runPass(int board)
    {
        while (_queued[board] > 0 && _running[board] < 2) {
            --_queued[board];
            ++_running[board];
            const int token = _h.scheduleEvent(
                _q.now() + simtime::us(100) * _rng.uniformInt(1, 12));
            if (static_cast<std::size_t>(token) >= _itemBoard.size())
                _itemBoard.resize(token + 1);
            _itemBoard[token] = board;
        }
    }

    Harness &_h;
    QueueUnderTest &_q;
    Rng _rng;
    std::vector<int> _queued;
    std::vector<int> _running;
    std::vector<int> _itemBoard;
    int _arrivals = 0;
};

TEST(TimerLane, SoakOf64BoardsWith129TimersMatchesTheReference)
{
    LaneShape shape;
    shape.timers = SoakScript::kBoards + 1; // Pass timers, then the pump.
    shape.periods.assign(SoakScript::kBoards, simtime::ms(400));
    LanePair lanes(shape, 64);
    std::vector<std::unique_ptr<SoakScript>> scripts;
    for (auto &h : lanes.harnesses()) {
        scripts.push_back(std::make_unique<SoakScript>(*h, 64));
        h->setScript([s = scripts.back().get()](Fire f) { s->onFire(f); });
    }
    for (auto &s : scripts)
        s->start();
    ASSERT_TRUE(lanes.check(true));
    std::size_t steps = 0;
    while (lanes.harnesses()[0]->queue().pending() > 0) {
        ASSERT_TRUE(lanes.stepAll(steps % 3 != 0)) << "step " << steps;
        ASSERT_LT(++steps, 400000u);
    }
    EXPECT_EQ(scripts[0]->arrivals(), SoakScript::kArrivals);
    EXPECT_GT(lanes.fires(), 10000u);
}

TEST(TimerLaneDeathTest, LabelCheckCatchesARecycledTimerLabel)
{
    // Timer labels are hashed at arm time and checked at fire, like
    // event labels: overwriting the label's storage must panic.
    EXPECT_DEATH(
        {
            EventQueue eq;
            eq.setLabelCheck(true);
            char label[32];
            std::strcpy(label, "volatile_timer");
            TimerId t = eq.addTimer(label, [] {});
            eq.armTimer(t, simtime::ms(1));
            std::strcpy(label, "overwritten!!!");
            eq.run();
        },
        "label");
}

// ---------------------------------------------------------------------
// Collision goldens: a board whose scheduling ticks, passes and item
// completions share exact timestamps.

/** FNV-1a over a run's records, HypervisorStats and events fired. */
class Digest
{
  public:
    template <class T>
    void
    add(const T &v)
    {
        static_assert(std::is_arithmetic_v<T>);
        const auto *p = reinterpret_cast<const unsigned char *>(&v);
        for (std::size_t i = 0; i < sizeof(v); ++i) {
            _h ^= p[i];
            _h *= 1099511628211ull;
        }
    }

    void
    add(const std::string &s)
    {
        add(s.size());
        for (char c : s)
            add(c);
    }

    void
    add(const AppRecord &r)
    {
        add(r.eventIndex);
        add(r.appName);
        add(r.batch);
        add(r.priority);
        add(r.arrival);
        add(r.firstLaunch);
        add(r.retire);
        add(r.runTime);
        add(r.reconfigTime);
        add(r.reconfigs);
        add(r.preemptions);
        add(r.energyJoules);
        add(r.failed);
        add(r.itemRetries);
        add(r.requeues);
        add(r.migrations);
        add(r.migrationTime);
    }

    void
    add(const HypervisorStats &s)
    {
        for (std::uint64_t v :
             {s.appsAdmitted, s.appsRetired, s.configuresIssued,
              s.reconfigSkips, s.preemptionsRequested, s.preemptionsHonored,
              s.checkpointPreemptions, s.schedulingPasses,
              s.purePassesElided, s.stallRescues, s.itemsExecuted,
              s.faultsInjected, s.faultRetries, s.quarantineEvents,
              s.probesIssued, s.appsFailed, s.appRequeues,
              s.appsMigratedOut, s.appsMigratedIn})
            add(v);
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 1469598103934665603ull;
};

/**
 * Apps with zero-byte transfers and bitstreams, whose item latencies are
 * multiples of 100 us (the pass latency). A cold configure started at a
 * tick's pass (T + 100 us) takes the 200 us SD load plus the 300 us CAP
 * overhead, so "aligned" completes its first item on the next tick and
 * "offset" on that tick's pass.
 */
AppRegistry
collisionRegistry()
{
    auto task = [](const char *name, SimTime latency) {
        TaskSpec t;
        t.name = name;
        t.itemLatency = latency;
        return t;
    };
    AppRegistry reg;

    GraphBuilder pulse;
    pulse.addTask(task("pulse", simtime::us(100)));
    reg.add(std::make_shared<AppSpec>("pulse", "P", pulse.build()));

    GraphBuilder aligned;
    aligned.addTask(task("aligned", simtime::ms(400) - simtime::us(600)));
    reg.add(std::make_shared<AppSpec>("aligned", "A", aligned.build()));

    GraphBuilder offset;
    offset.addTask(task("offset", simtime::ms(400) - simtime::us(500)));
    reg.add(std::make_shared<AppSpec>("offset", "O", offset.build()));

    GraphBuilder chain;
    TaskId c0 = chain.addTask(task("c0", simtime::us(300)));
    TaskId c1 = chain.addTask(task("c1", simtime::us(1200)));
    TaskId c2 = chain.addTask(task("c2", simtime::us(100)));
    chain.edge(c0, c1).edge(c1, c2);
    reg.add(std::make_shared<AppSpec>("chain", "C", chain.build()));

    GraphBuilder diamond;
    TaskId head = diamond.addTask(task("head", simtime::us(200)));
    TaskId tail = diamond.addTask(task("tail", simtime::us(400)));
    for (const char *name : {"m0", "m1", "m2"}) {
        TaskId mid = diamond.addTask(task(name, simtime::us(100)));
        diamond.edge(head, mid).edge(mid, tail);
    }
    reg.add(std::make_shared<AppSpec>("diamond", "D", diamond.build()));
    return reg;
}

/** Arrivals on the 400 ms tick grid, two per tick on every third tick. */
EventSequence
collisionSequence()
{
    const char *const apps[] = {"pulse", "aligned", "chain", "offset",
                                "diamond"};
    const Priority prios[] = {Priority::Low, Priority::Medium,
                              Priority::High};
    EventSequence seq;
    seq.name = "collisions";
    for (int i = 0; i < 60; ++i) {
        WorkloadEvent e;
        e.index = i;
        e.appName = apps[(i * 3) % 5];
        e.batch = 1 + (i * 5) % 6;
        e.priority = prios[i % 3];
        e.arrival = simtime::ms(400) * (i - i / 3);
        seq.events.push_back(std::move(e));
    }
    return seq;
}

SystemConfig
collisionConfig(const char *sched)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    cfg.fabric.defaultBitstreamBytes = 0;
    cfg.fabric.cap.fixedOverhead = simtime::us(300);
    cfg.fabric.store.sdSetupLatency = simtime::us(200);
    return cfg;
}

struct CollisionRun
{
    std::uint64_t digest = 0;
    std::uint64_t onTick = 0;  //!< Co-timed fires on the tick grid.
    std::uint64_t offTick = 0; //!< Co-timed fires between ticks.
};

/**
 * Simulation::run's single-board loop, composed from the public parts
 * so every fire's timestamp is visible.
 */
CollisionRun
runCollisions(const SystemConfig &cfg)
{
    const AppRegistry registry = collisionRegistry();
    const EventSequence seq = collisionSequence();
    EventQueue eq;
    Fabric fabric(eq, cfg.fabric);
    std::unique_ptr<Scheduler> scheduler = makeScheduler(cfg.scheduler);
    MetricsCollector collector;
    Hypervisor hyp(eq, fabric, *scheduler, collector, cfg.hypervisor);
    for (const WorkloadEvent &e : seq.events)
        fabric.internBitstreamName(e.appName);
    for (const WorkloadEvent &e : seq.events) {
        AppSpecPtr spec = registry.get(e.appName);
        eq.schedule(e.arrival, "arrival",
                    [&hyp, spec, batch = e.batch, priority = e.priority,
                     index = e.index] {
                        hyp.submit(spec, batch, priority, index);
                    });
    }
    hyp.start();

    CollisionRun out;
    bool stopped = false;
    SimTime last = kTimeNone;
    const SimTime tick = cfg.hypervisor.schedInterval;
    while (eq.step()) {
        if (eq.now() == last) {
            const bool on_tick = eq.now() % tick == 0;
            out.onTick += on_tick;
            out.offTick += !on_tick;
        }
        last = eq.now();
        if (!stopped && collector.count() == seq.events.size()) {
            hyp.stop();
            stopped = true;
        }
    }
    EXPECT_EQ(collector.count(), seq.events.size());

    Digest d;
    for (const AppRecord &rec : collector.records())
        d.add(rec);
    d.add(hyp.stats());
    d.add(eq.firedCount());
    out.digest = d.value();
    return out;
}

struct CollisionGolden
{
    const char *sched;
    std::uint64_t digest;
};

// Recorded from the build before armed timers got a lane of their own.
const CollisionGolden kCollisionGoldens[] = {
    {"fcfs", 0x2c49536f90f1018aull},
    {"prema", 0x79906661f5254f8dull},
    {"nimblock", 0x41b14f056be6679aull},
    {"learned", 0x9b9b6dcd3cf2135bull},
};

TEST(TimerLaneCollisions, CoTimedTicksPassesAndItemsMatchGoldens)
{
    setQuiet(true);
    for (const CollisionGolden &g : kCollisionGoldens) {
        SCOPED_TRACE(g.sched);
        CollisionRun run = runCollisions(collisionConfig(g.sched));
        EXPECT_EQ(run.digest, g.digest);
        EXPECT_GT(run.onTick, 0u);
        EXPECT_GT(run.offTick, 0u);
    }
    setQuiet(false);
}

} // namespace
} // namespace nimblock
