/**
 * @file
 * The traced run: spans timed from the benchmark's own code around
 * calls into each layer, with no instrumentation inside the library.
 *
 *   - TracingScheduler wraps a factory-made scheduler, forwards every
 *     virtual, and attaches the inner scheduler to a forwarding
 *     SchedulerOps, so passes, hooks and the configure/preempt commands
 *     a pass issues are bracketed without changing a single decision.
 *   - runTracedSequence() is Simulation::run composed from the same
 *     public parts, in the same order, with the wrapper in place.
 *   - ComposedSoak is SoakEngine composed from public parts (SoakEngine
 *     keeps its boards' schedulers private), in SoakEngine's
 *     construction order, with spans around the pump, admission,
 *     arrival draw, submit and retire recording.
 *
 * Equal digests between these composed runs and the public entry points
 * prove the wrappers are transparent; the harness checks that on every
 * traced run.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/grid_context.hh"
#include "core/simulation.hh"
#include "sched/scheduler.hh"
#include "stats/hdr_histogram.hh"
#include "workloads.hh"

namespace perfbench {

/** Span names; one aggregate per name. */
enum class Span : std::uint8_t
{
    SimStep,    //!< sim.step: one EventQueue::step().
    SchedPass,  //!< sched.pass: Scheduler::pass().
    SchedHook,  //!< sched.hook: admitted/retired/capacity hooks.
    HypCmd,     //!< hyp.cmd: configure/preempt issued by a pass.
    HypSubmit,  //!< hyp.submit: Hypervisor::submit().
    FaasPump,   //!< faas.pump: one arrival-pump callback.
    FaasAdmit,  //!< faas.admit: AdmissionController::admit().
    FaasNext,   //!< faas.next: ArrivalProcess::next().
    FaasRecord, //!< faas.record: HDR + rolling-SLA recording at retire.
    Count,
};

inline constexpr std::size_t kSpanCount =
    static_cast<std::size_t>(Span::Count);

const char *spanName(Span s);

/** Aggregate of one span name. */
struct SpanStats
{
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    /** Duration minus the time covered by child spans. */
    std::int64_t selfNs = 0;

    double
    meanSelfNs() const
    {
        return count ? static_cast<double>(selfNs) /
                           static_cast<double>(count)
                     : 0.0;
    }
};

/**
 * In-memory span aggregator: a stack of open spans, aggregated per name
 * on close (count, total, self time) plus a self-time histogram of
 * scheduler passes for the p99. Nothing is written until the run ends.
 */
class Tracer
{
  public:
    void
    begin(Span s)
    {
        if (_depth == kMaxDepth)
            overflow();
        _stack[_depth++] = Frame{s, clockNs(), 0};
    }

    /** Close the innermost span; returns its self time. */
    std::int64_t
    end()
    {
        Frame f = _stack[--_depth];
        std::int64_t dur = clockNs() - f.start;
        std::int64_t self = dur - f.childNs;
        SpanStats &st = _stats[static_cast<std::size_t>(f.span)];
        ++st.count;
        st.totalNs += dur;
        st.selfNs += self;
        if (f.span == Span::SchedPass)
            _passSelf.record(self);
        if (_depth)
            _stack[_depth - 1].childNs += dur;
        return self;
    }

    const SpanStats &
    operator[](Span s) const
    {
        return _stats[static_cast<std::size_t>(s)];
    }

    const HdrHistogram &passSelfHist() const { return _passSelf; }

    static std::int64_t
    clockNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

  private:
    [[noreturn]] static void overflow();

    struct Frame
    {
        Span span;
        std::int64_t start;
        std::int64_t childNs;
    };
    static constexpr std::size_t kMaxDepth = 16;
    std::array<Frame, kMaxDepth> _stack{};
    std::size_t _depth = 0;
    std::array<SpanStats, kSpanCount> _stats{};
    HdrHistogram _passSelf;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, Span s) : _t(t) { _t.begin(s); }
    ~ScopedSpan() { _t.end(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &_t;
};

/** Pass accounting of one scheduler (one grid column, or one probe). */
struct SchedStats
{
    std::uint64_t passes = 0;
    std::int64_t selfNs = 0;
    /** Sum of live apps seen at pass start. */
    std::uint64_t liveSum = 0;
    /** Configure calls that started a placement. */
    std::uint64_t placed = 0;

    double
    meanSelfNs() const
    {
        return passes ? static_cast<double>(selfNs) /
                            static_cast<double>(passes)
                      : 0.0;
    }

    double
    meanLive() const
    {
        return passes ? static_cast<double>(liveSum) /
                            static_cast<double>(passes)
                      : 0.0;
    }
};

/**
 * Transparent scheduler wrapper: forwards every virtual to the wrapped
 * scheduler and times it. The wrapped scheduler talks to the hypervisor
 * through a forwarding SchedulerOps that times configure/preempt.
 */
class TracingScheduler : public Scheduler
{
  public:
    TracingScheduler(std::unique_ptr<Scheduler> inner, Tracer &tracer,
                     SchedStats &stats);

    void pass(SchedEvent reason) override;
    void onAppAdmitted(AppInstance &app) override;
    void onAppRetired(AppInstance &app) override;
    void onCapacityChanged() override;
    bool bulkItemGating() const override { return _inner->bulkItemGating(); }
    void reserveApps(std::size_t n) override { _inner->reserveApps(n); }
    bool passIsPure() const override { return _inner->passIsPure(); }

  private:
    class Ops : public SchedulerOps
    {
      public:
        explicit Ops(TracingScheduler &outer) : _outer(outer) {}

        SimTime now() const override { return hyp().now(); }
        Fabric &fabric() override { return hyp().fabric(); }
        const std::vector<AppInstance *> &
        liveApps() override
        {
            return hyp().liveApps();
        }
        std::uint64_t
        liveAppsEpoch() const override
        {
            return hyp().liveAppsEpoch();
        }
        AppInstance *
        findApp(AppInstanceId id) override
        {
            return hyp().findApp(id);
        }
        bool configure(AppInstance &app, TaskId task, SlotId slot) override;
        bool preempt(SlotId slot) override;
        SimTime
        estimatedSingleSlotLatency(AppInstance &app) override
        {
            return hyp().estimatedSingleSlotLatency(app);
        }
        SimTime
        reconfigLatencyEstimate() const override
        {
            return hyp().reconfigLatencyEstimate();
        }
        const GridContext *
        gridContext() const override
        {
            return hyp().gridContext();
        }
        std::uint64_t
        stateVersion() const override
        {
            return hyp().stateVersion();
        }
        double
        energyJoulesTotal() const override
        {
            return hyp().energyJoulesTotal();
        }
        std::uint8_t
        slotPipelineFlags(SlotId slot) override
        {
            return hyp().slotPipelineFlags(slot);
        }

      private:
        SchedulerOps &hyp() const { return _outer.ops(); }
        TracingScheduler &_outer;
    };

    std::unique_ptr<Scheduler> _inner;
    Tracer &_tracer;
    SchedStats &_stats;
    Ops _ops;
};

/**
 * Simulation::run(@p seq) composed from public parts with @p cfg's
 * scheduler wrapped in a TracingScheduler and every arrival's submit
 * and every kernel step bracketed. @p ctx must be frozen. @p pendingSum
 * accumulates EventQueue::pendingCount() before each step.
 */
RunResult runTracedSequence(const SystemConfig &cfg,
                            const AppRegistry &registry,
                            const EventSequence &seq, const GridContext &ctx,
                            Tracer &tracer, SchedStats &stats,
                            std::uint64_t &pendingSum);

/**
 * SoakEngine rebuilt from public parts with traced wrappers: one
 * EventQueue; per board a Fabric, TracingScheduler and streaming
 * Hypervisor; a GridContext; TenantPopulation and ArrivalProcess on the
 * same Rng; an AdmissionController; HDR and rolling-SLA recording in the
 * retire listener; round-robin submit.
 */
class ComposedSoak
{
  public:
    ComposedSoak(const SoakShape &shape, Tracer &tracer, SchedStats &stats);
    ~ComposedSoak();

    ComposedSoak(const ComposedSoak &) = delete;
    ComposedSoak &operator=(const ComposedSoak &) = delete;

    /** Warm, prewarm pools, arm the pump (SoakEngine::start()). */
    void start();

    /** Drain the run; returns the host seconds the step loop took. */
    double drain();

    /** Accounting checks (fatal() on failure) and the outcome. */
    SoakStats finish();

    /** Wall time spent warming and freezing the GridContext. */
    double ctxSeconds() const { return _ctxSec; }

    std::uint64_t pendingSum() const { return _pendingSum; }
    std::uint64_t passesElided() const;

  private:
    struct Board;

    void onArrival();
    void onRetire(const AppInstance &app);
    void maybeStop();
    std::size_t liveCount() const;

    SoakConfig _cfg;
    Tracer &_tracer;
    EventQueue _eq;
    std::vector<std::unique_ptr<Board>> _boards;
    GridContext _ctx;
    TenantPopulation _population;
    std::unique_ptr<ArrivalProcess> _arrivals;
    AdmissionController _admission;
    std::vector<SimTime> _slaLimit;
    HdrHistogram _latency;
    RollingSlaWindows _sla;
    TimerId _pumpTimer = kTimerNone;
    std::size_t _rrNext = 0;
    bool _started = false;
    bool _stopped = false;
    bool _pumping = false;
    std::uint64_t _submitted = 0;
    std::uint64_t _admitted = 0;
    std::uint64_t _retired = 0;
    std::uint64_t _peakLive = 0;
    std::uint64_t _pendingSum = 0;
    double _ctxSec = 0.0;
};

/**
 * Hold model on a bare EventQueue: keep @p depth events pending, fire
 * one and schedule one per op. Returns the median ns/op of @p reps reps.
 */
double holdNsPerOp(EventQueueImpl impl, std::size_t depth, int reps = 3);

/**
 * One board with its live set held at @p depth single-task apps (every
 * retirement is replaced at the same timestamp). Times @p scheduler's
 * pass self time over up to @p passes passes after a warm-up, within a
 * wall budget of @p budgetSec.
 */
SchedStats depthProbe(const std::string &scheduler, std::size_t depth,
                      std::uint64_t passes, double budgetSec);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
