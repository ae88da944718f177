/**
 * @file
 * Microbenchmarks of the substrate hot paths (google-benchmark): event
 * queue throughput, bitstream-store cache behaviour, and task-graph
 * analyses.
 */

#include <benchmark/benchmark.h>

#include "apps/benchmarks.hh"
#include "core/memhook.hh"
#include "fabric/fabric.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "taskgraph/graph_algos.hh"

namespace {

using namespace nimblock;

/**
 * Enable allocation counting for one benchmark's measured region and
 * report allocations per processed item as a counter. The bench binary
 * links the memhook archive, so operator new/delete feed the counters.
 */
class AllocScope
{
  public:
    AllocScope()
    {
        memhook::reset();
        memhook::setEnabled(true);
    }

    void
    finish(benchmark::State &state, double items)
    {
        memhook::setEnabled(false);
        state.counters["allocs/item"] = benchmark::Counter(
            static_cast<double>(memhook::allocCount()) / items);
    }
};

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    AllocScope allocs;
    for (auto _ : state) {
        EventQueue eq;
        int fired = 0;
        for (int i = 0; i < n; ++i) {
            eq.schedule(simtime::us(i), "e", [&fired] { ++fired; });
        }
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * n);
    allocs.finish(state,
                  static_cast<double>(state.iterations()) * n);
}

BENCHMARK(BM_EventQueueScheduleFire)->Arg(1000)->Arg(10000);

/** Same workload with pre-sized storage (the simulation driver's mode). */
void
BM_EventQueueScheduleFireReserved(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    AllocScope allocs;
    for (auto _ : state) {
        EventQueue eq;
        eq.reserve(n);
        int fired = 0;
        for (int i = 0; i < n; ++i) {
            eq.schedule(simtime::us(i), "e", [&fired] { ++fired; });
        }
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * n);
    allocs.finish(state,
                  static_cast<double>(state.iterations()) * n);
}

BENCHMARK(BM_EventQueueScheduleFireReserved)->Arg(1000)->Arg(10000);

/**
 * Steady-state schedule/fire cycle on one long-lived queue whose storage
 * already sits at its high-water mark: the allocs/item counter must read
 * zero, making "the hot path allocates nothing" a measured number.
 */
void
BM_EventQueueSteadyState(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    EventQueue eq;
    eq.reserve(n);
    int fired = 0;
    // Prime the free list and the heap to their steady footprint.
    for (int i = 0; i < n; ++i)
        eq.schedule(eq.now() + simtime::us(i), "e", [&fired] { ++fired; });
    eq.run();

    AllocScope allocs;
    for (auto _ : state) {
        for (int i = 0; i < n; ++i) {
            eq.schedule(eq.now() + simtime::us(i), "e",
                        [&fired] { ++fired; });
        }
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * n);
    allocs.finish(state,
                  static_cast<double>(state.iterations()) * n);
}

BENCHMARK(BM_EventQueueSteadyState)->Arg(1000)->Arg(10000);

/**
 * The hypervisor's two timers among ordinary events: a 400 ms scheduling
 * tick (PeriodicEvent) and a pass timer that every pass request arms
 * 100 us out unless it is already armed. Each tick and each ordinary
 * event (an item completion) requests a pass; each ordinary event then
 * re-schedules itself, so the pending set holds `pending` of them.
 */
class TimerWorkload
{
  public:
    explicit TimerWorkload(std::size_t pending)
        : _pass(_eq.addTimer("sched_pass", [this] { ++_passes; })),
          _tick(_eq, simtime::ms(400), "sched_tick",
                [this] { requestPass(); })
    {
        _eq.reserve(pending + 2);
        _tick.start();
        for (std::size_t i = 0; i < pending; ++i)
            hold();
    }

    EventQueue &queue() { return _eq; }
    std::uint64_t passes() const { return _passes; }

  private:
    void
    requestPass()
    {
        if (!_eq.timerArmed(_pass))
            _eq.armTimerAfter(_pass, simtime::us(100));
    }

    void
    hold()
    {
        _eq.schedule(_eq.now() + _rng.uniformInt(simtime::us(100),
                                                 simtime::ms(800)),
                     "item_done", [this] {
                         requestPass();
                         hold();
                     });
    }

    EventQueue _eq;
    Rng _rng{2023};
    TimerId _pass;
    PeriodicEvent _tick;
    std::uint64_t _passes = 0;
};

void
BM_EventQueueTimers(benchmark::State &state)
{
    const auto pending = static_cast<std::size_t>(state.range(0));
    constexpr int kStepsPerIter = 1000;
    TimerWorkload w(pending);
    EventQueue &eq = w.queue();
    for (int i = 0; i < kStepsPerIter; ++i) // Reach the steady footprint.
        eq.step();

    const std::uint64_t fired_before = eq.firedCount();
    const std::uint64_t passes_before = w.passes();
    AllocScope allocs;
    for (auto _ : state) {
        for (int i = 0; i < kStepsPerIter; ++i)
            benchmark::DoNotOptimize(eq.step());
    }
    const double fired = static_cast<double>(eq.firedCount() - fired_before);
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
    allocs.finish(state, fired);
    state.counters["pass_share"] = benchmark::Counter(
        static_cast<double>(w.passes() - passes_before) / fired);
}

BENCHMARK(BM_EventQueueTimers)->ArgName("pending")->Arg(5)->Arg(1000);

/**
 * Hold model of the bare event kernel: fill the queue to `depth`, then
 * step it and schedule one replacement per fired event, so each item is
 * one schedule plus one fire at a constant pending depth. 75% of the
 * holds are sub-ms and 25% run 1-100 ms.
 */
void
BM_EventQueueHold(benchmark::State &state)
{
    const auto depth = static_cast<std::size_t>(state.range(0));
    constexpr int kStepsPerIter = 1000;
    EventQueue eq;
    eq.reserve(depth + 64);
    Rng rng(0xbadc0ffeeULL + depth);
    auto delta = [&rng]() -> SimTime {
        if (rng.bernoulli(0.75))
            return 1 + rng.uniformInt(0, simtime::us(800));
        return 1 + rng.uniformInt(simtime::ms(1), simtime::ms(100));
    };
    auto step = [&] {
        const std::uint64_t before = eq.firedCount();
        benchmark::DoNotOptimize(eq.step());
        for (std::uint64_t i = eq.firedCount() - before; i > 0; --i)
            eq.schedule(eq.now() + delta(), "hold", [] {});
    };
    for (std::size_t i = 0; i < depth; ++i)
        eq.schedule(delta(), "hold", [] {});
    for (int i = 0; i < kStepsPerIter; ++i) // Reach the steady footprint.
        step();

    const std::uint64_t fired_before = eq.firedCount();
    AllocScope allocs;
    for (auto _ : state) {
        for (int i = 0; i < kStepsPerIter; ++i)
            step();
    }
    const double fired = static_cast<double>(eq.firedCount() - fired_before);
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
    allocs.finish(state, fired);
}

BENCHMARK(BM_EventQueueHold)
    ->ArgName("depth")
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000);

void
BM_BitstreamStoreHitPath(benchmark::State &state)
{
    setQuiet(true);
    EventQueue eq;
    BitstreamStore store(eq, BitstreamStoreConfig{});
    BitstreamKey key{0, 0, 0};
    bool loaded = false;
    store.ensureLoaded(key, 8 << 20, [&loaded](bool) { loaded = true; });
    eq.run();

    for (auto _ : state) {
        int hits = 0;
        store.ensureLoaded(key, 8 << 20, [&hits](bool) { ++hits; });
        benchmark::DoNotOptimize(hits);
    }
}

BENCHMARK(BM_BitstreamStoreHitPath);

void
BM_CapReconfigure(benchmark::State &state)
{
    EventQueue eq;
    Cap cap(eq, CapConfig{});
    for (auto _ : state) {
        int done = 0;
        cap.reconfigure(0, 8 << 20, [&done](bool) { ++done; });
        eq.run();
        benchmark::DoNotOptimize(done);
    }
}

BENCHMARK(BM_CapReconfigure);

void
BM_TopoSortAlexNet(benchmark::State &state)
{
    auto spec = benchmarks::alexnet();
    for (auto _ : state) {
        SimTime cp = criticalPathLatency(spec->graph());
        benchmark::DoNotOptimize(cp);
    }
}

BENCHMARK(BM_TopoSortAlexNet);

void
BM_RngDraws(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.uniformInt(0, 29));
    }
}

BENCHMARK(BM_RngDraws);

} // namespace

BENCHMARK_MAIN();
