/**
 * @file
 * Whole-simulation inner-loop benchmark.
 *
 * Runs every evaluation scheduler over one compressed stress sequence and
 * reports, per scheduler:
 *
 *   - events/sec and passes/sec over the whole run (wall clock, best of
 *     --reps repetitions), and
 *   - allocations per fired event inside the steady-state window,
 *     measured with the counting allocator hook (core/memhook.hh).
 *
 * The steady-state window opens once every application has been admitted
 * and closes at the first retirement: between those points the simulation
 * is pure scheduling — no instance construction, no record emission — so
 * the allocation count isolates the inner loop. Arrivals are compressed
 * to 1 ms spacing to guarantee the window is non-empty (admissions take
 * ~20 ms of simulated time; the shortest application runs for seconds).
 *
 * Results are also written as BENCH_innerloop.json (override with
 * --json PATH) for the CI bench-smoke artifact.
 *
 * `bench_sim_innerloop --help` lists the flags and their defaults.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "common.hh"
#include "core/config.hh"
#include "core/grid_context.hh"
#include "core/memhook.hh"
#include "fabric/fabric.hh"
#include "hypervisor/hypervisor.hh"
#include "metrics/collector.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/generator.hh"
#include "workload/scenario.hh"

namespace {

using namespace nimblock;

struct Options
{
    int events = 20;
    std::uint64_t seed = 2023;
    int reps = 3;
    std::string jsonPath = "BENCH_innerloop.json";
    EventQueueImpl impl = EventQueueImpl::Auto;
    bool elide = true;
};

/** Per-scheduler measurement. */
struct Result
{
    std::string scheduler;
    std::uint64_t eventsFired = 0;
    std::uint64_t passes = 0;
    std::uint64_t passesElided = 0;
    double wallSec = 0; //!< Best-of-reps whole-run wall time.
    std::uint64_t windowEvents = 0;
    std::uint64_t windowAllocs = 0;
    std::uint64_t windowAllocBytes = 0;

    double eventsPerSec() const { return eventsFired / wallSec; }
    double passesPerSec() const { return passes / wallSec; }
    double
    allocsPerEvent() const
    {
        return windowEvents
                   ? static_cast<double>(windowAllocs) / windowEvents
                   : 0.0;
    }
};

/** One (implementation, depth) point of the queue-depth sweep. */
struct QueueResult
{
    std::string impl;
    std::size_t depth;
    std::uint64_t ops = 0;
    double wallSec = 0;

    double opsPerSec() const { return ops / wallSec; }
};

/**
 * Classic hold-model microbenchmark of the bare event kernel: fill the
 * queue to @p depth, then repeatedly fire one co-timed batch and schedule
 * one replacement per fired event, keeping the pending count constant.
 * Each measured op is therefore one schedule + one fire at steady depth,
 * which is exactly the regime where the heap's O(log n) and the wheel's
 * O(1) diverge. Timestamps mix granule-scale and millisecond-scale
 * deltas so both near buckets and cascade promotion are exercised.
 */
QueueResult
runQueueSweep(EventQueueImpl impl, std::size_t depth, int reps)
{
    QueueResult q;
    q.impl = bench::queueImplNames()[static_cast<std::size_t>(impl)];
    q.depth = depth;
    q.ops = std::max<std::uint64_t>(4 * depth, 200000);

    for (int rep = 0; rep < reps; ++rep) {
        EventQueue eq(impl);
        eq.reserve(depth + 64);
        Rng rng(0xbadc0ffeeULL + depth);
        auto delta = [&rng]() -> SimTime {
            // 75% short holds (sub-ms), 25% long holds (up to ~100 ms):
            // short ones stay in the level-0 fast path, long ones land in
            // upper levels and must cascade back down before firing.
            if (rng.bernoulli(0.75))
                return 1 + rng.uniformInt(0, simtime::us(800));
            return 1 + rng.uniformInt(simtime::ms(1), simtime::ms(100));
        };
        for (std::size_t i = 0; i < depth; ++i)
            eq.schedule(delta(), "hold", [] {});

        auto t0 = std::chrono::steady_clock::now();
        while (eq.firedCount() < q.ops) {
            std::uint64_t before = eq.firedCount();
            if (!eq.step())
                break;
            std::uint64_t fired = eq.firedCount() - before;
            for (std::uint64_t i = 0; i < fired; ++i)
                eq.schedule(eq.now() + delta(), "hold", [] {});
        }
        auto t1 = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(t1 - t0).count();
        if (rep == 0 || wall < q.wallSec)
            q.wallSec = wall;
    }
    return q;
}

/** One full simulated run with the steady-state window instrumented. */
Result
runOnce(const std::string &scheduler_name, const SystemConfig &cfg,
        const AppRegistry &registry, const EventSequence &seq,
        const Options &opts, const GridContext &ctx)
{
    EventQueue eq(opts.impl);
    Fabric fabric(eq, cfg.fabric);
    auto scheduler = makeScheduler(scheduler_name);
    MetricsCollector collector;
    HypervisorConfig hcfg = cfg.hypervisor;
    hcfg.elidePurePasses = opts.elide;
    Hypervisor hyp(eq, fabric, *scheduler, collector, hcfg);
    // Run-invariant state is interned once in main() and shared by every
    // rep and scheduler: the measured loop fills no estimate caches.
    hyp.setGridContext(&ctx);
    for (const WorkloadEvent &e : seq.events)
        fabric.internBitstreamName(e.appName);

    SimTime total_work = 0;
    for (const WorkloadEvent &e : seq.events) {
        SimTime lat = ctx.singleSlotLatency(registry.get(e.appName).get(),
                                            e.batch);
        if (lat == kTimeNone)
            lat = cfg.singleSlotLatency(*registry.get(e.appName), e.batch);
        total_work += lat;
    }
    SimTime horizon =
        seq.lastArrival() +
        static_cast<SimTime>(cfg.horizonFactor *
                             static_cast<double>(total_work)) +
        simtime::sec(60);

    eq.reserve(seq.events.size() + 64);
    collector.reserve(seq.events.size());

    for (const WorkloadEvent &e : seq.events) {
        AppSpecPtr spec = registry.get(e.appName);
        eq.schedule(e.arrival, "arrival",
                    [&hyp, spec, batch = e.batch, priority = e.priority,
                     index = e.index] {
                        hyp.submit(spec, batch, priority, index);
                    });
    }

    hyp.start();

    Result r;
    r.scheduler = scheduler_name;
    const std::size_t total = seq.events.size();
    bool window_open = false, window_done = false, stopped = false;
    std::uint64_t window_start_fired = 0;
    // Pre-step snapshots so the window excludes the step that closes it:
    // the first retirement emits an AppRecord (a cold-path allocation by
    // definition), and counting must stop before it.
    std::uint64_t pre_allocs = 0, pre_bytes = 0, pre_fired = 0;

    auto t0 = std::chrono::steady_clock::now();
    while (!eq.empty()) {
        if (window_open) {
            pre_allocs = memhook::allocCount();
            pre_bytes = memhook::allocBytes();
            pre_fired = eq.firedCount();
        }
        if (!eq.step())
            break;
        if (!window_open && !window_done &&
            hyp.stats().appsAdmitted == total && collector.count() == 0) {
            window_open = true;
            window_start_fired = eq.firedCount();
            memhook::reset();
            memhook::setEnabled(true);
        }
        if (window_open && collector.count() > 0) {
            memhook::setEnabled(false);
            window_open = false;
            window_done = true;
            r.windowEvents = pre_fired - window_start_fired;
            r.windowAllocs = pre_allocs;
            r.windowAllocBytes = pre_bytes;
        }
        if (!stopped && collector.count() == total) {
            hyp.stop();
            stopped = true;
        }
        if (eq.now() > horizon) {
            fatal("scheduler '%s' stalled in the inner-loop bench",
                  scheduler_name.c_str());
        }
    }
    auto t1 = std::chrono::steady_clock::now();
    memhook::setEnabled(false);

    if (collector.count() != total)
        fatal("run ended with %zu/%zu applications retired",
              collector.count(), total);

    r.wallSec = std::chrono::duration<double>(t1 - t0).count();
    r.eventsFired = eq.firedCount();
    r.passes = hyp.stats().schedulingPasses;
    r.passesElided = hyp.stats().purePassesElided;
    return r;
}

void
writeJson(const std::string &path, const std::vector<Result> &results,
          const std::vector<QueueResult> &queue, const Options &opts)
{
    // Carry forward previous dated entries, then append this run.
    std::vector<std::string> history = bench::readHistory(path);
    {
        std::time_t now = std::time(nullptr);
        char date[32];
        std::strftime(date, sizeof(date), "%Y-%m-%d", std::localtime(&now));
        std::ostringstream entry;
        entry << "{\"date\": \"" << date << "\", \"impl\": \""
              << bench::queueImplNames()[static_cast<std::size_t>(opts.impl)]
              << "\"";
        for (const Result &r : results) {
            entry << ", \"" << r.scheduler << "\": "
                  << static_cast<long long>(r.eventsPerSec());
        }
        entry << "}";
        history.push_back(entry.str());
    }

    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    std::fprintf(f, "{\n  \"bench\": \"sim_innerloop\",\n");
    std::fprintf(f, "  \"events\": %d,\n  \"seed\": %llu,\n",
                 opts.events, static_cast<unsigned long long>(opts.seed));
    std::fprintf(f, "  \"schedulers\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const Result &r = results[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"events_fired\": %llu, "
            "\"passes\": %llu, \"wall_sec\": %.6f, "
            "\"events_per_sec\": %.0f, \"passes_per_sec\": %.0f, "
            "\"window_events\": %llu, \"window_allocs\": %llu, "
            "\"window_alloc_bytes\": %llu, \"allocs_per_event\": %.4f}%s\n",
            r.scheduler.c_str(),
            static_cast<unsigned long long>(r.eventsFired),
            static_cast<unsigned long long>(r.passes), r.wallSec,
            r.eventsPerSec(), r.passesPerSec(),
            static_cast<unsigned long long>(r.windowEvents),
            static_cast<unsigned long long>(r.windowAllocs),
            static_cast<unsigned long long>(r.windowAllocBytes),
            r.allocsPerEvent(), i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"queue\": [\n");
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const QueueResult &q = queue[i];
        std::fprintf(f,
                     "    {\"impl\": \"%s\", \"depth\": %zu, "
                     "\"ops\": %llu, \"wall_sec\": %.6f, "
                     "\"ops_per_sec\": %.0f}%s\n",
                     q.impl.c_str(), q.depth,
                     static_cast<unsigned long long>(q.ops), q.wallSec,
                     q.opsPerSec(), i + 1 < queue.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"history\": [\n");
    for (std::size_t i = 0; i < history.size(); ++i) {
        std::fprintf(f, "    %s%s\n", history[i].c_str(),
                     i + 1 < history.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bench::parseFlagsOrExit(
        argc, argv,
        {{"--events", &opts.events, "stress-sequence events", 2},
         {"--seed", &opts.seed, "workload seed"},
         {"--reps", &opts.reps, "repetitions per measurement (best kept)",
          1},
         {"--json", &opts.jsonPath, "results file"},
         {"--impl", &opts.impl, "event queue", bench::queueImplNames()},
         {"--no-elide", [&opts] { opts.elide = false; },
          "run every scheduling pass (no pure-pass elision)"}});
    setQuiet(true);

    AppRegistry registry = standardRegistry();
    SystemConfig cfg;

    GeneratorConfig gen =
        scenarioConfig(Scenario::Stress, registry.names());
    gen.numEvents = opts.events;
    EventSequence seq =
        generateSequence("innerloop", gen, Rng(opts.seed));
    // Compress arrivals so every admission precedes the first
    // retirement, making the steady-state window well defined.
    for (std::size_t i = 0; i < seq.events.size(); ++i)
        seq.events[i].arrival = simtime::ms(static_cast<double>(i));

    // Intern all run-invariant derived state (latency estimates,
    // goal-number sweeps) once, outside the measured loops.
    GridContext ctx(cfg);
    ctx.warmSequence(seq, registry);
    ctx.freeze();

    std::printf("# bench_sim_innerloop: %d events, seed %llu, %d reps\n",
                opts.events, static_cast<unsigned long long>(opts.seed),
                opts.reps);
    std::printf("%-10s %12s %12s %12s %10s %14s %12s\n", "scheduler",
                "events", "events/s", "passes/s", "elided",
                "window-allocs", "allocs/ev");

    std::vector<Result> results;
    for (const std::string &name : evaluationSchedulers()) {
        Result best;
        for (int rep = 0; rep < opts.reps; ++rep) {
            Result r = runOnce(name, cfg, registry, seq, opts, ctx);
            if (rep == 0 || r.wallSec < best.wallSec)
                best = r;
        }
        std::printf("%-10s %12llu %12.0f %12.0f %10llu %14llu %12.4f\n",
                    best.scheduler.c_str(),
                    static_cast<unsigned long long>(best.eventsFired),
                    best.eventsPerSec(), best.passesPerSec(),
                    static_cast<unsigned long long>(best.passesElided),
                    static_cast<unsigned long long>(best.windowAllocs),
                    best.allocsPerEvent());
        results.push_back(best);
    }

    // Bare-kernel hold-model sweep: where does the wheel overtake the
    // heap as the pending set grows?
    std::printf("%-10s %12s %12s\n", "queue", "depth", "hold-ops/s");
    std::vector<QueueResult> queue;
    for (std::size_t depth : {1000u, 10000u, 100000u}) {
        for (EventQueueImpl impl :
             {EventQueueImpl::Wheel, EventQueueImpl::Heap}) {
            QueueResult q = runQueueSweep(impl, depth, opts.reps);
            std::printf("%-10s %12zu %12.0f\n", q.impl.c_str(), q.depth,
                        q.opsPerSec());
            queue.push_back(q);
        }
    }

    writeJson(opts.jsonPath, results, queue, opts);
    std::printf("# wrote %s\n", opts.jsonPath.c_str());
    return 0;
}
