/**
 * @file
 * Regression guard for the steady-state zero-allocation invariant.
 *
 * Replays the measurement performed by bench_sim_innerloop as a test:
 * with tracing and counters disabled (the default), the simulation inner
 * loop — between the last admission and the first retirement — must not
 * allocate, for every evaluation scheduler. This binary links the
 * counting allocator (nimblock_memhook), so it is a separate executable
 * from nimblock_tests: the global operator new/delete replacement must
 * not leak into the ordinary test binary.
 */

#include <gtest/gtest.h>

#include "alloc/makespan.hh"
#include "apps/registry.hh"
#include "cluster/cluster.hh"
#include "core/config.hh"
#include "core/memhook.hh"
#include "fabric/fabric.hh"
#include "faas/soak.hh"
#include "hypervisor/hypervisor.hh"
#include "metrics/collector.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "taskgraph/builder.hh"
#include "workload/generator.hh"
#include "workload/scenario.hh"

namespace nimblock {
namespace {

struct WindowResult
{
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
};

/**
 * One full run with the steady-state window instrumented, as in
 * bench_sim_innerloop: the window opens once every application has been
 * admitted and closes on the step before the first retirement.
 */
WindowResult
measureWindow(const std::string &scheduler_name, const SystemConfig &cfg,
              const AppRegistry &registry, const EventSequence &seq)
{
    EventQueue eq;
    Fabric fabric(eq, cfg.fabric);
    auto scheduler = makeScheduler(scheduler_name);
    MetricsCollector collector;
    Hypervisor hyp(eq, fabric, *scheduler, collector, cfg.hypervisor);

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

    WindowResult r;
    const std::size_t total = seq.events.size();
    bool window_open = false, window_done = false, stopped = false;
    std::uint64_t window_start_fired = 0;
    std::uint64_t pre_allocs = 0, pre_bytes = 0, pre_fired = 0;

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
            r.events = pre_fired - window_start_fired;
            r.allocs = pre_allocs;
            r.bytes = pre_bytes;
        }
        if (!stopped && collector.count() == total) {
            hyp.stop();
            stopped = true;
        }
    }
    memhook::setEnabled(false);
    EXPECT_EQ(collector.count(), total) << scheduler_name;
    EXPECT_TRUE(window_done) << scheduler_name
                             << ": steady-state window never opened";
    return r;
}

TEST(MemhookZeroAlloc, SteadyStateAllocatesNothingWithTracingDisabled)
{
    setQuiet(true);
    AppRegistry registry = standardRegistry();
    SystemConfig cfg; // recordTimeline / recordCounters default off.

    // Same stimulus as bench_sim_innerloop's default: 20 events give the
    // schedulers' internal pools enough admissions to reach their
    // steady-state capacity before the window opens.
    GeneratorConfig gen = scenarioConfig(Scenario::Stress, registry.names());
    gen.numEvents = 20;
    EventSequence seq = generateSequence("innerloop", gen, Rng(2023));
    // Compress arrivals so every admission precedes the first retirement,
    // making the steady-state window well defined.
    for (std::size_t i = 0; i < seq.events.size(); ++i)
        seq.events[i].arrival = simtime::ms(static_cast<double>(i));

    // The extended set covers "learned" too: with the trace bridge at its
    // disabled default, the policy's decision loop (observation rebuilds,
    // candidate scoring, online weight updates) must not allocate either.
    for (const std::string &name : extendedSchedulers()) {
        WindowResult r = measureWindow(name, cfg, registry, seq);
        EXPECT_GT(r.events, 0u) << name << ": empty window";
        EXPECT_EQ(r.allocs, 0u)
            << name << " allocated " << r.allocs << " times (" << r.bytes
            << " bytes) in the steady-state window";
    }
}

TEST(MemhookZeroAlloc, PipelinedSteadyStateAllocatesNothing)
{
    setQuiet(true);
    // Library apps: every task carries a KernelModel, so the window
    // exercises the primed-issue path in startItem (priming decisions,
    // chunk-aligned checkpoint math) on every item boundary. The
    // pipeline state lives in two per-slot vectors sized at
    // construction; the invariant must hold exactly as it does for the
    // scalar path.
    AppRegistry registry = extendedRegistry();
    SystemConfig cfg;

    EventSequence seq;
    seq.name = "pipeline_innerloop";
    const char *apps[] = {"hash_tree", "video_transcode",
                          "transformer_block"};
    for (int i = 0; i < 18; ++i) {
        seq.events.push_back(WorkloadEvent{
            i, apps[i % 3], 4, i % 4 ? Priority::Medium : Priority::High,
            simtime::ms(static_cast<double>(i))});
    }

    for (const std::string &name : extendedSchedulers()) {
        WindowResult r = measureWindow(name, cfg, registry, seq);
        EXPECT_GT(r.events, 0u) << name << ": empty window";
        EXPECT_EQ(r.allocs, 0u)
            << name << " allocated " << r.allocs << " times (" << r.bytes
            << " bytes) in the pipelined steady-state window";
    }
}

/** The same window measured over a cluster instead of one board. */
WindowResult
measureClusterWindow(const ClusterConfig &cfg, const AppRegistry &registry,
                     const EventSequence &seq)
{
    EventQueue eq;
    Cluster cluster(eq, cfg);
    eq.reserve(seq.events.size() + 64);

    std::uint64_t admitted_target = seq.events.size();
    for (const WorkloadEvent &e : seq.events) {
        eq.schedule(e.arrival, "arrival", [&cluster, &registry, e] {
            cluster.submit(registry, e);
        });
    }
    cluster.start();

    auto admitted = [&] {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < cluster.numBoards(); ++i)
            n += cluster.board(i).stats().appsAdmitted;
        return n;
    };

    WindowResult r;
    bool window_open = false, window_done = false, stopped = false;
    std::uint64_t window_start_fired = 0;
    std::uint64_t pre_allocs = 0, pre_bytes = 0, pre_fired = 0;
    // Passes seen per board when the last admission landed: the window
    // opens only after every board ran one scheduling pass over its full
    // population, so per-board caches (goal numbers, latency estimates)
    // are warm the way a long-running steady state would have them.
    std::vector<std::uint64_t> passes_at_full;
    while (!eq.empty()) {
        if (window_open) {
            pre_allocs = memhook::allocCount();
            pre_bytes = memhook::allocBytes();
            pre_fired = eq.firedCount();
        }
        if (!eq.step())
            break;
        if (!window_open && !window_done &&
            admitted() == admitted_target && cluster.retiredCount() == 0) {
            if (passes_at_full.empty()) {
                for (std::size_t i = 0; i < cluster.numBoards(); ++i)
                    passes_at_full.push_back(
                        cluster.board(i).stats().schedulingPasses);
            }
            bool warm = true;
            for (std::size_t i = 0; i < cluster.numBoards(); ++i) {
                if (cluster.board(i).stats().schedulingPasses <=
                    passes_at_full[i])
                    warm = false;
            }
            if (warm) {
                window_open = true;
                window_start_fired = eq.firedCount();
                memhook::reset();
                memhook::setEnabled(true);
            }
        }
        if (window_open && cluster.retiredCount() > 0) {
            memhook::setEnabled(false);
            window_open = false;
            window_done = true;
            r.events = pre_fired - window_start_fired;
            r.allocs = pre_allocs;
            r.bytes = pre_bytes;
        }
        if (!stopped && cluster.retiredCount() == admitted_target) {
            cluster.stop();
            stopped = true;
        }
    }
    memhook::setEnabled(false);
    EXPECT_EQ(cluster.retiredCount(), admitted_target);
    EXPECT_TRUE(window_done) << "cluster steady-state window never opened";
    return r;
}

TEST(MemhookZeroAlloc, ClusterSteadyStateAllocatesNothingWhenMigrationOff)
{
    setQuiet(true);
    AppRegistry registry = standardRegistry();

    // With ClusterConfig::migration at its disabled default, the cluster
    // inner loop is exactly the per-board inner loop plus dispatch, and
    // must preserve the zero-allocation invariant.
    ClusterConfig cfg;
    cfg.numBoards = 2;
    cfg.board.scheduler = "nimblock";
    // Round-robin splits the events exactly in half, giving each board
    // the same 20-apps-on-10-slots density the single-board test uses:
    // enough pressure that every slot stays claimed through the window.
    cfg.dispatch = DispatchPolicy::RoundRobin;

    GeneratorConfig gen = scenarioConfig(Scenario::Stress, registry.names());
    gen.numEvents = 40;
    EventSequence seq = generateSequence("cluster_innerloop", gen, Rng(7));
    for (std::size_t i = 0; i < seq.events.size(); ++i)
        seq.events[i].arrival = simtime::ms(static_cast<double>(i));

    WindowResult r = measureClusterWindow(cfg, registry, seq);
    EXPECT_GT(r.events, 0u) << "empty cluster window";
    EXPECT_EQ(r.allocs, 0u)
        << "cluster allocated " << r.allocs << " times (" << r.bytes
        << " bytes) in the steady-state window";
}

TEST(MemhookZeroAlloc, SoakSteadyWindowAllocatesNothing)
{
    setQuiet(true);

    // The open-loop streaming path end to end: arrival pump, admission,
    // weighted tenant pick, pooled submit via submitSpec, retire into
    // HDR histogram + rolling SLA windows. Once the instance pools have
    // absorbed the initial churn (warmup by retirements), an arbitrarily
    // long steady window must count zero allocations. Both readers of
    // the readiness delta run: recycled ids and the queued flags that
    // reinit() resets go through fcfs's FIFO and rr's slot queues.
    GraphBuilder b;
    TaskSpec t;
    t.name = "soak_mh_k";
    t.itemLatency = simtime::ms(10);
    b.addTask(std::move(t));
    std::vector<TenantSpec> tenants(1);
    tenants[0].name = "stream";
    tenants[0].app =
        std::make_shared<AppSpec>("soak_mh", "soak_mh", b.build());
    tenants[0].users = 1000;

    for (const char *scheduler : {"fcfs", "rr"}) {
        SCOPED_TRACE(scheduler);
        SoakConfig cfg;
        cfg.cluster.numBoards = 2;
        cfg.cluster.board.scheduler = scheduler;
        cfg.cluster.board.hypervisor.allowReconfigSkip = true;
        // Offer 1.2x the 2x10-slot service rate so the boards stay
        // saturated and the queue-depth gate sheds inside the window
        // too.
        cfg.arrivals.ratePerSec = 1.2 * 2 * 10 / 0.010;
        cfg.horizon = simtime::sec(30);
        cfg.admission.policy = AdmissionPolicy::QueueDepth;
        cfg.admission.queueDepthCap = 32;
        cfg.appPoolSize = 64;

        SoakEngine engine(cfg, tenants, Rng(2023));
        engine.start();

        // Same pre-step snapshot discipline as bench_soak: the window
        // never includes the step that closes it.
        constexpr std::uint64_t kWarmupRetired = 8 * 32;
        constexpr std::uint64_t kTargetEvents = 20000;
        bool window_open = false, window_done = false;
        std::uint64_t window_start_fired = 0;
        std::uint64_t pre_allocs = 0, pre_bytes = 0, pre_fired = 0;
        WindowResult r;
        for (;;) {
            if (window_open) {
                pre_allocs = memhook::allocCount();
                pre_bytes = memhook::allocBytes();
                pre_fired = engine.queue().firedCount();
            }
            if (!engine.step())
                break;
            if (!window_open && !window_done &&
                engine.retired() >= kWarmupRetired && engine.pumping()) {
                window_open = true;
                window_start_fired = engine.queue().firedCount();
                memhook::reset();
                memhook::setEnabled(true);
            } else if (window_open &&
                       (pre_fired - window_start_fired >= kTargetEvents ||
                        !engine.pumping())) {
                memhook::setEnabled(false);
                window_open = false;
                window_done = true;
                r.events = pre_fired - window_start_fired;
                r.allocs = pre_allocs;
                r.bytes = pre_bytes;
            }
        }
        memhook::setEnabled(false);
        ASSERT_TRUE(window_done) << "soak steady window never opened";

        SoakStats s = engine.finish();
        EXPECT_EQ(s.submitted, s.admitted + s.shed);
        EXPECT_EQ(s.retired, s.admitted);
        EXPECT_GT(s.shed, 0u) << "window should span admission shedding too";
        EXPECT_GE(r.events, kTargetEvents);
        EXPECT_EQ(r.allocs, 0u)
            << "soak steady window allocated " << r.allocs << " times ("
            << r.bytes << " bytes) over " << r.events << " events";
    }
}

TEST(MemhookZeroAlloc, MakespanEstimatorAllocatesNothingAfterItsFirstSweep)
{
    // GridContext warm-up runs saturation sweeps on one estimator per
    // sweep: its event heap, task states and per-task latencies keep
    // their capacity, so only the first estimate may grow them.
    setQuiet(true);
    AppRegistry registry = extendedRegistry();
    SystemConfig cfg;
    MakespanParams p;
    p.reconfigLatency = cfg.reconfigLatency();
    p.psBandwidthBytesPerSec = cfg.fabric.psBandwidthBytesPerSec;
    for (const std::string &name : registry.names()) {
        const TaskGraph &graph = registry.get(name)->graph();
        MakespanEstimator estimator;
        auto sweep = [&] {
            SimTime sum = 0;
            for (std::size_t k = 1; k <= cfg.fabric.numSlots; ++k) {
                p.slots = k;
                sum += estimator.estimate(graph, p);
            }
            return sum;
        };
        p.batch = 1;
        p.pipelined = true;
        sweep();

        memhook::reset();
        memhook::setEnabled(true);
        SimTime total = 0;
        for (int batch : {1, 5, 30}) {
            for (bool pipelined : {true, false}) {
                p.batch = batch;
                p.pipelined = pipelined;
                total += sweep();
            }
        }
        memhook::setEnabled(false);
        EXPECT_GT(total, 0) << name;
        EXPECT_EQ(memhook::allocCount(), 0u)
            << name << ": the estimator allocated " << memhook::allocCount()
            << " times (" << memhook::allocBytes()
            << " bytes) after its first sweep";
    }
}

} // namespace
} // namespace nimblock
