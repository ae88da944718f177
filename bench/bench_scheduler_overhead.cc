/**
 * @file
 * Microbenchmarks of scheduler decision cost (google-benchmark).
 *
 * The paper argues low-overhead heuristics must replace expensive ILP
 * solving on the critical path; these benchmarks quantify the per-pass
 * cost of each algorithm's decision making and the one-off cost of the
 * saturation analysis that replaces DML's Gurobi ILP.
 */

#include <benchmark/benchmark.h>

#include "alloc/saturation.hh"
#include "apps/registry.hh"
#include "core/config.hh"
#include "core/grid_context.hh"
#include "core/simulation.hh"
#include "sim/logging.hh"
#include "taskgraph/builder.hh"
#include "workload/generator.hh"
#include "workload/scenario.hh"

namespace {

using namespace nimblock;

EventSequence
stressSequence(int events)
{
    AppRegistry reg = standardRegistry();
    GeneratorConfig cfg = scenarioConfig(Scenario::Stress, reg.names());
    cfg.numEvents = events;
    return generateSequence("ubench", cfg, Rng(99));
}

/** Whole-run cost per scheduling pass, per algorithm. */
void
BM_SchedulerRun(benchmark::State &state, const std::string &scheduler)
{
    setQuiet(true);
    AppRegistry reg = standardRegistry();
    EventSequence seq = stressSequence(12);
    std::uint64_t passes = 0;
    for (auto _ : state) {
        RunResult result = runSequence(scheduler, seq, reg);
        passes += result.hypervisorStats.schedulingPasses;
        benchmark::DoNotOptimize(result.records.data());
    }
    state.counters["passes_per_run"] =
        static_cast<double>(passes) / static_cast<double>(state.iterations());
}

BENCHMARK_CAPTURE(BM_SchedulerRun, baseline, std::string("baseline"));
BENCHMARK_CAPTURE(BM_SchedulerRun, fcfs, std::string("fcfs"));
BENCHMARK_CAPTURE(BM_SchedulerRun, prema, std::string("prema"));
BENCHMARK_CAPTURE(BM_SchedulerRun, rr, std::string("rr"));
BENCHMARK_CAPTURE(BM_SchedulerRun, nimblock, std::string("nimblock"));
BENCHMARK_CAPTURE(BM_SchedulerRun, learned, std::string("learned"));
BENCHMARK_CAPTURE(BM_SchedulerRun, themis, std::string("themis"));

/**
 * Host cost of one run through 50,000 clean ticks: a single-task app
 * whose 20,000 s kernel leaves nothing else to do. The pure schedulers
 * settle the stretch in a few steps, so their time per run is set-up and
 * a handful of dispatches and does not grow with the kernel. The three
 * time-driven schedulers dispatch every tick and its pass: prema and
 * nimblock run the token step, learned its features, RNG draw and
 * weight update. Their time per run divided by the ticks counter is the
 * per-tick cost of a clean tick.
 */
void
BM_CleanTicks(benchmark::State &state, const std::string &scheduler)
{
    setQuiet(true);
    SystemConfig cfg;
    cfg.scheduler = scheduler;
    TaskSpec kernel;
    kernel.name = "kernel";
    kernel.itemLatency = simtime::sec(20000);
    GraphBuilder graph;
    graph.addTask(kernel);
    AppRegistry reg;
    reg.add(std::make_shared<AppSpec>("long", "L", graph.build()));
    EventSequence seq;
    seq.name = "clean_ticks";
    seq.events.emplace_back();
    seq.events[0].appName = "long";
    const double ticks =
        static_cast<double>(kernel.itemLatency / cfg.hypervisor.schedInterval);
    for (auto _ : state) {
        RunResult result = Simulation(cfg, reg).run(seq);
        benchmark::DoNotOptimize(result.records.data());
    }
    state.counters["ticks"] = ticks; // Simulated per run.
}

BENCHMARK_CAPTURE(BM_CleanTicks, baseline, std::string("baseline"));
BENCHMARK_CAPTURE(BM_CleanTicks, fcfs, std::string("fcfs"));
BENCHMARK_CAPTURE(BM_CleanTicks, rr, std::string("rr"));
BENCHMARK_CAPTURE(BM_CleanTicks, themis, std::string("themis"));
BENCHMARK_CAPTURE(BM_CleanTicks, prema, std::string("prema"));
BENCHMARK_CAPTURE(BM_CleanTicks, nimblock, std::string("nimblock"));
BENCHMARK_CAPTURE(BM_CleanTicks, learned, std::string("learned"));

/** Saturation analysis (the ILP substitute) per application/batch. */
void
BM_SaturationAnalysis(benchmark::State &state)
{
    setQuiet(true);
    AppRegistry reg = standardRegistry();
    auto spec = reg.get("alexnet");
    MakespanParams params;
    params.batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        SaturationAnalysis analysis =
            analyzeSaturation(spec->graph(), 10, params);
        benchmark::DoNotOptimize(analysis.saturationPoint);
    }
}

BENCHMARK(BM_SaturationAnalysis)->Arg(1)->Arg(5)->Arg(30);

/**
 * GridContext warm-up for one Figure-5 grid unit (the standard scenario,
 * 10 sequences of 20 arrivals, seed 2023): every single-slot latency and
 * goal-number sweep ExperimentGrid::runAll computes before its runs.
 */
void
BM_GridContextWarm(benchmark::State &state)
{
    setQuiet(true);
    AppRegistry reg = standardRegistry();
    GeneratorConfig gen = scenarioConfig(Scenario::Standard, reg.names());
    gen.numEvents = 20;
    std::vector<EventSequence> seqs =
        generateSequences("standard", 10, gen, Rng(2023));
    SystemConfig cfg;
    std::size_t pairs = 0;
    for (auto _ : state) {
        GridContext ctx(cfg);
        for (const EventSequence &seq : seqs)
            ctx.warmSequence(seq, reg);
        pairs = ctx.pairCount();
        benchmark::DoNotOptimize(pairs);
    }
    state.counters["pairs"] = static_cast<double>(pairs);
}

BENCHMARK(BM_GridContextWarm);

/** Single-slot latency estimation (deadline unit) cost. */
void
BM_SingleSlotLatency(benchmark::State &state)
{
    setQuiet(true);
    AppRegistry reg = standardRegistry();
    auto spec = reg.get("optical_flow");
    for (auto _ : state) {
        SimTime lat = singleSlotLatency(spec->graph(), 30, simtime::ms(80));
        benchmark::DoNotOptimize(lat);
    }
}

BENCHMARK(BM_SingleSlotLatency);

} // namespace

BENCHMARK_MAIN();
