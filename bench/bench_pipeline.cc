/**
 * @file
 * Pipelined-kernel benchmark: scalar vs streaming-overlap execution.
 *
 * Sweeps the programmatic library apps (apps/library/) x every
 * scheduler in extendedSchedulers(), running each app twice per cell:
 * once as published (every task carries a KernelModel, so consecutive
 * batch items overlap inside a slot at the model's issue interval) and
 * once as its scalarClone() (same graph, same cold per-item latency,
 * models stripped — items run back-to-back). The pair isolates the
 * intra-slot overlap win from every other scheduling effect.
 *
 * Per (app, scheduler, mode) cell:
 *
 *   - mean response time and makespan,
 *   - items executed (identical across modes — the pipeline changes
 *     when work finishes, never how much work exists; the CI validator
 *     checks this closure),
 *   - the model's cold item latency and steady-state issue interval.
 *
 * Results are also written as BENCH_pipeline.json (override with
 * --json PATH) for the CI bench-smoke artifact and the committed
 * baseline guarded by scripts/check_bench_regression.py.
 *
 * `bench_pipeline --help` lists the flags and their defaults; --app and
 * --sched restrict the sweep to one row/column.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/library/library.hh"
#include "apps/registry.hh"
#include "common.hh"
#include "core/simulation.hh"
#include "metrics/analysis.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"

namespace {

using namespace nimblock;

struct Options
{
    int events = 10;
    int batch = 6;
    int spacingMs = 600;
    std::uint64_t seed = 2023;
    std::string jsonPath = "BENCH_pipeline.json";
    std::string app;
    std::string sched;
};

/** One (app, scheduler, mode) measurement. */
struct PipelinePoint
{
    std::string app;
    std::string scheduler;
    std::string mode; // "pipelined" | "scalar"
    double meanResponseSec = 0;
    double makespanSec = 0;
    std::uint64_t itemsExecuted = 0;
    std::uint64_t checkpointPreemptions = 0;
};

/**
 * Same arrival pattern for both modes; only the app name differs.
 *
 * The default spacing (600 ms) keeps the fabric busy without drowning
 * it: under heavy queueing contention preemptive schedulers flush
 * pipelines at item boundaries and the two modes converge, which is a
 * real effect worth sweeping with --spacing-ms but a poor default for
 * a regression baseline that asserts the overlap win per cell.
 */
EventSequence
sequenceFor(const std::string &app_name, const Options &opts)
{
    EventSequence seq;
    seq.name = "pipeline-" + app_name;
    for (int i = 0; i < opts.events; ++i) {
        Priority prio = (i % 3 == 2) ? Priority::High : Priority::Medium;
        seq.events.push_back(WorkloadEvent{
            i, app_name, opts.batch, prio,
            simtime::ms(static_cast<std::int64_t>(opts.spacingMs) * i)});
    }
    return seq;
}

PipelinePoint
runCell(const AppRegistry &registry, const std::string &app_name,
        const std::string &sched, const std::string &mode,
        const Options &opts)
{
    SystemConfig cfg;
    cfg.scheduler = sched;
    RunResult r = Simulation(cfg, registry).run(sequenceFor(app_name, opts));

    PipelinePoint p;
    p.scheduler = sched;
    p.mode = mode;
    p.meanResponseSec = meanResponseSec(r.records);
    p.makespanSec = simtime::toSec(r.makespan);
    p.itemsExecuted = r.hypervisorStats.itemsExecuted;
    p.checkpointPreemptions = r.hypervisorStats.checkpointPreemptions;
    return p;
}

void
writeJson(const std::string &path, const std::vector<PipelinePoint> &points,
          const Options &opts)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    std::fprintf(f, "{\n  \"bench\": \"pipeline\",\n");
    std::fprintf(f, "  \"events\": %d,\n  \"batch\": %d,\n", opts.events,
                 opts.batch);
    std::fprintf(f, "  \"spacing_ms\": %d,\n", opts.spacingMs);
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(opts.seed));
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PipelinePoint &p = points[i];
        std::fprintf(
            f,
            "    {\"app\": \"%s\", \"scheduler\": \"%s\", "
            "\"mode\": \"%s\", \"mean_response_sec\": %.6f, "
            "\"makespan_sec\": %.6f, \"items_executed\": %llu, "
            "\"checkpoint_preemptions\": %llu}%s\n",
            p.app.c_str(), p.scheduler.c_str(), p.mode.c_str(),
            p.meanResponseSec, p.makespanSec,
            static_cast<unsigned long long>(p.itemsExecuted),
            static_cast<unsigned long long>(p.checkpointPreemptions),
            i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<AppSpecPtr> apps = library::all();
    std::vector<std::string> app_names;
    for (const AppSpecPtr &spec : apps)
        app_names.push_back(spec->name());

    Options opts;
    bench::parseFlagsOrExit(
        argc, argv,
        {{"--events", &opts.events, "arrivals per cell", 1},
         {"--batch", &opts.batch,
          "items per arrival (one item never primes the pipeline)", 2},
         {"--spacing-ms", &opts.spacingMs, "milliseconds between arrivals",
          0},
         {"--seed", &opts.seed, "seed recorded in the results"},
         {"--json", &opts.jsonPath, "results file"},
         {"--app", &opts.app, "restrict the sweep to one library app",
          app_names},
         {"--sched", &opts.sched, "restrict the sweep to one scheduler",
          schedulerNames()},
         {"--quick",
          [&opts] {
              opts.events = 5;
              opts.batch = 4;
          },
          "5 events, batch 4"}});
    setQuiet(true);

    // One registry with both members of every A/B pair, so a cell is
    // just a scheduler and an app name.
    AppRegistry registry = extendedRegistry();
    for (const AppSpecPtr &spec : apps)
        registry.add(library::scalarClone(*spec));

    std::vector<std::string> schedulers = extendedSchedulers();
    if (!opts.sched.empty())
        schedulers = {opts.sched};

    std::printf("# bench_pipeline: %d events, batch %d, spacing %d ms, "
                "seed %llu\n",
                opts.events, opts.batch, opts.spacingMs,
                static_cast<unsigned long long>(opts.seed));
    std::printf("%-18s %-9s %10s %10s %8s\n", "app", "sched", "scalar_s",
                "piped_s", "speedup");

    std::vector<PipelinePoint> points;
    std::uint64_t runs = 0;
    for (const AppSpecPtr &spec : apps) {
        if (!opts.app.empty() && spec->name() != opts.app)
            continue;
        for (const std::string &sched : schedulers) {
            PipelinePoint scalar =
                runCell(registry, spec->name() + "_scalar", sched,
                        "scalar", opts);
            scalar.app = spec->name();
            PipelinePoint piped =
                runCell(registry, spec->name(), sched, "pipelined", opts);
            piped.app = spec->name();
            runs += 2;

            double speedup =
                piped.meanResponseSec > 0
                    ? scalar.meanResponseSec / piped.meanResponseSec
                    : 0.0;
            std::printf("%-18s %-9s %10.3f %10.3f %7.3fx\n",
                        spec->name().c_str(), sched.c_str(),
                        scalar.meanResponseSec, piped.meanResponseSec,
                        speedup);

            points.push_back(scalar);
            points.push_back(piped);
        }
    }

    writeJson(opts.jsonPath, points, opts);
    std::printf("# wrote %s (%llu runs)\n", opts.jsonPath.c_str(),
                static_cast<unsigned long long>(runs));
    return 0;
}
