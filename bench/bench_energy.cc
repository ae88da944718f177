/**
 * @file
 * Energy/fairness benchmark: heterogeneous fabrics under skewed tenants.
 *
 * Sweeps fabric heterogeneity {uniform, 2-class, 3-class} x scheduler
 * {nimblock, prema, themis, learned} x workload {balanced, skewed}. The
 * skewed workload mixes heavy low-priority tenants into a crowd of
 * short interactive tenants under sustained queue pressure — the cell
 * where time-optimizing schedulers starve the heavies and a max-min
 * policy must not.
 *
 * Per cell:
 *
 *   - Jain's fairness index and max-min share over per-tenant normalized
 *     progress rates (solo response time on the same fabric divided by
 *     the shared-run response time; metrics/fairness.hh),
 *   - energy per retired application and whole-run joules from the
 *     energy model (energy/energy.hh),
 *   - makespan and mean response time.
 *
 * Results are also written as BENCH_energy.json (override with --json
 * PATH) for the CI bench-smoke artifact.
 *
 * `bench_energy --help` lists the flags and their defaults.
 */

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "common.hh"
#include "core/simulation.hh"
#include "metrics/analysis.hh"
#include "metrics/fairness.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"

namespace {

using namespace nimblock;

struct Options
{
    int events = 14;
    std::uint64_t seed = 2023;
    std::string jsonPath = "BENCH_energy.json";
};

/** A named fabric layout for the sweep. */
struct FabricCell
{
    std::string name;
    FabricConfig config;
};

SlotClassConfig
slotClass(const char *name, double reconfig_scale, double static_w,
          double dynamic_w, double reconfig_j)
{
    SlotClassConfig c;
    c.name = name;
    c.reconfigScale = reconfig_scale;
    c.staticPowerWatts = static_w;
    c.dynamicPowerWatts = dynamic_w;
    c.reconfigEnergyJoules = reconfig_j;
    return c;
}

/** Kernel speedup/compatibility table shared by the class layouts. */
void
addKernelRules(FabricConfig &fc)
{
    fc.kernelRules.push_back({"optical_flow", "big", true, 1.6});
    fc.kernelRules.push_back({"alexnet", "big", true, 1.4});
    fc.kernelRules.push_back({"lenet", "small", true, 0.9});
    fc.kernelRules.push_back({"3d_rendering", "small", true, 0.8});
}

std::vector<FabricCell>
fabricCells()
{
    std::vector<FabricCell> cells;

    cells.push_back({"uniform", FabricConfig{}});

    FabricConfig two;
    two.slotClasses = {slotClass("big", 1.4, 1.5, 6.0, 0.8),
                       slotClass("small", 1.0, 0.5, 2.0, 0.3)};
    two.boardLayout.assign(two.numSlots, "small");
    for (std::size_t s = 0; s < two.numSlots / 2; ++s)
        two.boardLayout[s] = "big";
    addKernelRules(two);
    cells.push_back({"2class", two});

    FabricConfig three;
    three.slotClasses = {slotClass("big", 1.5, 1.8, 7.0, 1.0),
                         slotClass("mid", 1.2, 1.0, 4.0, 0.5),
                         slotClass("small", 1.0, 0.4, 1.5, 0.25)};
    three.boardLayout.assign(three.numSlots, "mid");
    for (std::size_t s = 0; s < 3; ++s)
        three.boardLayout[s] = "big";
    for (std::size_t s = three.numSlots - 4; s < three.numSlots; ++s)
        three.boardLayout[s] = "small";
    addKernelRules(three);
    three.kernelRules.push_back({"optical_flow", "mid", true, 1.2});
    three.kernelRules.push_back({"image_compression", "mid", true, 1.1});
    cells.push_back({"3class", three});

    return cells;
}

/** A named workload for the sweep. */
struct WorkloadCell
{
    std::string name;
    EventSequence seq;
};

std::vector<WorkloadCell>
workloadCells(const Options &opts)
{
    std::vector<WorkloadCell> cells;

    GeneratorConfig gen;
    gen.numEvents = opts.events;
    gen.appPool = {"lenet", "image_compression", "optical_flow",
                   "3d_rendering"};
    gen.minDelayMs = 100;
    gen.maxDelayMs = 400;
    gen.maxBatch = 6;
    cells.push_back(
        {"balanced", generateSequence("energy", gen, Rng(opts.seed))});

    // Skewed tenants: a few heavy medium-batch tenants against a crowd
    // of short high-priority interactive apps under sustained queue
    // pressure. Time-optimizing policies push the heavies to the back of
    // the line pass after pass; max-min fairness keeps their normalized
    // progress close to the crowd's.
    EventSequence skew;
    skew.name = "energy-skew";
    const char *shorts[] = {"lenet", "image_compression", "3d_rendering"};
    for (int i = 0; i < opts.events; ++i) {
        if (i % 5 == 1) {
            skew.events.push_back(WorkloadEvent{i, "optical_flow", 8,
                                                Priority::Low,
                                                simtime::ms(150 * i)});
        } else {
            skew.events.push_back(WorkloadEvent{
                i, shorts[i % 3], 1 + (i % 3), Priority::High,
                simtime::ms(150 * i)});
        }
    }
    cells.push_back({"skewed", skew});

    return cells;
}

/** One (fabric, workload, scheduler) measurement. */
struct EnergyPoint
{
    std::string fabric;
    std::string workload;
    std::string scheduler;
    double jain = 0;
    double maxMin = 0;
    double energyPerAppJoules = 0;
    double totalJoules = 0;
    double perAppSumJoules = 0;
    double idleStaticJoules = 0;
    double makespanSec = 0;
    double meanResponseSec = 0;
};

/**
 * Solo response time of one event on @p fabric: the whole board to
 * itself under FCFS. Cached per (fabric, event index) across the
 * scheduler sweep.
 */
class SoloOracle
{
  public:
    SoloOracle(const FabricConfig &fabric, const AppRegistry &registry)
        : _fabric(fabric), _registry(registry)
    {
    }

    SimTime
    responseOf(const WorkloadEvent &event)
    {
        auto it = _cache.find(event.index);
        if (it != _cache.end())
            return it->second;
        EventSequence solo;
        solo.name = "solo";
        WorkloadEvent e = event;
        e.index = 0;
        e.arrival = 0;
        solo.events.push_back(e);
        SystemConfig cfg;
        cfg.scheduler = "fcfs";
        cfg.fabric = _fabric;
        RunResult r = Simulation(cfg, _registry).run(solo);
        SimTime resp = r.records.empty() ? kTimeNone
                                         : r.records[0].responseTime();
        _cache.emplace(event.index, resp);
        return resp;
    }

  private:
    const FabricConfig &_fabric;
    const AppRegistry &_registry;
    std::map<int, SimTime> _cache;
};

void
writeJson(const std::string &path, const std::vector<EnergyPoint> &points,
          const Options &opts)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write %s", path.c_str());
    std::fprintf(f, "{\n  \"bench\": \"energy\",\n");
    std::fprintf(f, "  \"events\": %d,\n  \"seed\": %llu,\n", opts.events,
                 static_cast<unsigned long long>(opts.seed));
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const EnergyPoint &p = points[i];
        std::fprintf(
            f,
            "    {\"fabric\": \"%s\", \"workload\": \"%s\", "
            "\"scheduler\": \"%s\", \"jain\": %.4f, "
            "\"max_min_share\": %.4f, "
            "\"energy_per_app_joules\": %.4f, \"total_joules\": %.4f, "
            "\"per_app_sum_joules\": %.4f, "
            "\"idle_static_joules\": %.4f, "
            "\"makespan_sec\": %.4f, \"mean_response_sec\": %.4f}%s\n",
            p.fabric.c_str(), p.workload.c_str(), p.scheduler.c_str(),
            p.jain, p.maxMin, p.energyPerAppJoules, p.totalJoules,
            p.perAppSumJoules, p.idleStaticJoules, p.makespanSec,
            p.meanResponseSec, i + 1 < points.size() ? "," : "");
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
        {{"--events", &opts.events, "arrivals per workload", 4},
         {"--seed", &opts.seed, "workload seed"},
         {"--json", &opts.jsonPath, "results file"},
         {"--quick", [&opts] { opts.events = 8; }, "8 events"}});
    setQuiet(true);

    AppRegistry registry = standardRegistry();
    const std::vector<std::string> schedulers = {"nimblock", "prema",
                                                 "themis", "learned"};

    std::printf("# bench_energy: %d events, seed %llu\n", opts.events,
                static_cast<unsigned long long>(opts.seed));
    std::printf("%-8s %-9s %-9s %7s %7s %9s %9s %9s\n", "fabric",
                "workload", "sched", "jain", "maxmin", "J/app", "totalJ",
                "mkspan");

    std::vector<EnergyPoint> points;
    for (const FabricCell &fabric : fabricCells()) {
        SoloOracle solo(fabric.config, registry);
        for (const WorkloadCell &load : workloadCells(opts)) {
            for (const std::string &sched : schedulers) {
                SystemConfig cfg;
                cfg.scheduler = sched;
                cfg.fabric = fabric.config;
                cfg.energy.enabled = true;
                RunResult r =
                    Simulation(cfg, registry).run(load.seq);

                std::vector<double> progress;
                progress.reserve(r.records.size());
                std::size_t retired = 0;
                double per_app_sum = 0.0;
                for (const AppRecord &rec : r.records)
                    per_app_sum += rec.energyJoules;
                for (const AppRecord &rec : r.records) {
                    if (rec.failed)
                        continue;
                    ++retired;
                    SimTime alone =
                        solo.responseOf(load.seq.events[static_cast<
                            std::size_t>(rec.eventIndex)]);
                    if (alone != kTimeNone && rec.responseTime() > 0) {
                        progress.push_back(
                            static_cast<double>(alone) /
                            static_cast<double>(rec.responseTime()));
                    }
                }

                EnergyPoint p;
                p.fabric = fabric.name;
                p.workload = load.name;
                p.scheduler = sched;
                p.jain = jainsIndex(progress);
                p.maxMin = maxMinShare(progress);
                p.totalJoules = r.energy.totalJoules;
                p.perAppSumJoules = per_app_sum;
                p.idleStaticJoules = r.energy.idleStaticJoules;
                p.energyPerAppJoules =
                    retired ? r.energy.totalJoules /
                                  static_cast<double>(retired)
                            : 0.0;
                p.makespanSec = simtime::toSec(r.makespan);
                p.meanResponseSec = meanResponseSec(r.records);
                points.push_back(p);

                std::printf(
                    "%-8s %-9s %-9s %7.4f %7.4f %9.2f %9.2f %8.2fs\n",
                    p.fabric.c_str(), p.workload.c_str(),
                    p.scheduler.c_str(), p.jain, p.maxMin,
                    p.energyPerAppJoules, p.totalJoules, p.makespanSec);
            }
        }
    }

    writeJson(opts.jsonPath, points, opts);
    std::printf("# wrote %s\n", opts.jsonPath.c_str());
    return 0;
}
