#include "workloads.hh"

#include <cstdio>
#include <cstring>

#include "core/experiment.hh"
#include "fabric/resources.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "taskgraph/builder.hh"
#include "workload/generator.hh"

namespace perfbench {

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::PaperGrid:
        return "paper_grid";
      case Workload::SoakSaturated:
        return "soak_saturated";
      case Workload::SoakBacklog:
        return "soak_backlog";
    }
    return "?";
}

std::vector<std::string>
workloadNames()
{
    return {"paper_grid", "soak_saturated", "soak_backlog"};
}

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::PaperGrid, Workload::SoakSaturated,
                       Workload::SoakBacklog}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/** FNV-1a over @p len bytes. */
std::uint64_t
fnv1a(const void *data, std::size_t len)
{
    std::uint64_t h = kFnvOffset;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Fold @p v into the running digest @p h (one FNV-1a round). */
std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    return h * 1099511628211ull;
}

} // namespace

int
inputCount(Workload w)
{
    // About 1.8 s per grid, 2 s per simulated hour of soak_saturated and
    // 0.45 s per soak_backlog stream on the reference host.
    switch (w) {
      case Workload::PaperGrid:
        return 23;
      case Workload::SoakSaturated:
        return 21;
      case Workload::SoakBacklog:
        return 90;
    }
    return 1;
}

int
tracedInputCount(Workload w)
{
    switch (w) {
      case Workload::PaperGrid:
        return 3;
      case Workload::SoakSaturated:
        return 1;
      case Workload::SoakBacklog:
        return 12;
    }
    return 1;
}

std::vector<std::uint64_t>
gridSeeds(std::uint64_t seed, int grids)
{
    std::vector<std::uint64_t> out = {seed};
    for (int k = 1; k < grids; ++k)
        out.push_back(Rng(seed).derive(formatMessage("grid%d", k)).seed());
    return out;
}

std::size_t
GridInputs::grids() const
{
    return units.size() / congestionScenarios().size();
}

std::size_t
GridInputs::runs() const
{
    std::size_t n = 0;
    for (const Unit &unit : units)
        n += unit.sequences.size();
    return n * gridSchedulers().size();
}

std::size_t
GridInputs::apps() const
{
    std::size_t n = 0;
    for (const Unit &unit : units) {
        for (const EventSequence &seq : unit.sequences)
            n += seq.events.size();
    }
    return n * gridSchedulers().size();
}

GridInputs
makeGridInputs(std::uint64_t seed, int grids)
{
    // Per grid seed, the stimuli bench_fig5_response_time generates: one
    // Rng per scenario seeded from the grid seed, one derived stream per
    // sequence.
    GridInputs in{standardRegistry(), {}};
    std::vector<std::uint64_t> seeds = gridSeeds(seed, grids);
    for (std::size_t k = 0; k < seeds.size(); ++k) {
        for (Scenario scenario : congestionScenarios()) {
            GeneratorConfig gen =
                scenarioConfig(scenario, in.registry.names());
            gen.numEvents = kGridEvents;
            in.units.push_back(
                {formatMessage("g%zu/%s", k, toString(scenario)),
                 generateSequences(toString(scenario), kGridSequences, gen,
                                   Rng(seeds[k]))});
        }
    }
    return in;
}

std::vector<std::string>
gridSchedulers()
{
    return extendedSchedulers();
}

std::uint64_t
runDigest(const RunResult &run)
{
    std::string in;
    char line[256];
    for (const AppRecord &rec : run.records) {
        std::snprintf(line, sizeof(line),
                      "%d,%s,%d,%d,%lld,%lld,%lld,%lld,%lld,%d,%d\n",
                      rec.eventIndex, rec.appName.c_str(), rec.batch,
                      rec.priority, static_cast<long long>(rec.arrival),
                      static_cast<long long>(rec.firstLaunch),
                      static_cast<long long>(rec.retire),
                      static_cast<long long>(rec.runTime),
                      static_cast<long long>(rec.reconfigTime),
                      rec.reconfigs, rec.preemptions);
        in += line;
    }
    std::snprintf(line, sizeof(line), "makespan=%lld\n",
                  static_cast<long long>(run.makespan));
    in += line;
    return fnv1a(in.data(), in.size());
}

std::uint64_t
cellDigest(const std::vector<RunResult> &runs)
{
    std::uint64_t h = kFnvOffset;
    for (const RunResult &run : runs)
        h = fold(h, runDigest(run));
    return h;
}

Digests
runUnit(const GridInputs &in, std::size_t u)
{
    const std::vector<std::string> schedulers = gridSchedulers();
    Digests out;
    try {
        ExperimentGrid grid(SystemConfig{}, in.registry);
        grid.setJobs(1);
        auto results = grid.runAll(schedulers, in.units[u].sequences);
        for (const std::string &sched : schedulers) {
            const SchedulerResults &r = results.at(sched);
            out.push_back({in.units[u].label + "/" + sched,
                           cellDigest(r.runs), r.runs.size()});
        }
    } catch (const FatalError &) {
        // The unit's cells stay missing and count as failed runs.
        out.clear();
    }
    return out;
}

Digests
runGridAt(const GridInputs &in, std::size_t g)
{
    const std::size_t scenarios = congestionScenarios().size();
    Digests out;
    for (std::size_t u = g * scenarios; u < (g + 1) * scenarios; ++u) {
        Digests d = runUnit(in, u);
        out.insert(out.end(), d.begin(), d.end());
    }
    return out;
}

Digests
runGrid(const GridInputs &in)
{
    Digests out;
    for (std::size_t u = 0; u < in.units.size(); ++u) {
        Digests d = runUnit(in, u);
        out.insert(out.end(), d.begin(), d.end());
    }
    return out;
}

namespace {

/** Single-task app with no I/O: the minimal streaming kernel. */
AppSpecPtr
kernelApp(const std::string &name, double latency_ms)
{
    GraphBuilder b;
    TaskSpec t;
    t.name = name + "_k";
    t.itemLatency = simtime::msF(latency_ms);
    t.inputBytes = 0;
    t.outputBytes = 0;
    b.addTask(std::move(t));
    return std::make_shared<AppSpec>(name, name, b.build());
}

} // namespace

std::vector<SoakShape>
soakShapes(Workload w, std::uint64_t seed, int streams)
{
    SoakShape shape;
    SoakConfig &cfg = shape.cfg;
    cfg.cluster.board.scheduler = "fcfs";
    cfg.cluster.board.hypervisor.allowReconfigSkip = true;
    cfg.cluster.dispatch = DispatchPolicy::RoundRobin;
    cfg.arrivals.kind = ArrivalKind::Poisson;
    cfg.admission.policy = AdmissionPolicy::QueueDepth;
    TenantSpec t;
    t.users = 1000000;
    if (w == Workload::SoakSaturated) {
        // bench_soak's headline shape: one 100 ms kernel per slot offered
        // at 1.15x the cluster's service capacity, passes coalesced into
        // 5 ms windows, queue-depth shedding of the structural excess.
        cfg.cluster.numBoards = 4;
        cfg.cluster.board.hypervisor.passLatency = simtime::ms(5);
        cfg.arrivals.ratePerSec = 1.15 * 4 * zcu106::kNumSlots / 0.1;
        cfg.horizon = simtime::sec(3600);
        cfg.admission.queueDepthCap = 48;
        cfg.appPoolSize = 96;
        t.name = "stream";
        t.app = kernelApp("soak_stream", 100.0);
    } else if (w == Workload::SoakBacklog) {
        // bench_soak's overload/queue_depth cell: a 5 ms kernel at 2x
        // one board's capacity; the live set pins at the 256 cap.
        cfg.cluster.numBoards = 1;
        cfg.arrivals.ratePerSec = 2.0 * zcu106::kNumSlots / 0.005;
        cfg.horizon = simtime::sec(5);
        cfg.admission.queueDepthCap = 256;
        cfg.appPoolSize = 512;
        t.name = "burst";
        t.app = kernelApp("soak_burst", 5.0);
    } else {
        fatal("%s is not a soak workload", workloadName(w));
    }
    shape.tenants.push_back(t);

    std::vector<SoakShape> out;
    Rng base = Rng(seed).derive(workloadName(w));
    for (int k = 0; k < streams; ++k) {
        shape.label = formatMessage("%s/s%d", workloadName(w), k);
        shape.rng = base.derive(formatMessage("s%d", k));
        out.push_back(shape);
    }
    return out;
}

std::uint64_t
soakDigest(const SoakStats &s)
{
    std::uint64_t h = kFnvOffset;
    for (std::uint64_t v : {s.submitted, s.admitted, s.shed, s.retired,
                            s.eventsFired, s.peakLive, s.latencyNs.count()})
        h = fold(h, v);
    for (std::size_t i = 0; i < HdrHistogram::kBucketCount; ++i)
        h = fold(h, s.latencyNs.bucketCount(i));
    for (double v : {s.slaAttainment, s.worstWindowAttainment}) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        h = fold(h, bits);
    }
    return h;
}

std::size_t
matchedRuns(const Digests &got, const Digests &want)
{
    std::size_t ok = 0;
    for (const Digest &w : want) {
        for (const Digest &g : got) {
            if (g.cell == w.cell) {
                if (g.value == w.value && g.runs == w.runs)
                    ok += g.runs;
                break;
            }
        }
    }
    return ok;
}

} // namespace perfbench
