#include "cli.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "traced.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

struct Options
{
    Workload workload = Workload::PaperGrid;
    bool haveWorkload = false;
    std::uint64_t seed = kReferenceSeed;
    double seconds = 10.0;
    bool trace = false;
    bool printDigests = false;
};

[[noreturn]] void
usage(const char *error)
{
    if (error)
        std::fprintf(stderr, "perfbench: %s\n", error);
    std::fprintf(stderr,
                 "usage: perfbench --workload W [--seed N] [--seconds S] "
                 "[--trace 0|1]\n"
                 "       perfbench --print-digests --workload W [--seed N]\n"
                 "workloads:");
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *text, std::uint64_t max)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || end == text || *end || text[0] == '-' || v > max) {
        char msg[128];
        std::snprintf(msg, sizeof(msg), "bad value '%s' for %s", text, flag);
        usage(msg);
    }
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::string msg = "flag " + arg + " needs a value";
                usage(msg.c_str());
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            const char *w = value();
            if (!parseWorkload(w, o.workload)) {
                std::string msg = std::string("unknown workload '") + w + "'";
                usage(msg.c_str());
            }
            o.haveWorkload = true;
        } else if (arg == "--seed") {
            o.seed = parseUnsigned("--seed", value(), UINT64_MAX);
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(
                parseUnsigned("--seconds", value(), 3600));
        } else if (arg == "--trace") {
            o.trace = parseUnsigned("--trace", value(), 1) == 1;
        } else if (arg == "--print-digests") {
            o.printDigests = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(nullptr);
        } else {
            std::string msg = "unknown flag '" + arg + "'";
            usage(msg.c_str());
        }
    }
    if (!o.haveWorkload)
        usage("--workload is required");
    if (o.seconds < 1)
        usage("--seconds must be at least 1");
    return o;
}

double
nowSec()
{
    return static_cast<double>(Tracer::clockNs()) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** VmHWM of this process in MiB (0 when /proc is unavailable). */
double
peakRssMiB()
{
    FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kib / 1024.0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Outcome of one invocation: the result line's fields. */
struct Outcome
{
    std::size_t attempted = 0;
    std::size_t ok = 0;
    /** False when a check other than a run digest failed. */
    bool checksPassed = true;
    std::vector<Metric> metrics;
};

void
printResult(const Outcome &out)
{
    for (const Metric &m : out.metrics)
        std::printf("# %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    std::size_t failed = out.attempted - out.ok;
    bool correct = out.checksPassed && failed == 0 && out.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", out.attempted, failed);
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Reference digests at the reference seed; none at other seeds. */
const Digests *
referenceFor(const Options &o)
{
    return o.seed == kReferenceSeed ? &referenceDigests(o.workload)
                                    : nullptr;
}

/**
 * Checks cell digests against the reference at the reference seed. At
 * other seeds a cell's first digest is recorded and every later run of
 * the cell must repeat it: a deterministic simulator reproduces its own
 * output.
 */
class DigestCheck
{
  public:
    explicit DigestCheck(const Options &o)
    {
        if (const Digests *ref = referenceFor(o)) {
            _strict = true;
            for (const Digest &d : *ref)
                _want.emplace(d.cell, d);
        }
    }

    /** Runs of @p got whose cell digest is the expected one. */
    std::size_t
    check(const Digests &got)
    {
        std::size_t ok = 0;
        for (const Digest &g : got) {
            auto it = _want.find(g.cell);
            if (it == _want.end()) {
                // A cell the reference lacks cannot be verified.
                if (!_strict) {
                    _want.emplace(g.cell, g);
                    ok += g.runs;
                }
            } else if (it->second.value == g.value &&
                       it->second.runs == g.runs) {
                ok += g.runs;
            }
        }
        return ok;
    }

  private:
    std::map<std::string, Digest> _want;
    bool _strict = false;
};

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics.
//
// A run times one pass over the workload's inputs, one chunk per input: a
// Figure-5 grid (one runAll call per scenario) or a soak stream (the
// SoakEngine step loop). apps_per_s is the apps the chunks retired over
// their summed host time. Neighbours on a shared host slow the run down
// for seconds to minutes, by up to 2x; a long pass over many distinct
// inputs averages over that and over the seed-to-seed cost variation. A
// chunk of the first input runs untimed before the pass: it warms caches
// and the allocator, and the timed pass must repeat its digests.

/** Fewest timed chunks, however short --seconds is. */
constexpr std::size_t kMinChunks = 3;
/** Run length the input counts are sized for (see inputCount). */
constexpr double kDesignSeconds = 60.0;

/**
 * Timed chunks: inputCount() at the design length, in proportion to
 * --seconds otherwise; chunk i replays input i mod inputCount(). Depends
 * only on the workload and --seconds, never on the build's speed.
 */
std::size_t
timedChunks(const Options &o)
{
    double n =
        std::floor(inputCount(o.workload) * o.seconds / kDesignSeconds);
    return std::max(kMinChunks, static_cast<std::size_t>(n));
}

/** Retired apps and host time of the timed chunks. */
struct Throughput
{
    double apps = 0.0;
    double sec = 0.0;
    std::vector<double> chunkRates;

    void
    add(double chunkApps, double chunkSec)
    {
        apps += chunkApps;
        sec += chunkSec;
        chunkRates.push_back(chunkApps / chunkSec);
    }
};

/**
 * Set-up time: rounds of a few set-ups interleaved with the timed work;
 * each round keeps its fastest set-up and the metric is the median over
 * rounds, so a burst of interference inside one round does not count.
 */
class SetupTimes
{
  public:
    static constexpr int kPerRound = 5;
    /** Rounds taken before the timed phase starts. */
    static constexpr int kFirstRounds = 7;

    template <typename SetUp>
    void
    round(SetUp &&setUp)
    {
        double best = HUGE_VAL;
        for (int i = 0; i < kPerRound; ++i) {
            double t0 = nowSec();
            setUp();
            best = std::min(best, nowSec() - t0);
        }
        _rounds.push_back(best);
    }

    double median() const { return perfbench::median(_rounds); }
    std::size_t rounds() const { return _rounds.size(); }

  private:
    std::vector<double> _rounds;
};

std::vector<Metric>
timedMetrics(const Throughput &timed, const SetupTimes &setup)
{
    std::printf("# %zu timed chunks, %zu set-up rounds; apps/s per chunk:",
                timed.chunkRates.size(), setup.rounds());
    for (double r : timed.chunkRates)
        std::printf(" %.1f", r);
    std::printf("\n");
    return {{"apps_per_s", timed.apps / timed.sec, "apps/s"},
            {"setup_s", setup.median(), "s"}};
}

Outcome
measureGrid(const Options &o)
{
    Outcome out;
    const int inputs = inputCount(o.workload);
    SetupTimes setup;
    auto setUp = [&] { GridInputs in = makeGridInputs(o.seed, inputs); };
    for (int i = 0; i < SetupTimes::kFirstRounds; ++i)
        setup.round(setUp);
    GridInputs in = makeGridInputs(o.seed, inputs);
    const double apps = static_cast<double>(in.apps() / in.grids());

    DigestCheck digests(o);
    // Runs grid g and returns its host seconds.
    auto run = [&](std::size_t g) {
        double t0 = nowSec();
        Digests d = runGridAt(in, g);
        double sec = nowSec() - t0;
        out.attempted += in.runs() / in.grids();
        out.ok += digests.check(d);
        return sec;
    };
    run(0);

    Throughput timed;
    for (std::size_t i = 0; i < timedChunks(o); ++i) {
        setup.round(setUp);
        timed.add(apps, run(i % in.grids()));
    }
    out.metrics = timedMetrics(timed, setup);
    return out;
}

Outcome
measureSoak(const Options &o)
{
    Outcome out;
    const std::vector<SoakShape> shapes =
        soakShapes(o.workload, o.seed, inputCount(o.workload));
    SetupTimes setup;
    auto setUp = [&](const SoakShape &shape) {
        setup.round([&] {
            SoakEngine engine(shape.cfg, shape.tenants, shape.rng);
            engine.start();
        });
    };
    for (int i = 0; i < SetupTimes::kFirstRounds; ++i)
        setUp(shapes[i % shapes.size()]);

    DigestCheck digests(o);
    // Runs one stream and adds its retired apps and the host time of its
    // step loop to @p timed; a failed run adds nothing.
    auto run = [&](const SoakShape &shape, Throughput &timed) {
        ++out.attempted;
        try {
            SoakEngine engine(shape.cfg, shape.tenants, shape.rng);
            engine.start();
            double t0 = nowSec();
            while (engine.step()) {
            }
            double sec = nowSec() - t0;
            SoakStats stats = engine.finish();
            out.ok += digests.check({{shape.label, soakDigest(stats), 1}});
            timed.add(static_cast<double>(stats.retired), sec);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        }
    };
    Throughput warmUp;
    run(shapes.front(), warmUp);

    Throughput timed;
    for (std::size_t i = 0; i < timedChunks(o); ++i) {
        const SoakShape &shape = shapes[i % shapes.size()];
        setUp(shape);
        run(shape, timed);
    }
    out.metrics = timedMetrics(timed, setup);
    return out;
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics.

/** Depths and pass budget of the live-depth probe. */
constexpr std::size_t kProbeDepths[] = {16, 256, 2048};
constexpr std::uint64_t kProbePasses = 2000;
constexpr double kProbeBudgetSec = 1.5;

/** Everything the traced run aggregates, whatever the workload. */
struct TraceTotals
{
    Tracer tracer;
    /** Per grid column (soaks: one entry, their scheduler). */
    std::vector<std::string> schedNames;
    std::vector<SchedStats> sched;
    std::uint64_t pendingSum = 0;
    std::uint64_t events = 0;
    std::uint64_t elided = 0;
    double ctxSec = 0.0;
    double shedFrac = 0.0;
    double untracedSec = 0.0;
    double tracedSec = 0.0;
};

void
traceGrid(const Options &o, TraceTotals &t, Outcome &out)
{
    GridInputs in = makeGridInputs(o.seed, tracedInputCount(o.workload));
    double t0 = nowSec();
    Digests plain = runGrid(in);
    t.untracedSec = nowSec() - t0;

    t.schedNames = gridSchedulers();
    t.sched.assign(t.schedNames.size(), SchedStats{});
    Digests traced;
    t0 = nowSec();
    for (const GridInputs::Unit &unit : in.units) {
        try {
            // ExperimentGrid::runAll builds one context per call.
            double c0 = nowSec();
            GridContext ctx{SystemConfig{}};
            for (const EventSequence &seq : unit.sequences)
                ctx.warmSequence(seq, in.registry);
            ctx.freeze();
            t.ctxSec += nowSec() - c0;
            for (std::size_t k = 0; k < t.schedNames.size(); ++k) {
                SystemConfig cfg;
                cfg.scheduler = t.schedNames[k];
                std::vector<RunResult> runs;
                for (const EventSequence &seq : unit.sequences) {
                    runs.push_back(runTracedSequence(cfg, in.registry, seq,
                                                     ctx, t.tracer,
                                                     t.sched[k],
                                                     t.pendingSum));
                    t.events += runs.back().eventsFired;
                    t.elided += runs.back().hypervisorStats.purePassesElided;
                }
                traced.push_back({unit.label + "/" + t.schedNames[k],
                                  cellDigest(runs), runs.size()});
            }
        } catch (const FatalError &e) {
            std::fprintf(stderr, "perfbench: traced run failed: %s\n",
                         e.what());
        }
    }
    t.tracedSec = nowSec() - t0;

    out.attempted = 2 * in.runs();
    const Digests *ref = referenceFor(o);
    out.ok = matchedRuns(plain, ref ? *ref : plain) +
             matchedRuns(traced, plain);
}

void
traceSoak(const Options &o, TraceTotals &t, Outcome &out)
{
    const std::vector<SoakShape> shapes =
        soakShapes(o.workload, o.seed, tracedInputCount(o.workload));
    const Digests *ref = referenceFor(o);
    out.attempted = 2 * shapes.size();
    t.schedNames = {shapes.front().cfg.cluster.board.scheduler};
    t.sched.assign(1, SchedStats{});
    std::uint64_t submitted = 0, shed = 0;
    for (const SoakShape &shape : shapes) {
        Digests plain;
        try {
            SoakEngine engine(shape.cfg, shape.tenants, shape.rng);
            engine.start();
            double t0 = nowSec();
            while (engine.step()) {
            }
            t.untracedSec += nowSec() - t0;
            plain = {{shape.label, soakDigest(engine.finish()), 1}};
            out.ok += matchedRuns(plain, ref ? *ref : plain);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
        }
        try {
            ComposedSoak soak(shape, t.tracer, t.sched[0]);
            soak.start();
            t.tracedSec += soak.drain();
            SoakStats stats = soak.finish();
            t.ctxSec += soak.ctxSeconds();
            t.pendingSum += soak.pendingSum();
            t.events += stats.eventsFired;
            t.elided += soak.passesElided();
            submitted += stats.submitted;
            shed += stats.shed;
            Digests traced = {{shape.label, soakDigest(stats), 1}};
            out.ok += matchedRuns(traced, plain);
        } catch (const FatalError &e) {
            std::fprintf(stderr, "perfbench: traced run failed: %s\n",
                         e.what());
        }
    }
    t.shedFrac = submitted ? static_cast<double>(shed) /
                                 static_cast<double>(submitted)
                           : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

Outcome
measureTraced(const Options &o)
{
    Outcome out;
    TraceTotals t;
    if (o.workload == Workload::PaperGrid)
        traceGrid(o, t, out);
    else
        traceSoak(o, t, out);

    const Tracer &tr = t.tracer;
    for (std::size_t i = 0; i < kSpanCount; ++i) {
        const SpanStats &st = tr[static_cast<Span>(i)];
        std::printf("# span %-12s %12llu calls %12.3f ms total %12.3f ms "
                    "self\n",
                    spanName(static_cast<Span>(i)),
                    static_cast<unsigned long long>(st.count),
                    static_cast<double>(st.totalNs) * 1e-6,
                    static_cast<double>(st.selfNs) * 1e-6);
    }
    SchedStats all;
    for (const SchedStats &s : t.sched) {
        all.passes += s.passes;
        all.selfNs += s.selfNs;
        all.liveSum += s.liveSum;
        all.placed += s.placed;
    }
    const SpanStats &step = tr[Span::SimStep];
    double pending = ratio(static_cast<double>(t.pendingSum),
                           static_cast<double>(step.count));

    std::vector<Metric> &m = out.metrics;
    m.push_back({"sched.pass_ns", all.meanSelfNs(), "ns/pass"});
    for (const std::string &s : gridSchedulers()) {
        double v = 0.0; // 0: the scheduler is not on this workload's path
        for (std::size_t k = 0; k < t.schedNames.size(); ++k) {
            if (t.schedNames[k] == s)
                v = t.sched[k].meanSelfNs();
        }
        m.push_back({"sched.pass_ns." + s, v, "ns/pass"});
    }
    for (const char *sched : {"fcfs", "nimblock"}) {
        for (std::size_t depth : kProbeDepths) {
            SchedStats p =
                depthProbe(sched, depth, kProbePasses, kProbeBudgetSec);
            double live = p.meanLive();
            double want = static_cast<double>(depth);
            if (p.passes == 0 || live < 0.9 * want || live > 1.1 * want) {
                std::fprintf(stderr,
                             "perfbench: depth probe %s/%zu held %.1f live "
                             "over %llu passes\n",
                             sched, depth, live,
                             static_cast<unsigned long long>(p.passes));
                out.checksPassed = false;
            }
            m.push_back({std::string("sched.pass_ns.") + sched + ".d" +
                             std::to_string(depth),
                         p.meanSelfNs(), "ns/pass"});
        }
    }
    m.push_back({"sched.pass_p99_ns",
                 static_cast<double>(tr.passSelfHist().quantile(0.99)), "ns"});
    m.push_back({"sched.hook_ns", tr[Span::SchedHook].meanSelfNs(), "ns/call"});
    m.push_back({"sched.passes", static_cast<double>(all.passes), "count"});
    m.push_back({"sched.live_per_pass", all.meanLive(), "apps"});
    m.push_back({"sched.place_per_pass",
                 ratio(static_cast<double>(all.placed),
                       static_cast<double>(all.passes)),
                 "ratio"});
    m.push_back({"sched.pass_share",
                 ratio(static_cast<double>(all.selfNs),
                       static_cast<double>(step.totalNs)),
                 "ratio"});
    m.push_back({"hyp.self_ns", step.meanSelfNs(), "ns/event"});
    m.push_back({"hyp.submit_ns", tr[Span::HypSubmit].meanSelfNs(),
                 "ns/call"});
    m.push_back({"hyp.cmd_ns", tr[Span::HypCmd].meanSelfNs(), "ns/call"});
    m.push_back({"hyp.passes_elided", static_cast<double>(t.elided),
                 "count"});
    m.push_back({"sim.events", static_cast<double>(t.events), "count"});
    m.push_back({"sim.pending", pending, "events"});
    std::size_t depth = static_cast<std::size_t>(std::llround(pending));
    m.push_back({"sim.hold_ns.heap", holdNsPerOp(EventQueueImpl::Heap, depth),
                 "ns/op"});
    m.push_back({"sim.hold_ns.wheel",
                 holdNsPerOp(EventQueueImpl::Wheel, depth), "ns/op"});
    // The faas spans stay empty (0) on paper_grid: closed sequences have
    // no pump, admission or streaming recorder.
    m.push_back({"faas.pump_ns", tr[Span::FaasPump].meanSelfNs(), "ns/call"});
    m.push_back({"faas.admit_ns", tr[Span::FaasAdmit].meanSelfNs(),
                 "ns/call"});
    m.push_back({"faas.next_ns", tr[Span::FaasNext].meanSelfNs(), "ns/call"});
    m.push_back({"faas.record_ns", tr[Span::FaasRecord].meanSelfNs(),
                 "ns/call"});
    m.push_back({"faas.shed_frac", t.shedFrac, "ratio"});
    m.push_back({"core.ctx_s", t.ctxSec, "s"});
    m.push_back({"trace.overhead", ratio(t.tracedSec, t.untracedSec) - 1.0,
                 "ratio"});
    return out;
}

void
printDigests(const Options &o)
{
    Digests got;
    if (o.workload == Workload::PaperGrid) {
        got = runGrid(makeGridInputs(o.seed, inputCount(o.workload)));
    } else {
        for (const SoakShape &shape :
             soakShapes(o.workload, o.seed, inputCount(o.workload))) {
            SoakEngine engine(shape.cfg, shape.tenants, shape.rng);
            got.push_back({shape.label, soakDigest(engine.run()), 1});
        }
    }
    for (const Digest &d : got) {
        std::printf("        {\"%s\", 0x%016llxull, %zu},\n", d.cell.c_str(),
                    static_cast<unsigned long long>(d.value), d.runs);
    }
}

} // namespace

int
perfbenchMain(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    setQuiet(true);
    try {
        if (o.printDigests) {
            printDigests(o);
            return 0;
        }
        std::printf("# perfbench %s seed=%llu trace=%d\n",
                    workloadName(o.workload),
                    static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
        Outcome out;
        if (o.trace) {
            out = measureTraced(o);
        } else {
            out = o.workload == Workload::PaperGrid ? measureGrid(o)
                                                    : measureSoak(o);
            out.metrics.push_back({"peak_rss_mb", peakRssMiB(), "MiB"});
            out.metrics.push_back(
                {"run_ok_frac",
                 ratio(static_cast<double>(out.ok),
                       static_cast<double>(out.attempted)),
                 "ratio"});
        }
        printResult(out);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}

} // namespace perfbench
