#include "common.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <type_traits>

#include "cluster/cluster.hh"
#include "core/parallel.hh"
#include "core/simulation.hh"
#include "metrics/trace_export.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "workload/generator.hh"

namespace nimblock {
namespace bench {

namespace {

/** Wall-clock anchor set by printHeader() and read by printFooter(). */
std::chrono::steady_clock::time_point gBenchStart;

std::string
boundText(double min)
{
    return min == kPositive ? "> 0" : formatMessage(">= %g", min);
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : "|") + n;
    return out;
}

/** The --help line of a value row whose field holds @p value. */
template <class T>
std::string
valueLine(const Flag &row, const T &value)
{
    const char *meta = !row.names.empty()               ? " NAME"
                       : std::is_same_v<T, std::string> ? " PATH"
                       : std::is_floating_point_v<T>    ? " X"
                                                        : " N";
    std::string notes = !row.names.empty()     ? joinNames(row.names)
                        : std::isfinite(row.min) ? boundText(row.min)
                                                 : "";
    std::string def;
    if constexpr (std::is_same_v<T, std::string>)
        def = value;
    else if constexpr (std::is_enum_v<T>)
        def = row.names[static_cast<std::size_t>(value)];
    else if constexpr (std::is_integral_v<T>)
        def = value >= row.min ? std::to_string(value) : "";
    else
        def = value >= row.min ? formatMessage("%g", value) : "";
    if (!def.empty())
        notes += (notes.empty() ? "default " : ", default ") + def;
    if (!notes.empty())
        notes = " [" + notes + "]";
    return formatMessage("  %-20s %s%s\n",
                         (row.name + std::string(meta)).c_str(), row.help,
                         notes.c_str());
}

/** Parse @p text strictly into @p field under @p row's check. */
template <class T>
void
store(const Flag &row, T &field, const std::string &text)
{
    auto valid = std::find(row.names.begin(), row.names.end(), text);
    if (!row.names.empty() && valid == row.names.end())
        fatal("%s must be one of %s, got '%s'", row.name,
              joinNames(row.names).c_str(), text.c_str());
    if constexpr (std::is_same_v<T, std::string>) {
        field = text;
    } else if constexpr (std::is_enum_v<T>) {
        field = static_cast<T>(valid - row.names.begin());
    } else {
        const char *end = text.data() + text.size();
        T value{};
        auto [stop, err] = std::from_chars(text.data(), end, value);
        if (err != std::errc() || stop != end ||
            !std::isfinite(static_cast<double>(value))) {
            fatal("%s expects %s in range, got '%s'", row.name,
                  std::is_floating_point_v<T> ? "a finite number"
                  : std::is_signed_v<T>       ? "an integer"
                                              : "an unsigned integer",
                  text.c_str());
        }
        if (value < row.min)
            fatal("%s must be %s, got '%s'", row.name,
                  boundText(row.min).c_str(), text.c_str());
        field = value;
    }
}

} // namespace

std::string
helpText(const char *prog, const std::vector<Flag> &flags)
{
    std::string out = formatMessage("usage: %s [flag...]\n", prog);
    for (const Flag &row : flags) {
        out += std::visit(
            [&](const auto &target) {
                if constexpr (std::is_pointer_v<
                                  std::decay_t<decltype(target)>>)
                    return valueLine(row, *target);
                else
                    return formatMessage("  %-20s %s\n", row.name, row.help);
            },
            row.target);
    }
    return out + formatMessage("  %-20s %s\n", "-h, --help",
                               "print this help and exit");
}

void
parseFlags(int argc, char **argv, const std::vector<Flag> &flags)
{
    const std::string help = helpText(argv[0], flags);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(help.c_str(), stdout);
            std::exit(0);
        }
        auto row = std::find_if(flags.begin(), flags.end(),
                                [&](const Flag &f) { return arg == f.name; });
        if (row == flags.end())
            fatal("unknown flag '%s'", arg.c_str());
        std::visit(
            [&](const auto &target) {
                if constexpr (std::is_pointer_v<
                                  std::decay_t<decltype(target)>>) {
                    if (i + 1 >= argc)
                        fatal("flag %s needs a value", arg.c_str());
                    store(*row, *target, argv[++i]);
                } else {
                    target();
                }
            },
            row->target);
    }
}

void
parseFlagsOrExit(int argc, char **argv, const std::vector<Flag> &flags)
{
    try {
        parseFlags(argc, argv, flags);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s: %s (see --help)\n", argv[0], e.what());
        std::exit(2);
    }
}

std::vector<std::string>
queueImplNames()
{
    return {"wheel", "heap", "auto"};
}

std::vector<std::string>
readHistory(const std::string &path)
{
    std::vector<std::string> out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::string line;
    bool inside = false;
    while (std::getline(in, line)) {
        if (line.find("\"history\"") != std::string::npos) {
            inside = true;
            continue;
        }
        if (!inside)
            continue;
        if (line.find(']') != std::string::npos)
            break;
        std::size_t open = line.find('{');
        std::size_t close = line.rfind('}');
        if (open != std::string::npos && close != std::string::npos)
            out.push_back(line.substr(open, close - open + 1));
    }
    return out;
}

std::vector<Flag>
BenchOptions::flags()
{
    return {
        {"--sequences", &sequences, "sequences per scenario (paper: 10)", 1},
        {"--events", &events, "events per sequence (paper: 20)", 1},
        {"--seed", &seed, "workload master seed"},
        {"--jobs", &jobs, "worker threads for the grid (default: all cores)",
         1},
        {"--quick",
         [this] {
             sequences = 3;
             events = 10;
         },
         "3 sequences x 10 events, for smoke runs"},
        {"--csv", &csvPath, "also dump the figure's data as CSV"},
        {"--trace", &tracePath,
         "export a Perfetto trace of one stress sequence per scheduler "
         "(PATH gets the scheduler name appended)"},
        {"--dispatch", &dispatch,
         "pin the cluster dispatch policy in scale-out benches",
         dispatchPolicyNames()},
        {"--sched", &sched, "restrict the bench to one scheduler column",
         schedulerNames()},
        {"--policy-trace", &policyTracePath,
         "capture one stress sequence under the learned scheduler with "
         "the decision trace written to PATH"},
        {"--hdr", [this] { hdrTail = true; },
         "tail percentiles from the bounded HdrHistogram (bench_fig6)"},
    };
}

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    parseFlags(argc, argv, opts.flags());
    return opts;
}

BenchOptions
BenchOptions::parseOrExit(int argc, char **argv)
{
    BenchOptions opts;
    parseFlagsOrExit(argc, argv, opts.flags());
    return opts;
}

unsigned
BenchOptions::effectiveJobs() const
{
    return jobs == 0 ? defaultParallelism() : jobs;
}

BenchEnv::BenchEnv(const BenchOptions &o)
    : opts(o), registry(standardRegistry())
{
    setQuiet(true);
}

std::vector<EventSequence>
BenchEnv::sequences(Scenario scenario, int fixed_batch) const
{
    GeneratorConfig gen =
        scenarioConfig(scenario, registry.names(), fixed_batch);
    gen.numEvents = opts.events;
    Rng rng(opts.seed);
    std::string prefix = toString(scenario);
    if (fixed_batch > 0)
        prefix += formatMessage("_b%d", fixed_batch);
    return generateSequences(prefix, opts.sequences, gen, rng);
}

void
printHeader(const std::string &what, const BenchOptions &opts)
{
    gBenchStart = std::chrono::steady_clock::now();
    std::printf("== %s ==\n", what.c_str());
    std::printf("stimuli: %d sequences x %d events, seed %llu, %u job%s\n\n",
                opts.sequences, opts.events,
                static_cast<unsigned long long>(opts.seed),
                opts.effectiveJobs(),
                opts.effectiveJobs() == 1 ? "" : "s");
}

void
printFooter(std::uint64_t totalRuns)
{
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - gBenchStart;
    double sec = elapsed.count();
    if (totalRuns > 0 && sec > 0) {
        std::printf("\nwall-clock: %.2fs (%llu runs, %.1f runs/sec)\n", sec,
                    static_cast<unsigned long long>(totalRuns),
                    static_cast<double>(totalRuns) / sec);
    } else {
        std::printf("\nwall-clock: %.2fs\n", sec);
    }
}

void
maybeWriteCsv(const BenchOptions &opts, const CsvWriter &csv)
{
    if (opts.csvPath.empty())
        return;
    if (csv.writeFile(opts.csvPath))
        std::printf("\ncsv written to %s\n", opts.csvPath.c_str());
    else
        std::printf("\nfailed to write csv to %s\n", opts.csvPath.c_str());
}

void
maybeWriteTraces(const BenchOptions &opts, const BenchEnv &env,
                 const std::vector<std::string> &algos)
{
    if (opts.tracePath.empty())
        return;

    // "dir/out.json" -> "dir/out_<scheduler>.json".
    std::string stem = opts.tracePath;
    std::string ext;
    std::size_t dot = stem.find_last_of('.');
    std::size_t slash = stem.find_last_of("/\\");
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
        ext = stem.substr(dot);
        stem.resize(dot);
    }

    EventSequence seq = env.sequences(Scenario::Stress).front();
    for (const std::string &algo : algos) {
        SystemConfig cfg = env.config;
        cfg.scheduler = algo;
        cfg.recordTimeline = true;
        cfg.hypervisor.recordCounters = true;
        RunResult result = Simulation(cfg, env.registry).run(seq);

        TraceExportOptions topts;
        topts.numSlots = cfg.fabric.numSlots;
        TraceExporter exporter(topts);
        std::string path = stem + "_" + algo + ext;
        if (exporter.writeFile(path, *result.timeline,
                               result.counters.get())) {
            std::printf("trace written to %s\n", path.c_str());
        } else {
            std::printf("failed to write trace to %s\n", path.c_str());
        }
    }
}

void
maybeWritePolicyTrace(const BenchOptions &opts, const BenchEnv &env)
{
    if (opts.policyTracePath.empty())
        return;
    SystemConfig cfg = env.config;
    cfg.scheduler = "learned";
    cfg.policyTracePath = opts.policyTracePath;
    EventSequence seq = env.sequences(Scenario::Stress).front();
    Simulation(cfg, env.registry).run(seq);
    std::printf("policy trace written to %s\n",
                opts.policyTracePath.c_str());
}

std::vector<std::string>
schedulerSet(const BenchOptions &opts, std::vector<std::string> defaults)
{
    if (!opts.sched.empty())
        return {opts.sched};
    return defaults;
}

std::string
displayName(const std::string &scheduler)
{
    if (scheduler == "baseline")
        return "Baseline";
    if (scheduler == "fcfs")
        return "FCFS";
    if (scheduler == "prema")
        return "PREMA";
    if (scheduler == "rr")
        return "RR";
    if (scheduler == "nimblock")
        return "Nimblock";
    if (scheduler == "learned")
        return "Learned";
    if (scheduler == "nimblock_nopreempt")
        return "NimblockNoPreempt";
    if (scheduler == "nimblock_nopipe")
        return "NimblockNoPipe";
    if (scheduler == "nimblock_nopreempt_nopipe")
        return "NimblockNoPreemptNoPipe";
    return scheduler;
}

} // namespace bench
} // namespace nimblock
