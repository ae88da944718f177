/**
 * @file
 * Shared infrastructure for the table/figure reproduction benches.
 *
 * Each bench binary regenerates one table or figure of the paper's
 * evaluation. They share the experiment grid (same stimuli for every
 * algorithm, §5.1) and one command-line surface, the flag table in
 * BenchOptions::flags(). The sweep benches declare their own tables on
 * the same Flag rows. Every bench prints its rows with --help and exits
 * 2 on a usage error.
 */

#ifndef NIMBLOCK_BENCH_COMMON_HH
#define NIMBLOCK_BENCH_COMMON_HH

#include <functional>
#include <limits>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "apps/registry.hh"
#include "core/experiment.hh"
#include "sim/event_queue.hh"
#include "stats/csv.hh"
#include "workload/scenario.hh"

namespace nimblock {
namespace bench {

/** Lower bound of a flag that must be positive (shown as "> 0"). */
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/**
 * One row of a bench's flag table.
 *
 * A value flag parses the next argument into the field @c target points
 * at. The whole argument must parse as the field's type ("12x", "1.9e3"
 * for an int and "-1" for an unsigned field are errors) and pass the
 * row's check: the inclusive lower bound @c min for a number, or
 * membership in @c names for a string. An enum field stores the index
 * of its name in @c names. A switch (no value) runs its action.
 */
struct Flag
{
    using Target =
        std::variant<int *, unsigned *, unsigned long *,
                     unsigned long long *, double *, std::string *,
                     EventQueueImpl *, std::function<void()>>;

    Flag(const char *flag, Target field, const char *text,
         double lower = -std::numeric_limits<double>::infinity())
        : name(flag), target(std::move(field)), help(text), min(lower)
    {}

    Flag(const char *flag, Target field, const char *text,
         std::vector<std::string> valid)
        : name(flag), target(std::move(field)), help(text),
          names(std::move(valid))
    {}

    const char *name;
    Target target;
    const char *help;
    /**
     * Inclusive lower bound of a number. A default below it means
     * "unset": --help omits it and the help text says what unset means.
     */
    double min = -std::numeric_limits<double>::infinity();
    /** Valid values of a string or enum field; empty admits any string. */
    std::vector<std::string> names;
};

/** The --help text of @p flags: one line per row. */
std::string helpText(const char *prog, const std::vector<Flag> &flags);

/**
 * Parse argv against @p flags in order, so a later flag overrides an
 * earlier one or a preset. --help (or -h) prints helpText() with the
 * defaults and exits 0; a usage error throws FatalError.
 */
void parseFlags(int argc, char **argv, const std::vector<Flag> &flags);

/**
 * parseFlags() for a bench main: a usage error prints its message on one
 * stderr line and exits 2. Run-time fatal()s after parsing still throw.
 */
void parseFlagsOrExit(int argc, char **argv, const std::vector<Flag> &flags);

/**
 * EventQueueImpl's names indexed by value: the valid set of the --impl
 * rows and the "impl" field of the bench JSON.
 */
std::vector<std::string> queueImplNames();

/**
 * Recover the per-line entries of the "history" array from a previous
 * results file, so re-running a bench accumulates a dated trajectory
 * instead of overwriting it. A missing file or a pre-history format
 * yields an empty list; relies on the writers emitting one entry per
 * line.
 */
std::vector<std::string> readHistory(const std::string &path);

/** Parsed command-line options. */
struct BenchOptions
{
    int sequences = 10;
    int events = 20;
    std::uint64_t seed = 2023;
    /** Worker threads for experiment grids; 0 = hardware concurrency. */
    unsigned jobs = 0;
    std::string csvPath;
    std::string tracePath;

    /**
     * Cluster dispatch policy name for scale-out benches; empty means
     * each bench's default sweep. Unknown names exit with usage error.
     */
    std::string dispatch;

    /**
     * Restrict the bench to one scheduler column; empty means the
     * bench's default set. Unknown names exit with usage error.
     */
    std::string sched;

    /** Policy trace capture path (see maybeWritePolicyTrace). */
    std::string policyTracePath;

    /**
     * Tail percentiles from the bounded HdrHistogram instead of exact
     * per-sample order statistics (bench_fig6): the soak-path estimator
     * exercised on the paper grids, where the exact answer exists to
     * cross-check it.
     */
    bool hdrTail = false;

    /** The shared flag table, bound to this object's fields. */
    std::vector<Flag> flags();

    /** Parse argv; throws FatalError on a usage error. */
    static BenchOptions parse(int argc, char **argv);

    /**
     * parse() for a bench main: a usage error exits 2. A bench that runs
     * no simulation passes @p simulates false: it has nothing to
     * capture, so --trace and --policy-trace are unknown flags there.
     */
    static BenchOptions parseOrExit(int argc, char **argv,
                                    bool simulates = true);

    /** jobs with 0 resolved to the actual hardware default. */
    unsigned effectiveJobs() const;
};

/** A ready-to-run experiment environment. */
struct BenchEnv
{
    BenchOptions opts;
    AppRegistry registry;
    SystemConfig config;

    explicit BenchEnv(const BenchOptions &o);

    /** Sequences for @p scenario (seeded from opts.seed and the name). */
    std::vector<EventSequence> sequences(Scenario scenario,
                                         int fixed_batch = 0) const;

    /** Grid bound to this environment's config/registry/jobs. */
    ExperimentGrid
    grid() const
    {
        ExperimentGrid g{config, registry};
        g.setJobs(opts.jobs);
        return g;
    }
};

/**
 * Print a standard bench header and start the wall-clock timer read by
 * printFooter().
 */
void printHeader(const std::string &what, const BenchOptions &opts);

/**
 * Print the standard bench footer: wall-clock since printHeader() and,
 * when @p totalRuns is nonzero, the grid throughput in runs/sec.
 *
 * @param totalRuns Number of (scheduler x sequence) simulations executed.
 */
void printFooter(std::uint64_t totalRuns);

/** Write @p csv to opts.csvPath when set. */
void maybeWriteCsv(const BenchOptions &opts, const CsvWriter &csv);

/**
 * When --trace PATH was given, re-run one stress sequence per scheduler in
 * @p algos with the timeline and counter registry enabled and export each
 * run as a Chrome trace-event JSON ("out.json" becomes
 * "out_nimblock.json" etc.) loadable in Perfetto.
 */
void maybeWriteTraces(const BenchOptions &opts, const BenchEnv &env,
                      const std::vector<std::string> &algos);

/**
 * When --policy-trace PATH was given, run one stress sequence under the
 * "learned" scheduler with the decision trace bridge enabled, capturing
 * a binary (observation, action, reward) file at PATH (see
 * policy/trace.hh; scripts/read_policy_trace.py reads it back). A
 * single dedicated run — never the (parallel) grid — so the capture is
 * deterministic and the file is written exactly once.
 */
void maybeWritePolicyTrace(const BenchOptions &opts, const BenchEnv &env);

/**
 * The bench's scheduler columns: @p defaults, or the single --sched
 * selection when given.
 */
std::vector<std::string> schedulerSet(const BenchOptions &opts,
                                      std::vector<std::string> defaults);

/** Short display names used in the paper's figures. */
std::string displayName(const std::string &scheduler);

} // namespace bench
} // namespace nimblock

#endif // NIMBLOCK_BENCH_COMMON_HH
