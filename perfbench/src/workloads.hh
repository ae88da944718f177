/**
 * @file
 * The benchmark's workloads, built only from the library's public entry
 * points (ExperimentGrid::runAll, SoakEngine), and the result digests
 * that check every run's simulated output.
 *
 * Simulated statistics are deterministic functions of the seed, so they
 * are never reported as metrics; they enter the benchmark only through
 * these digests, which must match the recorded reference at the
 * reference seed and must agree between untraced and traced runs at
 * every seed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "core/simulation.hh"
#include "faas/soak.hh"
#include "sim/rng.hh"
#include "workload/event.hh"
#include "workload/scenario.hh"

namespace perfbench {

using namespace nimblock;

enum class Workload
{
    PaperGrid,     //!< §5.2 Figure-5 grid, one board, closed sequences.
    SoakSaturated, //!< 4-board open loop at 1.15x capacity.
    SoakBacklog,   //!< 1-board open loop at 2x capacity, 256 live apps.
};

const char *workloadName(Workload w);

/** Parse a workload name; false on unknown names. */
bool parseWorkload(const std::string &name, Workload &out);

/** All workload names, for usage text. */
std::vector<std::string> workloadNames();

/** Seed whose digests are recorded in reference.cc. */
inline constexpr std::uint64_t kReferenceSeed = 2023;

/** One checked cell: a digest over @p runs simulation runs. */
struct Digest
{
    std::string cell;
    std::uint64_t value = 0;
    std::size_t runs = 0;
};

using Digests = std::vector<Digest>;

/**
 * Inputs of a run: Figure-5 grids for paper_grid, arrival streams for the
 * soaks, each from its own seed derived from the run seed. Each input is
 * one timed chunk of the run, and the counts are sized so that one pass
 * over them fills about 70% of a 60-second run on the reference host.
 *
 * Many distinct inputs keep the run seed's share of the spread small: one
 * grid's cost moves by 6% (standard deviation) from seed to seed, and a
 * soak_backlog stream's deterministic 5 ms kernels phase-lock the slots in
 * its first milliseconds, which fixes its passes per app anywhere from 1.3
 * to 1.9. soak_saturated's pass rate does not depend on the seed.
 */
int inputCount(Workload w);

/**
 * Inputs the traced run replays: the first few of inputCount(w), enough
 * for every per-layer mean.
 */
int tracedInputCount(Workload w);

/** @name paper_grid */
/// @{

/** Sequences per scenario and events per sequence (Figure 5). */
inline constexpr int kGridSequences = 10;
inline constexpr int kGridEvents = 20;

/** Seeds of @p grids grids; the first is @p seed itself. */
std::vector<std::uint64_t> gridSeeds(std::uint64_t seed, int grids);

/** The grid's whole input: a registry and one unit per runAll call. */
struct GridInputs
{
    /** One scenario's sequences at one grid seed. */
    struct Unit
    {
        std::string label; //!< "g<k>/<scenario>"
        std::vector<EventSequence> sequences;
    };

    AppRegistry registry;
    std::vector<Unit> units;

    /** Grids: each is one unit per congestion scenario. */
    std::size_t grids() const;
    /** Simulation runs over all units and schedulers. */
    std::size_t runs() const;
    /** Applications retired over all runs. */
    std::size_t apps() const;
};

/** Generate @p grids grids' inputs from @p seed (the timed set-up). */
GridInputs makeGridInputs(std::uint64_t seed, int grids);

/** The seven grid columns, in ExperimentGrid order. */
std::vector<std::string> gridSchedulers();

/**
 * FNV-1a over the per-app record fields and makespan of one run; the
 * serialization the policy golden digests use.
 */
std::uint64_t runDigest(const RunResult &run);

/** Fold one (unit, scheduler) cell's runs, in sequence order. */
std::uint64_t cellDigest(const std::vector<RunResult> &runs);

/**
 * Run unit @p u through ExperimentGrid::runAll with one job and return
 * one digest per scheduler. A FatalError leaves the unit's cells out.
 */
Digests runUnit(const GridInputs &in, std::size_t u);

/** runUnit() over the units of grid @p g, in scenario order. */
Digests runGridAt(const GridInputs &in, std::size_t g);

/** runUnit() over every unit. */
Digests runGrid(const GridInputs &in);

/// @}

/** @name Soaks */
/// @{

/** One soak stream: configuration, tenants and arrival seed. */
struct SoakShape
{
    std::string label;
    SoakConfig cfg;
    std::vector<TenantSpec> tenants;
    Rng rng{0};
};

/** @p streams arrival streams of soak workload @p w at run seed @p seed. */
std::vector<SoakShape> soakShapes(Workload w, std::uint64_t seed,
                                  int streams);

/**
 * Digest of a soak's simulated outcome: accounting counts, events
 * fired, peak live, every HDR bucket and both SLA attainments.
 */
std::uint64_t soakDigest(const SoakStats &s);

/// @}

/**
 * Recorded digests at kReferenceSeed. Regenerate with
 * `perfbench --print-digests --workload W`.
 */
const Digests &referenceDigests(Workload w);

/**
 * Compare @p got against @p want cell by cell. Returns the number of
 * runs whose cell digest matched; cells missing from @p got count as
 * failed.
 */
std::size_t matchedRuns(const Digests &got, const Digests &want);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
