/**
 * @file
 * Saturation-point analysis and goal numbers (§4.2).
 *
 * "The saturation point of an application [is] the point at which
 * allocating additional slots results in no or marginal performance
 * improvements." Nimblock allocates up to the goal number of slots per
 * candidate before handing out surplus slots by age.
 *
 * On the board this analysis runs off the critical path while bitstreams
 * are generated; here a GoalNumberCache memoizes results per
 * (application, batch) so the scheduler's reallocation step stays cheap.
 */

#ifndef NIMBLOCK_ALLOC_SATURATION_HH
#define NIMBLOCK_ALLOC_SATURATION_HH

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/makespan.hh"
#include "apps/app_spec.hh"

namespace nimblock {

/** Result of sweeping slot counts for one (app, batch) pair. */
struct SaturationAnalysis
{
    /**
     * makespans[k-1] = estimated makespan with k slots, for
     * k = 1..min(saturationPoint + 1, maxSlots): the sweep stops one point
     * past the saturation point, since later points cannot move it. For
     * the whole curve call estimateMakespan() per slot count.
     */
    std::vector<SimTime> makespans;

    /**
     * Smallest slot count beyond which the next slot improves makespan by
     * less than the analysis threshold.
     */
    std::size_t saturationPoint = 1;
};

/**
 * Sweep slot allocations upward from 1 and locate the saturation point,
 * stopping at the first slot count whose next slot improves makespan by
 * less than the threshold (or at @p max_slots).
 *
 * @param graph             Application task graph.
 * @param max_slots         Number of slots in the system.
 * @param params            Timing parameters, batch size included (the
 *                          slots field is overwritten).
 * @param improve_threshold Relative improvement below which an extra slot
 *                          is considered marginal.
 */
SaturationAnalysis analyzeSaturation(const TaskGraph &graph,
                                     std::size_t max_slots,
                                     MakespanParams params,
                                     double improve_threshold = 0.03);

/**
 * Memoizing wrapper used by the Nimblock scheduler.
 *
 * Goal numbers depend only on (application name, batch size) for fixed
 * fabric timing, so results are cached across arrivals.
 */
class GoalNumberCache
{
  public:
    /**
     * @param max_slots Number of slots in the system.
     * @param params    Timing parameters shared by all queries.
     * @param improve_threshold Saturation threshold.
     */
    GoalNumberCache(std::size_t max_slots, MakespanParams params,
                    double improve_threshold = 0.03);

    /** Goal number for @p app at @p batch. */
    std::size_t goalNumber(const AppSpec &app, int batch);

    /** Saturation sweep for @p app at @p batch (cached). */
    const SaturationAnalysis &analysis(const AppSpec &app, int batch);

    /**
     * Cache @p analysis as the sweep for (app, batch) unless the pair is
     * cached already. It must be exactly what analysis() would compute
     * here: GridContext passes its non-pipelined cache's sweep for an app
     * that does not pipeline across the batch.
     */
    void insert(const AppSpec &app, int batch, SaturationAnalysis analysis);

    /**
     * Const probe: the cached sweep for (app, batch), or nullptr when the
     * pair has not been analyzed. Never fills, so a pre-warmed cache may
     * be shared read-only across threads (see core/grid_context.hh).
     */
    const SaturationAnalysis *peek(const AppSpec &app, int batch) const;

    /**
     * True when this cache answers exactly the queries a cache built with
     * (@p max_slots, @p params, @p threshold) would: same slot count,
     * threshold, pipelining mode and fabric timing. params.batch and
     * params.slots are per-query inputs and do not participate.
     */
    bool matches(std::size_t max_slots, const MakespanParams &params,
                 double threshold) const;

    /** Number of distinct (app, batch) pairs analyzed. */
    std::size_t size() const { return _cache.size(); }

    /** The shared timing parameters (batch/slots are per-query). */
    const MakespanParams &params() const { return _params; }

  private:
    /**
     * Transparent comparator: lookups probe with a (string_view, batch)
     * key so a cache hit — the steady-state case — never materializes a
     * std::string (long app names would heap-allocate per query).
     */
    struct KeyLess
    {
        using is_transparent = void;

        template <typename A, typename B>
        bool
        operator()(const std::pair<A, int> &a,
                   const std::pair<B, int> &b) const
        {
            int c = std::string_view(a.first)
                        .compare(std::string_view(b.first));
            return c != 0 ? c < 0 : a.second < b.second;
        }
    };

    std::size_t _maxSlots;
    MakespanParams _params;
    double _threshold;
    std::map<std::pair<std::string, int>, SaturationAnalysis, KeyLess>
        _cache;
};

} // namespace nimblock

#endif // NIMBLOCK_ALLOC_SATURATION_HH
