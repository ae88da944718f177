/**
 * @file
 * PREMA token accumulation and threshold candidate selection (§4.1,
 * Algorithm 1). Shared by the PREMA and Nimblock schedulers.
 *
 * Applications accumulate tokens proportional to priority and normalized
 * performance degradation; the candidate threshold is the maximum token
 * count rounded down to the nearest priority level, and applications at or
 * above the threshold are candidates.
 *
 * Deviation from the paper's pseudo-code (documented in DESIGN.md): the
 * candidate comparison is `>=` rather than strict `>` so the pool is
 * never empty when applications are pending.
 */

#ifndef NIMBLOCK_SCHED_PREMA_TOKENS_HH
#define NIMBLOCK_SCHED_PREMA_TOKENS_HH

#include <vector>

#include "hypervisor/app_instance.hh"
#include "sched/scheduler.hh"

namespace nimblock {

/** Token accumulation parameters. */
struct TokenPolicyConfig
{
    /** Degradation weight (alpha in Algorithm 1 line 6). */
    double alpha = 1.0;
};

/**
 * Implements Algorithm 1 over the live application list. The degradation
 * unit is each app's AppInstance::latencyEstimate(), which the owning
 * scheduler memoizes in onAppAdmitted(); update() panics without it.
 */
class TokenPolicy
{
  public:
    explicit TokenPolicy(TokenPolicyConfig cfg);

    /**
     * True for pass reasons on which tokens accumulate: "applications
     * accumulate tokens at set scheduling intervals, when new
     * applications are added, and when an application completes" (§4.1).
     * Other pass reasons reuse the candidate pool computed at the last
     * accumulation.
     */
    static bool accumulatesOn(SchedEvent reason);

    /**
     * Accumulate tokens for every live application and select candidates.
     *
     * Newly arrived apps (no token yet) are initialized to their priority
     * value; pending apps gain alpha * priority * degradation_norm, where
     * degradation is waiting time relative to the app's isolated latency
     * estimate, normalized to the maximum across pending apps.
     *
     * @param apps Live applications in arrival order.
     * @param now  Current time.
     * @return Candidates in arrival order.
     */
    const std::vector<AppInstance *> &
    update(const std::vector<AppInstance *> &apps, SimTime now);

    /**
     * Candidate threshold from the most recent update(): the maximum
     * token count floored to the nearest priority level.
     */
    double threshold() const { return _threshold; }

    /** Round @p token down to the nearest priority level (1, 3 or 9). */
    static double floorToPriorityLevel(double token);

  private:
    TokenPolicyConfig _cfg;
    double _threshold = 0.0;
    /** Scratch reused across updates (valid until the next update()). */
    std::vector<double> _degradation;
    std::vector<AppInstance *> _candidates;
};

} // namespace nimblock

#endif // NIMBLOCK_SCHED_PREMA_TOKENS_HH
