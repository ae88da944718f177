/**
 * @file
 * Learned scheduling policy: a contextual linear bandit driving the
 * gym-style (observation -> action) interface in-process.
 *
 * Each pass the policy rebuilds the SchedObservation, credits the reward
 * for its previous decision (retirements since, minus a live-set
 * pressure penalty), optionally performs one online gradient step on its
 * linear weights, then repeatedly scores the feasible SchedAction set —
 * NoOp, one Configure per observed app, one Prefetch per data-starved
 * app, at most one Preempt — and applies the epsilon-greedy argmax until
 * it chooses NoOp or runs out of per-pass budget. Everything runs in
 * C++ on member storage: no Python in the hot path, no allocation in
 * the steady state, and a seeded Rng makes runs bit-reproducible.
 *
 * A work-conserving guard follows the policy loop: leftover free slots
 * are filled with bulk-ready tasks in arrival order, so an untrained (or
 * badly trained) policy can deprioritize work but never stall the board
 * — the simulator treats a stalled board as fatal.
 *
 * When LearnedConfig::tracePath is set, every settled decision is
 * appended to a binary (observation, action, reward) trace for offline
 * training (policy/trace.hh); the default is off, and a disabled bridge
 * leaves the decision path allocation-free and byte-identical.
 */

#ifndef NIMBLOCK_POLICY_LEARNED_HH
#define NIMBLOCK_POLICY_LEARNED_HH

#include <array>
#include <string>

#include "policy/observation.hh"
#include "policy/trace.hh"
#include "sched/scheduler.hh"
#include "sim/rng.hh"

namespace nimblock {

/** Feature vector length of the linear policy. */
inline constexpr std::size_t kPolicyFeatures = 15;

/** Tuning knobs for LearnedScheduler. */
struct LearnedConfig
{
    /** Explorer seed (policy decisions are deterministic given this). */
    std::uint64_t seed = 0x11b10c5ull;

    /** Epsilon-greedy exploration rate. */
    double epsilon = 0.05;

    /** Online update learning rate (0 disables updates). */
    double alpha = 0.01;

    /** Live-set pressure penalty per reward (throughput shaping). */
    double rewardBeta = 0.1;

    /** Take online gradient steps on the linear weights. */
    bool onlineUpdate = true;

    /** Allow Preempt actions on a full board. */
    bool enablePreemption = true;

    /**
     * Initial weights — a hand-set prior that mimics
     * shortest-remaining-first placement (see learned.cc) so the policy
     * is sane before any training. Offline-trained weights load here.
     */
    std::array<double, kPolicyFeatures> weights = {
        0.0,   // bias
        1.0,   // action: Configure
        -0.25, // action: Preempt
        0.25,  // action: Prefetch
        0.5,   // free-slot fraction
        0.5,   // normalized waiting time
        -0.25, // remaining-work fraction (negative: SJF-like)
        0.1,   // token (normalized)
        0.2,   // priority / 9
        0.1,   // queue depth (normalized)
        0.3,   // overdue (deadline slack exhausted)
        -0.1,  // normalized single-slot latency estimate
        -0.2,  // slots-used fraction (negative: fairness)
        0.0,   // target slot class (0 on uniform boards)
        0.0,   // energy pressure (0 with accounting off)
    };

    /** When non-empty, log decisions to this binary trace file. */
    std::string tracePath;
};

/** The sixth evaluation scheduler: a learned policy over SchedAction. */
class LearnedScheduler : public Scheduler
{
  public:
    explicit LearnedScheduler(LearnedConfig cfg = {});

    void pass(SchedEvent reason) override;
    void onAppRetired(AppInstance &app) override;

    /** Current weights (online updates mutate them). */
    const std::array<double, kPolicyFeatures> &weights() const
    {
        return _w;
    }

    /** Decisions settled so far (== trace records when tracing). */
    std::uint64_t decisions() const { return _decisions; }

  private:
    /** One scored candidate action. */
    struct Candidate
    {
        SchedAction action;
        std::array<double, kPolicyFeatures> phi;
    };

    /** NoOp + Configure/Prefetch per app row + one Preempt. */
    static constexpr std::size_t kMaxCandidates = 2 * kMaxAppObs + 2;

    /** Credit the previous decision against the fresh snapshot. */
    void settlePrevious(const SchedObservation &obs);

    /** Fill _candidates from @p obs; returns the candidate count. */
    std::size_t enumerateCandidates(const SchedObservation &obs);

    /** Feature vector for (obs, action) with @p app the action target. */
    void featurize(std::array<double, kPolicyFeatures> &phi,
                   const SchedObservation &obs, const SchedAction &action,
                   const AppObs *app) const;

    /** w . phi */
    double score(const std::array<double, kPolicyFeatures> &phi) const;

    /** Apply @p c against the hypervisor; true if state changed. */
    bool apply(const Candidate &c);

    LearnedConfig _cfg;
    std::array<double, kPolicyFeatures> _w;
    Rng _rng;

    ObservationBuilder _builder;
    std::array<Candidate, kMaxCandidates> _candidates;

    /**
     * Previous settled decision (reward target). _prevObs is copied only
     * while the trace is open, its one reader.
     */
    SchedObservation _prevObs;
    SchedAction _prevAction;
    std::array<double, kPolicyFeatures> _prevPhi;
    bool _havePrev = false;

    /** Retirements seen so far / at the previous settle. */
    std::uint64_t _retired = 0;
    std::uint64_t _retiredAtPrev = 0;

    std::uint64_t _decisions = 0;

    /** stateVersion() at the last work-conserving guard. */
    std::uint64_t _guardVersion = 0;

    PolicyTraceWriter _trace;
};

} // namespace nimblock

#endif // NIMBLOCK_POLICY_LEARNED_HH
