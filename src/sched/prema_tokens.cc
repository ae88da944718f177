#include "sched/prema_tokens.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace nimblock {

TokenPolicy::TokenPolicy(TokenPolicyConfig cfg) : _cfg(cfg)
{
    if (_cfg.alpha < 0)
        fatal("token alpha must be non-negative");
    _degradation.reserve(64);
    _candidates.reserve(64);
}

bool
TokenPolicy::accumulatesOn(SchedEvent reason)
{
    // CapacityChange is included so token accounting (and the candidate
    // pool derived from it) recomputes when quarantine shrinks or probes
    // restore the schedulable slot set.
    return reason == SchedEvent::Tick || reason == SchedEvent::Arrival ||
           reason == SchedEvent::AppDone ||
           reason == SchedEvent::CapacityChange;
}

double
TokenPolicy::floorToPriorityLevel(double token)
{
    double floor = 0.0;
    for (int level : kPriorityLevels) {
        if (token >= level)
            floor = level;
    }
    return floor;
}

const std::vector<AppInstance *> &
TokenPolicy::update(const std::vector<AppInstance *> &apps, SimTime now)
{
    _candidates.clear();
    if (apps.empty()) {
        _threshold = 0.0;
        return _candidates;
    }

    // Degradation of each pending app: waiting time in units of the app's
    // isolated (single-slot) latency estimate. Shorter apps degrade faster
    // for the same wait, matching PREMA's bias toward short applications.
    _degradation.assign(apps.size(), 0.0);
    double max_degradation = 0.0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        AppInstance &app = *apps[i];
        SimTime est = app.latencyEstimate();
        if (est == kTimeNone)
            panic("token policy: %s has no latency estimate",
                  app.toString().c_str());
        if (est <= 0)
            est = 1;
        _degradation[i] = static_cast<double>(now - app.arrival()) /
                          static_cast<double>(est);
        max_degradation = std::max(max_degradation, _degradation[i]);
    }

    for (std::size_t i = 0; i < apps.size(); ++i) {
        AppInstance &app = *apps[i];
        if (app.token() <= 0.0) {
            // Arrival-queue initialization (Algorithm 1 lines 2-4).
            app.setToken(app.priorityValue());
        } else if (max_degradation > 0) {
            // Pending-queue accumulation (Algorithm 1 line 6).
            double norm = _degradation[i] / max_degradation;
            app.setToken(app.token() +
                         _cfg.alpha * app.priorityValue() * norm);
        }
    }

    // Threshold: max token floored to a priority level (line 8).
    double max_token = 0.0;
    for (AppInstance *app : apps)
        max_token = std::max(max_token, app->token());
    _threshold = floorToPriorityLevel(max_token);

    // Candidates: token >= threshold (line 9; `>=` so the pool is never
    // empty — see file comment).
    for (AppInstance *app : apps) {
        if (app->token() >= _threshold) {
            app->setEverCandidate();
            app->setCandidateSince(now);
            _candidates.push_back(app);
        }
    }
    return _candidates;
}

} // namespace nimblock
