#include "sched/prema.hh"

#include <algorithm>

namespace nimblock {

PremaScheduler::PremaScheduler(TokenPolicyConfig token_cfg)
    : Scheduler("prema"), _tokenCfg(token_cfg)
{
    _candidateIds.reserve(64);
    _placedIds.reserve(64);
    _candidates.reserve(64);
    _byRemaining.reserve(64);
}

SimTime
PremaScheduler::estimatedRemaining(AppInstance &app)
{
    // The candidate features come from the shared observation layer; the
    // 128-bit estimate there also fixes the int64 overflow this
    // computation had for large-batch / long-latency candidates, where
    // the truncated product collapsed the shortest-remaining order.
    ObservationBuilder::fillAppObs(_featureRow, ops(), app);
    return nimblock::estimatedRemaining(_featureRow);
}

void
PremaScheduler::pass(SchedEvent reason)
{
    if (!_tokens) {
        _tokens = std::make_unique<TokenPolicy>(
            _tokenCfg,
            [this](AppInstance &a) {
                return ops().estimatedSingleSlotLatency(a);
            });
    }

    // Tokens accumulate on intervals, arrivals and completions; other
    // passes reuse the candidate pool from the last accumulation. While
    // the live-app set is unchanged (same epoch), the cached pointer
    // pool from the previous pass is still exact — no id re-resolution.
    if (TokenPolicy::accumulatesOn(reason)) {
        _candidates = _tokens->update(ops().liveApps(), ops().now());
        _candidateIds.clear();
        for (AppInstance *app : _candidates)
            _candidateIds.push_back(app->id());
        _poolEpoch = ops().liveAppsEpoch();
    } else if (_poolEpoch != ops().liveAppsEpoch()) {
        _candidates.clear();
        for (AppInstanceId id : _candidateIds) {
            if (AppInstance *app = ops().findApp(id))
                _candidates.push_back(app);
        }
        _poolEpoch = ops().liveAppsEpoch();
    }
    if (_candidates.empty())
        return;

    // Placement below needs a free slot; without one the pass's only
    // effect was the token accounting above, so the estimate + sort
    // would be dead work — the common steady-state case on a saturated
    // board.
    if (ops().fabric().freeSlotCount() == 0)
        return;

    // Clean tick: the last placement that ran saw this version and these
    // candidates, and it issued nothing (an action advances the version
    // when its pass returns), so running it again would issue nothing.
    // Tokens moved, but placement never reads them.
    const std::uint64_t version = ops().stateVersion();
    if (version != 0 && version == _placedVersion &&
        _candidateIds == _placedIds)
        return;
    _placedVersion = version;
    _placedIds = _candidateIds;

    // Shortest estimated remaining execution first. The estimate is
    // computed once per candidate (not inside the comparator), and the
    // candidate's index in _candidates breaks ties, reproducing the
    // stable sort this replaces.
    _byRemaining.clear();
    _byRemaining.reserve(_candidates.size());
    for (std::size_t i = 0; i < _candidates.size(); ++i)
        _byRemaining.emplace_back(estimatedRemaining(*_candidates[i]), i);
    std::sort(_byRemaining.begin(), _byRemaining.end());

    for (auto &[remaining, idx] : _byRemaining) {
        (void)remaining;
        if (ops().fabric().freeSlotCount() == 0)
            return;
        configureBulkReady(*_candidates[idx]);
    }
}

} // namespace nimblock
