#include "alloc/saturation.hh"

#include "sim/logging.hh"

namespace nimblock {

SaturationAnalysis
analyzeSaturation(const TaskGraph &graph, std::size_t max_slots,
                  MakespanParams params, double improve_threshold)
{
    if (max_slots == 0)
        fatal("saturation analysis needs at least one slot");

    // The saturation point is the last slot count whose *next* slot still
    // buys a meaningful (>= threshold) improvement; equivalently the
    // smallest k where improvement k -> k+1 falls below the threshold.
    // Points past k + 1 cannot move it, so the sweep ends there.
    MakespanEstimator estimator;
    SaturationAnalysis out;
    out.makespans.reserve(max_slots);
    params.slots = 1;
    out.makespans.push_back(estimator.estimate(graph, params));
    out.saturationPoint = max_slots;
    for (std::size_t k = 1; k < max_slots; ++k) {
        params.slots = k + 1;
        out.makespans.push_back(estimator.estimate(graph, params));
        double before = static_cast<double>(out.makespans[k - 1]);
        double after = static_cast<double>(out.makespans[k]);
        double improvement = before <= 0 ? 0.0 : (before - after) / before;
        if (improvement < improve_threshold) {
            out.saturationPoint = k;
            break;
        }
    }
    return out;
}

GoalNumberCache::GoalNumberCache(std::size_t max_slots, MakespanParams params,
                                 double improve_threshold)
    : _maxSlots(max_slots), _params(params), _threshold(improve_threshold)
{
    if (max_slots == 0)
        fatal("goal-number cache needs at least one slot");
}

const SaturationAnalysis &
GoalNumberCache::analysis(const AppSpec &app, int batch)
{
    // Probe with a view so the common hit path stays allocation-free;
    // only a miss pays for the owning key.
    auto key = std::make_pair(std::string_view(app.name()), batch);
    auto it = _cache.find(key);
    if (it == _cache.end()) {
        MakespanParams p = _params;
        p.batch = batch;
        p.pipelined = p.pipelined && app.pipelineAcrossBatch();
        it = _cache
                 .emplace(std::make_pair(app.name(), batch),
                          analyzeSaturation(app.graph(), _maxSlots, p,
                                            _threshold))
                 .first;
    }
    return it->second;
}

void
GoalNumberCache::insert(const AppSpec &app, int batch,
                        SaturationAnalysis analysis)
{
    _cache.try_emplace(std::make_pair(app.name(), batch), std::move(analysis));
}

const SaturationAnalysis *
GoalNumberCache::peek(const AppSpec &app, int batch) const
{
    auto key = std::make_pair(std::string_view(app.name()), batch);
    auto it = _cache.find(key);
    return it == _cache.end() ? nullptr : &it->second;
}

bool
GoalNumberCache::matches(std::size_t max_slots, const MakespanParams &params,
                         double threshold) const
{
    return _maxSlots == max_slots && _threshold == threshold &&
           _params.pipelined == params.pipelined &&
           _params.reconfigLatency == params.reconfigLatency &&
           _params.psBandwidthBytesPerSec == params.psBandwidthBytesPerSec;
}

std::size_t
GoalNumberCache::goalNumber(const AppSpec &app, int batch)
{
    return analysis(app, batch).saturationPoint;
}

} // namespace nimblock
