#include "core/grid_context.hh"

#include "core/config.hh"
#include "sim/logging.hh"

namespace nimblock {

namespace {

MakespanParams
goalParams(bool pipelined, SimTime reconfig_latency, double ps_bandwidth)
{
    // batch and slots are per-query inputs (GoalNumberCache overwrites
    // them); only the mode and fabric timing identify the cache.
    MakespanParams p;
    p.pipelined = pipelined;
    p.reconfigLatency = reconfig_latency;
    p.psBandwidthBytesPerSec = ps_bandwidth;
    return p;
}

} // namespace

GridContext::GridContext(const SystemConfig &cfg)
    : _reconfigLatency(cfg.reconfigLatency()),
      _psBandwidth(cfg.fabric.psBandwidthBytesPerSec),
      _slots(cfg.fabric.numSlots),
      _goalsPipe(_slots, goalParams(true, _reconfigLatency, _psBandwidth)),
      _goalsNoPipe(_slots, goalParams(false, _reconfigLatency, _psBandwidth))
{
}

void
GridContext::warm(const AppSpecPtr &spec, int batch)
{
    if (_frozen)
        fatal("warming a frozen GridContext");
    if (!spec)
        fatal("warming a GridContext with a null spec");
    auto key = std::make_pair(static_cast<const AppSpec *>(spec.get()), batch);
    if (_latency.count(key))
        return;
    // One bulk sweep serves up to three estimates. Its one-slot point is
    // the single-slot latency (one slot, no pipelining, the same fabric
    // timing), and an app that cannot pipeline across the batch gets the
    // same sweep in pipelined mode (GoalNumberCache clears the flag).
    const SaturationAnalysis &bulk = _goalsNoPipe.analysis(*spec, batch);
    _latency.emplace(key, bulk.makespans.front());
    if (spec->pipelineAcrossBatch())
        _goalsPipe.goalNumber(*spec, batch);
    else
        _goalsPipe.insert(*spec, batch, bulk);
    _specs.push_back(spec);
}

void
GridContext::warmSequence(const EventSequence &seq,
                          const AppRegistry &registry)
{
    for (const WorkloadEvent &e : seq.events)
        warm(registry.get(e.appName), e.batch);
}

SimTime
GridContext::singleSlotLatency(const AppSpec *spec, int batch) const
{
    auto it = _latency.find(std::make_pair(spec, batch));
    return it == _latency.end() ? kTimeNone : it->second;
}

const GoalNumberCache *
GridContext::goalCache(std::size_t max_slots, const MakespanParams &params,
                       double threshold) const
{
    if (_goalsPipe.matches(max_slots, params, threshold))
        return &_goalsPipe;
    if (_goalsNoPipe.matches(max_slots, params, threshold))
        return &_goalsNoPipe;
    return nullptr;
}

bool
GridContext::matchesFabric(SimTime reconfig_latency,
                           double ps_bandwidth) const
{
    return reconfig_latency == _reconfigLatency &&
           ps_bandwidth == _psBandwidth;
}

} // namespace nimblock
