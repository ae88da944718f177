#include "fabric/fabric.hh"

#include "sim/logging.hh"

namespace nimblock {

const char *
toString(InterSlotTransport t)
{
    switch (t) {
      case InterSlotTransport::PS:
        return "PS";
      case InterSlotTransport::NoC:
        return "NoC";
    }
    return "?";
}

namespace {

/** Index of @p name in @p classes, or classes.size() when absent. */
std::size_t
classIndexOf(const std::vector<SlotClassConfig> &classes,
             const std::string &name)
{
    for (std::size_t i = 0; i < classes.size(); ++i) {
        if (classes[i].name == name)
            return i;
    }
    return classes.size();
}

/** Construction-time sanity checks on the slot-class configuration. */
const FabricConfig &
validated(const FabricConfig &cfg)
{
    if (cfg.numSlots == 0)
        fatal("fabric needs at least one slot");
    if (cfg.psBandwidthBytesPerSec <= 0)
        fatal("PS bandwidth must be positive");
    if (cfg.nocBandwidthBytesPerSec <= 0)
        fatal("NoC bandwidth must be positive");

    for (std::size_t i = 0; i < cfg.slotClasses.size(); ++i) {
        const SlotClassConfig &c = cfg.slotClasses[i];
        if (c.name.empty())
            fatal("slot class %zu needs a name", i);
        for (std::size_t j = 0; j < i; ++j) {
            if (cfg.slotClasses[j].name == c.name)
                fatal("duplicate slot class '%s'", c.name.c_str());
        }
        if (c.reconfigScale <= 0)
            fatal("slot class '%s' needs a positive reconfigScale, got %g",
                  c.name.c_str(), c.reconfigScale);
        if (c.staticPowerWatts < 0 || c.dynamicPowerWatts < 0 ||
            c.reconfigEnergyJoules < 0) {
            fatal("slot class '%s' has a negative power/energy "
                  "coefficient",
                  c.name.c_str());
        }
        if (!c.resources.nonNegative())
            fatal("slot class '%s' has negative resources: %s",
                  c.name.c_str(), c.resources.toString().c_str());
    }

    if (!cfg.boardLayout.empty() &&
        cfg.boardLayout.size() != cfg.numSlots) {
        fatal("board layout names %zu slots but the fabric has %zu",
              cfg.boardLayout.size(), cfg.numSlots);
    }
    for (const std::string &name : cfg.boardLayout) {
        if (classIndexOf(cfg.slotClasses, name) == cfg.slotClasses.size())
            fatal("board layout references unknown slot class '%s'",
                  name.c_str());
    }

    std::size_t num_classes = std::max<std::size_t>(
        cfg.slotClasses.size(), 1);
    for (const KernelClassRule &r : cfg.kernelRules) {
        if (r.app.empty())
            fatal("kernel rule needs an application name");
        if (classIndexOf(cfg.slotClasses, r.slotClass) ==
            cfg.slotClasses.size()) {
            fatal("kernel rule for '%s' references unknown slot class "
                  "'%s'",
                  r.app.c_str(), r.slotClass.c_str());
        }
        if (r.speedup <= 0)
            fatal("kernel rule for '%s' in class '%s' needs a positive "
                  "speedup, got %g",
                  r.app.c_str(), r.slotClass.c_str(), r.speedup);
        if (!r.compatible) {
            // A kernel every class rejects can never be placed.
            std::size_t forbidden = 0;
            for (const KernelClassRule &o : cfg.kernelRules)
                forbidden += o.app == r.app && !o.compatible;
            if (forbidden >= num_classes)
                fatal("kernel '%s' is compatible with zero slot classes",
                      r.app.c_str());
        }
    }
    return cfg;
}

} // namespace

Fabric::Fabric(EventQueue &eq, FabricConfig cfg)
    : _eq(eq), _cfg(validated(cfg)), _cap(eq, cfg.cap),
      _store(eq, cfg.store), _dataPort(eq, [&cfg] {
          DataPortConfig dp = cfg.dataPort;
          dp.bandwidthBytesPerSec = cfg.psBandwidthBytesPerSec;
          return dp;
      }())
{
    // Resolve the class table: an undeclared configuration collapses to
    // one implicit uniform class so every slot always has a class.
    if (_cfg.slotClasses.empty())
        _classes.emplace_back();
    else
        _classes = _cfg.slotClasses;
    _hetero = _classes.size() > 1 || !_cfg.kernelRules.empty();
    for (const SlotClassConfig &c : _classes)
        _hetero = _hetero || c.reconfigScale != 1.0;

    _slots.reserve(_cfg.numSlots);
    for (SlotId i = 0; i < _cfg.numSlots; ++i) {
        _slots.emplace_back(i);
        _slots.back().bindCounters(&_counters);
        if (!_cfg.boardLayout.empty()) {
            _slots.back().setClassId(static_cast<std::uint32_t>(
                classIndexOf(_classes, _cfg.boardLayout[i])));
        }
    }
}

const SlotClassConfig &
Fabric::slotClass(std::uint32_t class_id) const
{
    if (class_id >= _classes.size())
        panic("slot class %u out of range (%zu classes)", class_id,
              _classes.size());
    return _classes[class_id];
}

SimTime
Fabric::classReconfigLatency(std::uint64_t bytes,
                             std::uint32_t class_id) const
{
    double scale = _classes[class_id].reconfigScale;
    if (scale == 1.0)
        return kTimeNone; // Nominal rate: let Cap compute it unscaled.
    double nominal = static_cast<double>(_cap.reconfigLatency(bytes));
    return static_cast<SimTime>(nominal * scale);
}

Slot &
Fabric::slot(SlotId id)
{
    if (id >= _slots.size())
        panic("slot id %u out of range (%zu slots)", id, _slots.size());
    return _slots[id];
}

const Slot &
Fabric::slot(SlotId id) const
{
    if (id >= _slots.size())
        panic("slot id %u out of range (%zu slots)", id, _slots.size());
    return _slots[id];
}

std::vector<SlotId>
Fabric::freeSlots() const
{
    std::vector<SlotId> out;
    for (const Slot &s : _slots) {
        if (s.isFree())
            out.push_back(s.id());
    }
    return out;
}

std::size_t
Fabric::quarantinedSlotCount() const
{
    std::size_t n = 0;
    for (const Slot &s : _slots)
        n += s.quarantined();
    return n;
}

SimTime
Fabric::psTransferLatency(std::uint64_t bytes) const
{
    if (bytes == 0)
        return 0;
    double seconds =
        static_cast<double>(bytes) / _cfg.psBandwidthBytesPerSec;
    return simtime::secF(seconds);
}

SimTime
Fabric::interiorTransferLatency(std::uint64_t bytes) const
{
    if (bytes == 0)
        return 0;
    if (_cfg.transport == InterSlotTransport::NoC) {
        double seconds =
            static_cast<double>(bytes) / _cfg.nocBandwidthBytesPerSec;
        return _cfg.nocTransferOverhead + simtime::secF(seconds);
    }
    return psTransferLatency(bytes);
}

BitstreamKey
Fabric::bitstreamKeyFor(const std::string &app_name, TaskId task,
                        SlotId slot)
{
    return bitstreamKeyFor(internBitstreamName(app_name), task, slot);
}

BitstreamKey
Fabric::bitstreamKeyFor(BitstreamNameId name, TaskId task,
                        SlotId slot) const
{
    // Relocatable images drop the slot component: one bitstream serves
    // every slot, so any slot's retained image and any cached copy match.
    return BitstreamKey{name, task, _cfg.relocatableBitstreams ? 0 : slot};
}

BitstreamNameId
Fabric::internBitstreamName(const std::string &app_name)
{
    auto it = _bsNameIds.find(app_name);
    if (it != _bsNameIds.end())
        return it->second;
    BitstreamNameId id = static_cast<BitstreamNameId>(_bsNames.size());
    _bsNames.push_back(app_name);
    _bsNameIds.emplace(app_name, id);
    // Resolve this kernel's per-class placement profile once at intern
    // time so the scheduler-side compatibility/speedup lookups are pure
    // indexed loads.
    for (std::size_t c = 0; c < _classes.size(); ++c) {
        KernelProfile p;
        for (const KernelClassRule &r : _cfg.kernelRules) {
            if (r.app == app_name && r.slotClass == _classes[c].name) {
                p.compatible = r.compatible;
                p.speedup = r.speedup;
            }
        }
        _kernelProfiles.push_back(p);
    }
    return id;
}

const std::string &
Fabric::bitstreamName(BitstreamNameId id) const
{
    static const std::string empty;
    return id < _bsNames.size() ? _bsNames[id] : empty;
}

SimTime
Fabric::coldConfigureLatency(std::uint64_t bytes) const
{
    return _store.loadLatency(bytes) + _cap.reconfigLatency(bytes);
}

} // namespace nimblock
