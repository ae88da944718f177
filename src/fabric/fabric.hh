/**
 * @file
 * The virtualized FPGA fabric: slots + CAP + bitstream storage + PS link.
 *
 * This object aggregates the hardware-side substrate the hypervisor
 * manages. Timing defaults calibrate to the paper's ZCU106 measurements
 * (~80 ms per partial reconfiguration, ten uniform slots).
 */

#ifndef NIMBLOCK_FABRIC_FABRIC_HH
#define NIMBLOCK_FABRIC_FABRIC_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/bitstream_store.hh"
#include "fabric/cap.hh"
#include "fabric/data_port.hh"
#include "fabric/resources.hh"
#include "fabric/slot.hh"
#include "sim/event_queue.hh"

namespace nimblock {

/**
 * Transport used for inter-slot data movement.
 *
 * The prototype routes everything through the PS (§2.1); the paper's
 * future-work section proposes a Network-on-Chip for optimized
 * slot-to-slot transfer. With NoC, interior edges (task-to-task within
 * an application) bypass the PS with higher bandwidth and no
 * serialization; external input/output still crosses the PS.
 */
enum class InterSlotTransport
{
    PS,
    NoC,
};

/** Render an InterSlotTransport. */
const char *toString(InterSlotTransport t);

/**
 * One slot class of a heterogeneous board: a shape of reconfigurable
 * tile with its own resource vector, reconfiguration scaling and power
 * coefficients. A board with no declared classes behaves as one
 * implicit uniform class with these defaults.
 */
struct SlotClassConfig
{
    /** Class name referenced by board layouts and kernel rules. */
    std::string name = "default";

    /** Per-slot resource capacity of this class. */
    ResourceVector resources = zcu106::slotCapacity();

    /**
     * Multiplier on the CAP reconfiguration latency for slots of this
     * class (bigger regions stream more frames). 1.0 keeps the uniform
     * timing byte-identical.
     */
    double reconfigScale = 1.0;

    /** Static (leakage + clock tree) power while the slot is held. */
    double staticPowerWatts = 1.0;

    /** Dynamic power while a batch item executes in this class. */
    double dynamicPowerWatts = 4.0;

    /** Energy cost of one partial reconfiguration of this class. */
    double reconfigEnergyJoules = 0.5;
};

/**
 * Placement rule for one (kernel, slot class) pair. Kernels are
 * identified by application/bitstream name; absent pairs default to
 * compatible with speedup 1.0.
 */
struct KernelClassRule
{
    /** Application (bitstream) name the rule applies to. */
    std::string app;

    /** Slot-class name the rule applies to. */
    std::string slotClass;

    /** False forbids placing the kernel in this class. */
    bool compatible = true;

    /**
     * Latency divisor when the kernel runs in this class (>1 = faster
     * than the nominal per-task latency, <1 = slower).
     */
    double speedup = 1.0;
};

/** Whole-fabric configuration. */
struct FabricConfig
{
    /** Number of reconfigurable slots. */
    std::size_t numSlots = zcu106::kNumSlots;

    /**
     * Default partial-bitstream size for tasks that do not specify one.
     * 8 MB through a 100 MB/s CAP gives the paper's ~80 ms.
     */
    std::uint64_t defaultBitstreamBytes = 8ull << 20;

    /** PS-mediated data bandwidth for inter-slot/input/output transfers. */
    double psBandwidthBytesPerSec = 1e9;

    /**
     * Serialize data transfers through the shared PS port so concurrent
     * tenants contend for DDR bandwidth. Off by default: the paper's
     * Table 3 calibration assumes uncontended transfers.
     */
    bool modelPsContention = false;

    /** Inter-slot transport (PS on the prototype; NoC is future work). */
    InterSlotTransport transport = InterSlotTransport::PS;

    /** NoC link bandwidth (used when transport == NoC). */
    double nocBandwidthBytesPerSec = 8e9;

    /** NoC per-transfer latency (route setup + hops). */
    SimTime nocTransferOverhead = simtime::us(2);

    /**
     * Relocatable partial bitstreams: one bitstream serves every slot
     * (instead of one per (task, slot) pair), shrinking SD storage and
     * improving cache reuse. The paper cites bitstream relocation
     * [5, 10, 23] as out of scope; modeled here as an extension.
     */
    bool relocatableBitstreams = false;

    /**
     * Slot classes of a heterogeneous board. Empty means one implicit
     * uniform class (SlotClassConfig defaults), which is byte-identical
     * to the pre-heterogeneity fabric.
     */
    std::vector<SlotClassConfig> slotClasses;

    /**
     * Per-slot class names (index = slot id). Empty assigns every slot
     * to class 0; otherwise the size must equal numSlots and every name
     * must match a declared class.
     */
    std::vector<std::string> boardLayout;

    /**
     * Kernel placement-compatibility and speedup table. Pairs not
     * listed default to compatible with speedup 1.0.
     */
    std::vector<KernelClassRule> kernelRules;

    CapConfig cap;
    BitstreamStoreConfig store;
    DataPortConfig dataPort;
};

/** The simulated reconfigurable fabric. */
class Fabric
{
  public:
    Fabric(EventQueue &eq, FabricConfig cfg);

    const FabricConfig &config() const { return _cfg; }

    std::size_t numSlots() const { return _slots.size(); }
    Slot &slot(SlotId id);
    const Slot &slot(SlotId id) const;

    /** All slot objects in id order. */
    std::vector<Slot> &slots() { return _slots; }
    const std::vector<Slot> &slots() const { return _slots; }

    Cap &cap() { return _cap; }
    const Cap &cap() const { return _cap; }

    BitstreamStore &store() { return _store; }
    const BitstreamStore &store() const { return _store; }

    DataPort &dataPort() { return _dataPort; }
    const DataPort &dataPort() const { return _dataPort; }

    /** Ids of currently free slots. */
    std::vector<SlotId> freeSlots() const;

    /**
     * Number of currently free slots (Slot::isFree()). This count and
     * configuringCount() are maintained by the slots themselves on every
     * transition, so each read is O(1).
     */
    std::size_t
    freeSlotCount() const
    {
        return static_cast<std::size_t>(_counters.free);
    }

    /**
     * Number of slots in SlotState::Configuring — the configure-in-flight
     * probe for schedulers that serialize reconfigurations.
     */
    std::int32_t configuringCount() const { return _counters.configuring; }

    /** Number of slots currently quarantined by the resilience layer. */
    std::size_t quarantinedSlotCount() const;

    /**
     * Slots schedulers may currently use: all slots minus quarantined
     * ones. Capacity-sensitive policies (Nimblock goal numbers, PREMA
     * token accounting, static reservations) size against this.
     */
    std::size_t
    schedulableSlotCount() const
    {
        return numSlots() - quarantinedSlotCount();
    }

    /**
     * Effective bitstream size for a task-declared size (0 means "use the
     * fabric default").
     */
    std::uint64_t
    effectiveBitstreamBytes(std::uint64_t declared) const
    {
        return declared == 0 ? _cfg.defaultBitstreamBytes : declared;
    }

    /** PS transfer duration for @p bytes (0 bytes -> 0 time). */
    SimTime psTransferLatency(std::uint64_t bytes) const;

    /**
     * Duration of an *interior* (task-to-task) transfer of @p bytes under
     * the configured transport: the PS path, or the NoC when enabled.
     */
    SimTime interiorTransferLatency(std::uint64_t bytes) const;

    /**
     * Intern @p app_name for use in bitstream keys: the same name always
     * maps to the same id within this fabric. The hypervisor interns
     * every admitted application's name up front, so key construction on
     * the configure path is pure integer work.
     */
    BitstreamNameId internBitstreamName(const std::string &app_name);

    /** The name behind an interned id (empty for unknown ids). */
    const std::string &bitstreamName(BitstreamNameId id) const;

    /**
     * Canonical bitstream key for (app, task, slot) under the configured
     * relocation mode: with relocatable bitstreams the slot component is
     * dropped so one image serves every slot. The string overload
     * interns the name (and is therefore non-const).
     */
    BitstreamKey bitstreamKeyFor(const std::string &app_name, TaskId task,
                                 SlotId slot);
    BitstreamKey bitstreamKeyFor(BitstreamNameId name, TaskId task,
                                 SlotId slot) const;

    /**
     * End-to-end cold-path configuration latency for @p bytes: SD load +
     * CAP reconfiguration, assuming no queueing. Used by analysis code.
     */
    SimTime coldConfigureLatency(std::uint64_t bytes) const;

    /**
     * Warm-path (cached bitstream) configuration latency for @p bytes.
     */
    SimTime
    warmConfigureLatency(std::uint64_t bytes) const
    {
        return _cap.reconfigLatency(bytes);
    }

    /** @name Slot classes (heterogeneous boards) */
    /// @{

    /** Number of resolved slot classes (>= 1; 1 for uniform boards). */
    std::size_t numSlotClasses() const { return _classes.size(); }

    /** Resolved class definition (validated at construction). */
    const SlotClassConfig &slotClass(std::uint32_t class_id) const;

    /** Class of @p slot (0 on uniform boards). */
    std::uint32_t
    slotClassOf(SlotId slot) const
    {
        return _slots[slot].classId();
    }

    /**
     * True when any heterogeneity is configured (multiple classes,
     * kernel rules, or a non-unity reconfiguration scale). Schedulers
     * gate class-compatibility checks on this so uniform boards keep
     * the exact pre-heterogeneity placement walk.
     */
    bool heterogeneous() const { return _hetero; }

    /** May kernel @p name be placed in @p class_id? */
    bool
    kernelCompatible(BitstreamNameId name, std::uint32_t class_id) const
    {
        return _kernelProfiles[name * _classes.size() + class_id]
            .compatible;
    }

    /** Latency divisor of kernel @p name in @p class_id. */
    double
    kernelSpeedup(BitstreamNameId name, std::uint32_t class_id) const
    {
        return _kernelProfiles[name * _classes.size() + class_id].speedup;
    }

    /**
     * Class-scaled CAP reconfiguration latency, or kTimeNone when the
     * class streams at the nominal rate — callers pass the sentinel
     * through to Cap so the uniform path stays byte-identical.
     */
    SimTime classReconfigLatency(std::uint64_t bytes,
                                 std::uint32_t class_id) const;

    /// @}

  private:
    /** Per-(kernel, class) placement profile, resolved at intern time. */
    struct KernelProfile
    {
        bool compatible = true;
        double speedup = 1.0;
    };
    EventQueue &_eq;
    FabricConfig _cfg;

    /** Interned bitstream names (id = index) and the reverse lookup. */
    std::vector<std::string> _bsNames;
    std::unordered_map<std::string, BitstreamNameId> _bsNameIds;

    /** Resolved slot classes (one implicit uniform class when none). */
    std::vector<SlotClassConfig> _classes;
    bool _hetero = false;

    /**
     * Row-major (kernel, class) profile table, one row appended per
     * interned bitstream name, so the hot-path lookups above are pure
     * indexed loads.
     */
    std::vector<KernelProfile> _kernelProfiles;

    std::vector<Slot> _slots;
    SlotCounters _counters; //!< Kept current by the slots.
    Cap _cap;
    BitstreamStore _store;
    DataPort _dataPort;
};

} // namespace nimblock

#endif // NIMBLOCK_FABRIC_FABRIC_HH
