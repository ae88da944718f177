#include "metrics/deadline.hh"

#include <cmath>
#include <limits>

#include "hypervisor/app_instance.hh"
#include "sim/logging.hh"

namespace nimblock {

double
DeadlineCurve::errorPoint(double target) const
{
    for (std::size_t i = 0; i < ds.size(); ++i) {
        if (violationRate[i] <= target)
            return ds[i];
    }
    // No swept point meets the target: the error point lies beyond the
    // sweep range and cannot be measured. Report NaN instead of a
    // fabricated extrapolation so callers must handle the miss.
    return std::numeric_limits<double>::quiet_NaN();
}

double
DeadlineCurve::tightestRate() const
{
    return violationRate.empty() ? 0.0 : violationRate.front();
}

double
DeadlineCurve::rateAt(double ds_value) const
{
    if (ds.empty())
        return 0.0;
    std::size_t best = 0;
    double best_dist = std::abs(ds[0] - ds_value);
    for (std::size_t i = 1; i < ds.size(); ++i) {
        double dist = std::abs(ds[i] - ds_value);
        if (dist < best_dist) {
            best = i;
            best_dist = dist;
        }
    }
    return violationRate[best];
}

DeadlineCurve
deadlineSweep(const std::vector<AppRecord> &records,
              const std::function<SimTime(const AppRecord &)> &
                  single_slot_latency,
              const DeadlineSweepConfig &cfg)
{
    if (cfg.dsStep <= 0 || cfg.dsMax < cfg.dsMin)
        fatal("invalid deadline sweep range");
    if (!single_slot_latency)
        fatal("deadline sweep needs a single-slot latency function");

    // The unit function is pure and may be costly (the grid benches run a
    // makespan estimate per call), so each considered record's unit is
    // computed once, before the D_s loop.
    struct Considered
    {
        SimTime response;
        SimTime unit;
    };
    std::vector<Considered> considered;
    for (const AppRecord &r : records) {
        if (!cfg.onlyHighPriority ||
            r.priority == static_cast<int>(Priority::High)) {
            considered.push_back({r.responseTime(), single_slot_latency(r)});
        }
    }

    DeadlineCurve curve;
    curve.consideredEvents = considered.size();
    int steps = static_cast<int>(
                    std::round((cfg.dsMax - cfg.dsMin) / cfg.dsStep)) +
                1;
    for (int i = 0; i < steps; ++i) {
        double ds = cfg.dsMin + i * cfg.dsStep;
        std::size_t violations = 0;
        for (const Considered &c : considered) {
            auto deadline = static_cast<SimTime>(
                ds * static_cast<double>(c.unit));
            if (c.response > deadline)
                ++violations;
        }
        curve.ds.push_back(ds);
        curve.violationRate.push_back(
            considered.empty()
                ? 0.0
                : static_cast<double>(violations) /
                      static_cast<double>(considered.size()));
    }
    return curve;
}

} // namespace nimblock
