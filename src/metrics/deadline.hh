/**
 * @file
 * Deadline-violation analysis (§5.4, Figure 7).
 *
 * "We define an application's deadline as the deadline scaling factor D_s
 * multiplied by the application's single-slot latency [and] sweep D_s
 * values from 1 to 20 at 0.25 intervals. ... we consider high-priority
 * applications to have tight deadlines and focus our analysis there."
 */

#ifndef NIMBLOCK_METRICS_DEADLINE_HH
#define NIMBLOCK_METRICS_DEADLINE_HH

#include <functional>
#include <vector>

#include "metrics/collector.hh"

namespace nimblock {

/** Parameters for the D_s sweep. */
struct DeadlineSweepConfig
{
    double dsMin = 1.0;
    double dsMax = 20.0;
    double dsStep = 0.25;

    /** Restrict to Priority::High applications as in the paper. */
    bool onlyHighPriority = true;
};

/** Violation-rate curve over the D_s sweep. */
struct DeadlineCurve
{
    std::vector<double> ds;
    std::vector<double> violationRate; //!< Fraction in [0, 1].

    /** Number of events the rates are computed over. */
    std::size_t consideredEvents = 0;

    /**
     * Smallest swept D_s whose violation rate is <= @p target (the
     * paper's "10% error point"); returns NaN when no swept point meets
     * the target — the error point lies beyond the sweep range, so any
     * numeric answer would be fabricated.
     */
    double errorPoint(double target = 0.10) const;

    /** Violation rate at the tightest deadline (D_s = dsMin). */
    double tightestRate() const;

    /** Violation rate at a specific swept D_s (nearest sample). */
    double rateAt(double ds_value) const;
};

/**
 * Sweep deadline scaling factors over the given records.
 *
 * @param records            Completed-application records.
 * @param single_slot_latency Returns the single-slot latency of a record's
 *                           (application, batch) pair — the deadline unit.
 *                           Called once per considered record.
 * @param cfg                Sweep parameters.
 */
DeadlineCurve
deadlineSweep(const std::vector<AppRecord> &records,
              const std::function<SimTime(const AppRecord &)> &
                  single_slot_latency,
              const DeadlineSweepConfig &cfg = {});

} // namespace nimblock

#endif // NIMBLOCK_METRICS_DEADLINE_HH
