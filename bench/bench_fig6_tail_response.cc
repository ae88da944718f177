/**
 * @file
 * Figure 6: tail (95th/99th-percentile) response time under the three
 * congestion conditions, normalized to the baseline.
 *
 * The percentile is taken over the per-event normalized response-time
 * distribution (response / baseline response); reported as the reduction
 * factor at the tail so higher is better, consistent with Figure 5.
 *
 * With --hdr the tail comes from the bounded-memory HdrHistogram (the
 * open-loop soak path's estimator) instead of the exact per-sample order
 * statistics, and the footer reports the worst relative deviation
 * between the two — a live cross-check of the histogram's advertised
 * sub-1% quantile error on real benchmark distributions.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hh"
#include "metrics/analysis.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "stats/hdr_histogram.hh"
#include "stats/table.hh"

using namespace nimblock;
using namespace nimblock::bench;

namespace {

/** Exact tail reduction next to its HDR-estimated counterpart. */
struct TailEstimate
{
    /** Rank-interpolated percentile (Summary), the table's default. */
    double exact = 0;

    /** Bucket-midpoint percentile from the bounded histogram. */
    double hdr = 0;

    /** HDR deviation from the order statistic at the histogram's own
        rank (ceil(q n)) — the quantity the <1% bucket bound covers; the
        interpolated `exact` additionally differs by rank definition,
        which dominates on small per-cell sample counts. */
    double bucketError = 0;
};

TailEstimate
estimateTail(const ReductionStats &stats, std::vector<EventComparison> cmp,
             double pct)
{
    TailEstimate e;
    e.exact = stats.tailReduction(pct);

    HdrHistogram h;
    for (const EventComparison &c : cmp)
        h.recordDouble(c.normalized());
    double tail = h.quantileDouble(pct / 100.0);
    e.hdr = tail <= 0 ? 0.0 : 1.0 / tail;

    std::sort(cmp.begin(), cmp.end(),
              [](const EventComparison &a, const EventComparison &b) {
                  return a.normalized() < b.normalized();
              });
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(cmp.size())));
    rank = std::min(std::max<std::size_t>(rank, 1), cmp.size());
    double at_rank = cmp[rank - 1].normalized();
    if (at_rank > 0)
        e.bucketError = std::fabs(tail - at_rank) / at_rank;
    return e;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parseOrExit(argc, argv);
    BenchEnv env(opts);
    printHeader(opts.hdrTail
                    ? "Figure 6: tail response-time reduction (p95/p99, "
                      "HDR-estimated)"
                    : "Figure 6: tail response-time reduction (p95/p99)",
                opts);

    std::vector<std::string> algos = schedulerSet(opts, extendedSchedulers());
    // Reductions are normalized to no-sharing, so a --sched selection
    // still needs the baseline column computed.
    if (std::find(algos.begin(), algos.end(), "baseline") == algos.end())
        algos.insert(algos.begin(), "baseline");

    Table table("Tail reduction vs baseline (higher is better)");
    std::vector<std::string> header = {"Case"};
    for (const auto &algo : algos) {
        if (algo != "baseline")
            header.push_back(displayName(algo));
    }
    table.setHeader(header);

    CsvWriter csv;
    csv.setHeader({"scenario", "percentile", "scheduler", "tail_reduction",
                   "estimator"});

    std::uint64_t total_runs = 0;
    double worst_deviation = 0.0;
    for (Scenario scenario : congestionScenarios()) {
        auto seqs = env.sequences(scenario);
        auto grid = env.grid();
        auto results = grid.runAll(algos, seqs);
        total_runs += algos.size() * seqs.size();

        for (double pct : {95.0, 99.0}) {
            std::vector<std::string> row = {
                formatMessage("%s-p%.0f", toString(scenario), pct)};
            for (const auto &algo : algos) {
                if (algo == "baseline")
                    continue;
                auto cmp = ExperimentGrid::compare(results.at(algo),
                                                   results.at("baseline"));
                ReductionStats stats = reductionStats(cmp);
                TailEstimate tail = estimateTail(stats, cmp, pct);
                if (tail.bucketError > worst_deviation)
                    worst_deviation = tail.bucketError;
                double shown = opts.hdrTail ? tail.hdr : tail.exact;
                row.push_back(Table::cell(shown) + "x");
                csv.addRow({toString(scenario), Table::cell(pct, 0), algo,
                            Table::cell(shown, 4),
                            opts.hdrTail ? "hdr" : "exact"});
            }
            table.addRow(row);
        }
    }

    table.print();
    std::printf("\npaper shape: Nimblock best at p95 everywhere; RR/FCFS "
                "collapse at real-time p99.\n");
    std::printf("hdr bucket error: worst %.4f%% vs same-rank order "
                "statistic across all cells (bound: <1%% relative)\n",
                100.0 * worst_deviation);
    maybeWriteCsv(opts, csv);
    maybeWriteTraces(opts, env, algos);
    maybeWritePolicyTrace(opts, env);
    printFooter(total_runs);
    return 0;
}
