/**
 * @file
 * Figure 5: relative response-time reduction under the three congestion
 * conditions (standard / stress / real-time), normalized to the
 * no-sharing baseline.
 *
 * Paper values for reference: Nimblock 4.7x (standard), 5.7x (stress,
 * vs PREMA 4.8x / FCFS 4.3x / RR 3.7x), 3.1x (real-time, vs PREMA 2.4x,
 * RR/FCFS slightly below 1x).
 */

#include <algorithm>
#include <cstdio>

#include "common.hh"
#include "sched/factory.hh"
#include "stats/table.hh"

using namespace nimblock;
using namespace nimblock::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parseOrExit(argc, argv);
    BenchEnv env(opts);
    printHeader("Figure 5: average relative response-time reduction", opts);

    std::vector<std::string> algos = schedulerSet(opts, extendedSchedulers());
    // Reductions are normalized to no-sharing, so a --sched selection
    // still needs the baseline column computed.
    if (std::find(algos.begin(), algos.end(), "baseline") == algos.end())
        algos.insert(algos.begin(), "baseline");

    Table table("Average response-time reduction vs baseline (higher is "
                "better)");
    std::vector<std::string> header = {"Scenario"};
    for (const auto &algo : algos) {
        if (algo != "baseline")
            header.push_back(displayName(algo));
    }
    table.setHeader(header);

    CsvWriter csv;
    csv.setHeader({"scenario", "scheduler", "avg_reduction"});

    std::uint64_t total_runs = 0;
    for (Scenario scenario : congestionScenarios()) {
        auto seqs = env.sequences(scenario);
        auto grid = env.grid();
        auto results = grid.runAll(algos, seqs);
        total_runs += algos.size() * seqs.size();

        std::vector<std::string> row = {toString(scenario)};
        for (const auto &algo : algos) {
            if (algo == "baseline")
                continue;
            auto cmp = ExperimentGrid::compare(results.at(algo),
                                               results.at("baseline"));
            ReductionStats stats = reductionStats(cmp);
            row.push_back(Table::cell(stats.avgReduction()) + "x");
            csv.addRow({toString(scenario), algo,
                        Table::cell(stats.avgReduction(), 4)});
        }
        table.addRow(row);
    }

    table.print();
    std::printf("\npaper shape: Nimblock highest in every scenario; "
                "RR/FCFS near or below 1x in real-time.\n");
    maybeWriteCsv(opts, csv);
    maybeWriteTraces(opts, env, algos);
    printFooter(total_runs);
    return 0;
}
