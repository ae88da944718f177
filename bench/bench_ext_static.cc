/**
 * @file
 * Extension: dynamic vs. static slot allocation (§6.2 related work).
 *
 * DML pipelines like Nimblock but statically designates slot counts per
 * application and cannot reallocate or preempt. This bench runs the
 * "static" comparator head-to-head with Nimblock (and PREMA for scale)
 * across the three congestion scenarios, quantifying what dynamic
 * allocation buys — the paper's argument that static, prior-knowledge
 * scheduling "is ill-suited to real-time scheduling".
 */

#include <cstdio>

#include "common.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "stats/table.hh"

using namespace nimblock;
using namespace nimblock::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parseOrExit(argc, argv);
    BenchEnv env(opts);
    printHeader("Extension: static (DML-style) vs dynamic allocation",
                opts);

    const std::vector<std::string> algos = {"baseline", "prema", "static",
                                            "nimblock"};

    Table table("Average response-time reduction vs baseline");
    table.setHeader({"Scenario", "PREMA", "Static (DML-style)",
                     "Nimblock"});
    CsvWriter csv;
    csv.setHeader({"scenario", "scheduler", "avg_reduction"});

    std::uint64_t total_runs = 0;
    for (Scenario scenario : congestionScenarios()) {
        auto seqs = env.sequences(scenario);
        auto grid = env.grid();
        auto results = grid.runAll(algos, seqs);
        total_runs += algos.size() * seqs.size();

        std::vector<std::string> row = {toString(scenario)};
        for (const char *algo : {"prema", "static", "nimblock"}) {
            auto cmp = ExperimentGrid::compare(results.at(algo),
                                               results.at("baseline"));
            double reduction = reductionStats(cmp).avgReduction();
            row.push_back(Table::cell(reduction) + "x");
            csv.addRow({toString(scenario), algo,
                        Table::cell(reduction, 4)});
        }
        table.addRow(row);
    }
    table.print();
    std::printf("\n");

    // Where static designation actually loses: priorities and tails.
    // A fully reserved board makes later arrivals wait for retirements
    // even while reserved slots idle, and high-priority applications buy
    // nothing.
    Table tails("High-priority deadlines and tails (stress test)");
    tails.setHeader({"Scheduler", "p95 tail reduction",
                     "violations @ D_s=1", "violations @ D_s=2.5"});
    {
        auto seqs = env.sequences(Scenario::Stress);
        auto grid = env.grid();
        auto results = grid.runAll(algos, seqs);
        total_runs += algos.size() * seqs.size();
        auto unit = grid.deadlineUnit();
        for (const char *algo : {"prema", "static", "nimblock"}) {
            auto cmp = ExperimentGrid::compare(results.at(algo),
                                               results.at("baseline"));
            ReductionStats stats = reductionStats(cmp);
            DeadlineCurve curve =
                deadlineSweep(results.at(algo).allRecords(), unit);
            tails.addRow({displayName(algo),
                          Table::cell(stats.tailReduction(95)) + "x",
                          Table::cell(curve.rateAt(1.0) * 100, 1) + "%",
                          Table::cell(curve.rateAt(2.5) * 100, 1) + "%"});
        }
    }
    tails.print();

    std::printf("\nexpected shape: static designation pipelines well on "
                "average (it serves everyone uniformly), but it ignores "
                "priorities — its high-priority deadline violations stay "
                "far above Nimblock's across the sweep, the paper's §6.2 "
                "case against static, prior-knowledge scheduling for "
                "real-time use.\n");
    maybeWriteCsv(opts, csv);
    maybeWriteTraces(opts, env, algos);
    maybeWritePolicyTrace(opts, env);
    printFooter(total_runs);
    return 0;
}
