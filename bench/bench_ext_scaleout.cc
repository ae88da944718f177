/**
 * @file
 * Extension: multi-FPGA scale-out (§1 virtualization feature 2).
 *
 * Sweeps the number of boards and the dispatch policy under the stress
 * workload and reports slowdown statistics (response / single-slot
 * latency) plus Jain fairness. Not a paper figure; quantifies the
 * scale-out behaviour the introduction motivates.
 */

#include <cstdio>

#include "cluster/cluster.hh"
#include "common.hh"
#include "metrics/analysis.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace nimblock;
using namespace nimblock::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parseOrExit(argc, argv);
    BenchEnv env(opts);
    printHeader("Extension: multi-FPGA scale-out (stress workload, "
                "nimblock per board)", opts);

    auto seqs = env.sequences(Scenario::Stress);

    // Slowdown = response / isolated single-slot latency: the queueing
    // and contention factor scale-out is supposed to remove (1.0 would be
    // a dedicated board per application). Plain means are dominated by
    // digit recognition's fixed multi-thousand-second runtime, which no
    // amount of boards shortens.
    Table table("Scale-out sweep");
    table.setHeader({"Boards", "Dispatch", "Mean slowdown",
                     "Median slowdown", "p95 slowdown", "Fairness"});
    CsvWriter csv;
    csv.setHeader({"boards", "dispatch", "mean_slowdown",
                   "median_slowdown", "p95_slowdown", "jain_fairness"});

    std::vector<DispatchPolicy> policies = {DispatchPolicy::RoundRobin,
                                            DispatchPolicy::LeastLoaded};
    if (!opts.dispatch.empty())
        policies = {parseDispatchPolicy(opts.dispatch.c_str())};

    for (std::size_t boards : {1u, 2u, 4u, 8u}) {
        for (DispatchPolicy policy : policies) {
            if (boards == 1 && policy != policies.front())
                continue; // Policies coincide on one board.
            ClusterConfig cfg;
            cfg.numBoards = boards;
            cfg.board = env.config;
            cfg.board.scheduler = "nimblock";
            cfg.dispatch = policy;

            Summary slowdown;
            ClusterSimulation sim(cfg, env.registry);
            for (const EventSequence &seq : seqs) {
                ClusterRunResult result = sim.run(seq);
                for (const AppRecord &r : result.records) {
                    SimTime unit = cfg.board.singleSlotLatency(
                        *env.registry.get(r.appName), r.batch);
                    slowdown.add(static_cast<double>(r.responseTime()) /
                                 static_cast<double>(unit));
                }
            }
            double fairness = jainFairnessIndex(slowdown.samples());

            table.addRow({Table::cell(std::int64_t(boards)),
                          toString(policy), Table::cell(slowdown.mean()),
                          Table::cell(slowdown.median()),
                          Table::cell(slowdown.percentile(95)),
                          Table::cell(fairness)});
            csv.addRow({Table::cell(std::int64_t(boards)), toString(policy),
                        Table::cell(slowdown.mean(), 3),
                        Table::cell(slowdown.median(), 3),
                        Table::cell(slowdown.percentile(95), 3),
                        Table::cell(fairness, 4)});
        }
    }
    table.print();

    std::printf("\nexpected shape: slowdown falls toward ~1.0 (dedicated-"
                "board behaviour) as boards are added; least-loaded "
                "dispatch beats round-robin on the skewed benchmark mix.\n");
    maybeWriteCsv(opts, csv);
    return 0;
}
