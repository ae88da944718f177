/**
 * @file
 * Figure 9: ablation study — relative response time for the stress test
 * at fixed batch sizes with preemption and/or pipelining removed,
 * normalized to the full Nimblock algorithm (higher = worse).
 *
 * Paper values: NoPreempt 1.07-1.14x worse, NoPipe ~1.2x worse,
 * NoPreemptNoPipe only marginally worse than NoPipe.
 */

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
    printHeader("Figure 9: ablation — response time normalized to full "
                "Nimblock (stress, fixed batch)", opts);

    std::vector<std::string> algos = ablationSchedulers();
    const std::vector<int> batches = {1, 5, 10, 20, 30};

    Table table("Mean response time relative to Nimblock (higher = worse)");
    std::vector<std::string> header = {"Batch"};
    for (const auto &algo : algos)
        header.push_back(displayName(algo));
    table.setHeader(header);

    CsvWriter csv;
    csv.setHeader({"batch", "scheduler", "relative_response"});

    std::uint64_t total_runs = 0;
    for (int batch : batches) {
        auto seqs = env.sequences(Scenario::Ablation, batch);
        auto grid = env.grid();
        auto results = grid.runAll(algos, seqs);
        total_runs += algos.size() * seqs.size();

        std::vector<std::string> row = {Table::cell(
            static_cast<std::int64_t>(batch))};
        for (const auto &algo : algos) {
            // Per-event normalization to the full algorithm ("results are
            // normalized to the Nimblock algorithm"), then averaged, so
            // a single long-running application cannot mask per-event
            // slowdowns of everything scheduled around it.
            auto cmp = ExperimentGrid::compare(results.at(algo),
                                               results.at("nimblock"));
            Summary ratios;
            for (const EventComparison &c : cmp)
                ratios.add(c.normalized());
            double rel = ratios.mean();
            row.push_back(Table::cell(rel) + "x");
            csv.addRow({Table::cell(static_cast<std::int64_t>(batch)), algo,
                        Table::cell(rel, 4)});
        }
        table.addRow(row);
    }
    table.print();

    std::printf("\npaper shape: removing preemption costs 1.07-1.14x; "
                "removing pipelining ~1.2x; removing both is only "
                "marginally worse than removing pipelining alone.\n");
    maybeWriteCsv(opts, csv);
    printFooter(total_runs);
    return 0;
}
