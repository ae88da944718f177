/**
 * @file
 * Figure 11: AlexNet throughput (batch items per second) under different
 * batch sizes across the Nimblock ablation variants.
 *
 * Paper shape: pipelining variants (Nimblock, NimblockNoPreempt) reach
 * the highest throughput; gains flatten past batch ~5.
 */

#include <cstdio>

#include "common.hh"
#include "metrics/report.hh"
#include "sched/factory.hh"
#include "stats/table.hh"

using namespace nimblock;
using namespace nimblock::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parseOrExit(argc, argv);
    BenchEnv env(opts);
    printHeader("Figure 11: AlexNet throughput vs batch size (ablations)",
                opts);

    std::vector<std::string> algos = ablationSchedulers();
    const std::vector<int> batches = {1, 5, 10, 20, 30};

    Table table("AlexNet throughput (items/s)");
    std::vector<std::string> header = {"Batch"};
    for (const auto &algo : algos)
        header.push_back(displayName(algo));
    table.setHeader(header);

    CsvWriter csv;
    csv.setHeader({"batch", "scheduler", "items_per_sec"});

    std::uint64_t total_runs = 0;
    for (int batch : batches) {
        auto seqs = env.sequences(Scenario::Ablation, batch);
        auto grid = env.grid();
        auto results = grid.runAll(algos, seqs);
        total_runs += algos.size() * seqs.size();

        std::vector<std::string> row = {
            Table::cell(static_cast<std::int64_t>(batch))};
        for (const auto &algo : algos) {
            std::vector<AppRecord> an;
            for (const AppRecord &r : results.at(algo).allRecords()) {
                if (r.appName == "alexnet")
                    an.push_back(r);
            }
            double tput = meanThroughputItemsPerSec(an);
            row.push_back(an.empty() ? "-" : Table::cell(tput, 3));
            if (!an.empty()) {
                csv.addRow({Table::cell(static_cast<std::int64_t>(batch)),
                            algo, Table::cell(tput, 4)});
            }
        }
        table.addRow(row);
    }
    table.print();

    std::printf("\npaper shape: pipelining variants sustain the highest "
                "throughput; curves flatten beyond batch ~5.\n");
    maybeWriteCsv(opts, csv);
    printFooter(total_runs);
    return 0;
}
