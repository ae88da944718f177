/**
 * @file
 * Figure 10: AlexNet response time under different batch sizes across the
 * Nimblock ablation variants (stress-test conditions, fixed batch).
 *
 * Paper shape: removing pipelining hurts most; NoPipe and
 * NoPreemptNoPipe overlap; batch 1 is insensitive to the ablations.
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
    printHeader("Figure 10: AlexNet response time vs batch size "
                "(ablations)", opts);

    std::vector<std::string> algos = ablationSchedulers();
    const std::vector<int> batches = {1, 5, 10, 20, 30};

    Table table("AlexNet mean response time (s)");
    std::vector<std::string> header = {"Batch"};
    for (const auto &algo : algos)
        header.push_back(displayName(algo));
    table.setHeader(header);

    CsvWriter csv;
    csv.setHeader({"batch", "scheduler", "alexnet_response_s"});

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
            double mean = meanResponseSec(an);
            row.push_back(an.empty() ? "-" : Table::cell(mean, 1));
            if (!an.empty()) {
                csv.addRow({Table::cell(static_cast<std::int64_t>(batch)),
                            algo, Table::cell(mean, 3)});
            }
        }
        table.addRow(row);
    }
    table.print();

    std::printf("\npaper shape: response grows sub-linearly with batch for "
                "pipelining variants; NoPipe variants overlap and grow "
                "fastest.\n");
    maybeWriteCsv(opts, csv);
    maybeWriteTraces(opts, env, algos);
    maybeWritePolicyTrace(opts, env);
    printFooter(total_runs);
    return 0;
}
