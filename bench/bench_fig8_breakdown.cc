/**
 * @file
 * Figure 8: run time, partial-reconfiguration time and wait time as a
 * proportion of total application time under the Nimblock scheduler
 * (Table 3 workload: batch 5, 500 ms delay).
 */

#include <cstdio>

#include "common.hh"
#include "metrics/report.hh"
#include "stats/table.hh"

using namespace nimblock;
using namespace nimblock::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parseOrExit(argc, argv);
    BenchEnv env(opts);
    printHeader("Figure 8: run/PR/wait time proportions under Nimblock",
                opts);

    auto seqs = env.sequences(Scenario::Table3);
    auto grid = env.grid();
    auto results = grid.runAll({"nimblock"}, seqs);
    std::uint64_t total_runs = seqs.size();
    auto breakdown = timeBreakdownByApp(results.at("nimblock").allRecords());

    Table table("Proportion of total application time (%)");
    table.setHeader({"Benchmark", "Run", "PR", "Wait"});
    CsvWriter csv;
    csv.setHeader({"benchmark", "run_frac", "pr_frac", "wait_frac"});

    for (auto &[app, b] : breakdown) {
        table.addRow({app, Table::cell(b.runFraction * 100, 1),
                      Table::cell(b.prFraction * 100, 1),
                      Table::cell(b.waitFraction * 100, 1)});
        csv.addRow({app, Table::cell(b.runFraction, 4),
                    Table::cell(b.prFraction, 4),
                    Table::cell(b.waitFraction, 4)});
    }
    table.print();

    std::printf("\npaper shape: long benchmarks (DR, AN, OF) are "
                "run-dominated; short benchmarks show visible PR and wait "
                "shares.\n");
    maybeWriteCsv(opts, csv);
    maybeWriteTraces(opts, env, {"nimblock"});
    maybeWritePolicyTrace(opts, env);
    printFooter(total_runs);
    return 0;
}
