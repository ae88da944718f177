/**
 * @file
 * Figure 7: deadline failure rate of high-priority applications as the
 * deadline scaling factor D_s sweeps 1..20 (step 0.25), for the three
 * congestion scenarios.
 *
 * Reported per scenario: violation rate at the tightest deadline
 * (D_s = 1), rates at selected D_s values, and each algorithm's 10% error
 * point (the paper marks these with dots).
 */

#include <cmath>
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
    printHeader("Figure 7: deadline failure rate vs D_s (high priority)",
                opts);

    std::vector<std::string> algos = evaluationSchedulers();
    const std::vector<double> sample_ds = {1.0, 1.75, 2.5, 3.5, 5.0,
                                           7.5, 10.0, 15.0, 20.0};

    CsvWriter csv;
    csv.setHeader({"scenario", "scheduler", "ds", "violation_rate"});

    std::uint64_t total_runs = 0;
    for (Scenario scenario : congestionScenarios()) {
        auto seqs = env.sequences(scenario);
        auto grid = env.grid();
        auto results = grid.runAll(algos, seqs);
        total_runs += algos.size() * seqs.size();
        auto unit = grid.deadlineUnit();

        Table table(formatMessage("%s test: violation rate (%%) by D_s",
                                  toString(scenario)));
        std::vector<std::string> header = {"Scheduler"};
        for (double ds : sample_ds)
            header.push_back(formatMessage("D=%.4g", ds));
        header.push_back("10% point");
        table.setHeader(header);

        for (const auto &algo : algos) {
            DeadlineCurve curve =
                deadlineSweep(results.at(algo).allRecords(), unit);
            std::vector<std::string> row = {displayName(algo)};
            for (double ds : sample_ds)
                row.push_back(Table::cell(curve.rateAt(ds) * 100.0, 1));
            double ep = curve.errorPoint(0.10);
            row.push_back(std::isnan(ep)
                              ? std::string("D_s>20")
                              : formatMessage("D_s=%.4g", ep));
            table.addRow(row);

            for (std::size_t i = 0; i < curve.ds.size(); ++i) {
                csv.addRow({toString(scenario), algo,
                            Table::cell(curve.ds[i], 2),
                            Table::cell(curve.violationRate[i], 4)});
            }
        }
        table.print();
        std::printf("\n");
    }

    std::printf("paper shape: Nimblock lowest violation rate at tight D_s "
                "in every scenario and earliest 10%% error point in stress "
                "and real-time.\n");
    maybeWriteCsv(opts, csv);
    maybeWriteTraces(opts, env, algos);
    maybeWritePolicyTrace(opts, env);
    printFooter(total_runs);
    return 0;
}
