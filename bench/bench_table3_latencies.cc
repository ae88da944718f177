/**
 * @file
 * Table 3: benchmark execution and response times under a fixed-batch-5
 * sequence with 500 ms inter-event delay.
 *
 * The top half reports the baseline's per-benchmark execution time
 * (isolated run) and response time (under queueing); the bottom half
 * reports response times under the four sharing algorithms.
 */

#include <cstdio>

#include "common.hh"
#include "metrics/report.hh"
#include "sched/factory.hh"
#include "stats/table.hh"
#include "workload/generator.hh"

using namespace nimblock;
using namespace nimblock::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parseOrExit(argc, argv);
    BenchEnv env(opts);
    printHeader("Table 3: benchmark latencies and response times "
                "(batch 5, 500 ms delay)", opts);

    // Isolated execution times: one event per benchmark, run alone.
    Table exec_table("Baseline isolated execution time (paper: LN 0.73, "
                     "AN 65.44, IMGC 0.56, OF 22.91, 3DR 1.55, DR 984.23)");
    exec_table.setHeader({"Benchmark", "Execution time (s)"});
    Simulation base_sim([&] {
        SystemConfig cfg = env.config;
        cfg.scheduler = "baseline";
        return cfg;
    }(), env.registry);
    for (const auto &name : env.registry.names()) {
        EventSequence solo;
        solo.name = "solo/" + name;
        solo.events.push_back(
            WorkloadEvent{0, name, 5, Priority::Medium, 0});
        RunResult run = base_sim.run(solo);
        exec_table.addRow({name,
                           Table::cell(simtime::toSec(
                               run.records[0].executionSpan()))});
    }
    exec_table.print();
    std::printf("\n");

    // Response times under the shared sequence for all five algorithms.
    auto seqs = env.sequences(Scenario::Table3);
    auto grid = env.grid();
    auto results = grid.runAll(evaluationSchedulers(), seqs);
    std::uint64_t total_runs = evaluationSchedulers().size() * seqs.size();

    Table resp_table("Mean response time (s) per benchmark");
    std::vector<std::string> header = {"Benchmark"};
    for (const auto &algo : evaluationSchedulers())
        header.push_back(displayName(algo));
    resp_table.setHeader(header);

    CsvWriter csv;
    csv.setHeader({"benchmark", "scheduler", "mean_response_s"});

    std::map<std::string, std::map<std::string, double>> by_app;
    for (const auto &algo : evaluationSchedulers()) {
        auto means = meanResponseByApp(results.at(algo).allRecords());
        for (auto &[app, mean] : means) {
            by_app[app][algo] = mean;
            csv.addRow({app, algo, Table::cell(mean, 3)});
        }
    }
    for (auto &[app, per_algo] : by_app) {
        std::vector<std::string> row = {app};
        for (const auto &algo : evaluationSchedulers()) {
            auto it = per_algo.find(algo);
            row.push_back(it == per_algo.end() ? "-"
                                               : Table::cell(it->second));
        }
        resp_table.addRow(row);
    }
    resp_table.print();

    std::printf("\npaper shape: sharing algorithms cut short-benchmark "
                "response times by orders of magnitude; Nimblock leads on "
                "longer benchmarks (OF, AN).\n");
    maybeWriteCsv(opts, csv);
    maybeWriteTraces(opts, env, {"baseline"});
    maybeWritePolicyTrace(opts, env);
    printFooter(total_runs);
    return 0;
}
