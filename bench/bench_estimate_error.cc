/**
 * @file
 * Robustness to HLS estimate error.
 *
 * The Nimblock hypervisor "leverage[s] performance estimates from
 * high-level synthesis EDA tools" (§4.1) for tokens, goal numbers and
 * candidate ordering. Real HLS reports deviate from silicon, so this
 * bench perturbs every task's scheduler-visible estimate by a bounded
 * relative error (true latencies untouched) and measures how Nimblock's
 * and PREMA's baseline-relative reductions degrade.
 */

#include <cstdio>

#include "apps/synthetic.hh"
#include "common.hh"
#include "sched/factory.hh"
#include "sim/logging.hh"
#include "stats/table.hh"

using namespace nimblock;
using namespace nimblock::bench;

namespace {

AppRegistry
perturbedRegistry(const AppRegistry &base, double error, Rng &rng)
{
    AppRegistry out;
    for (const auto &spec : base.specs()) {
        out.add(error == 0.0 ? spec
                             : withEstimateError(*spec, error, rng));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parseOrExit(argc, argv);
    BenchEnv env(opts);
    printHeader("Robustness to HLS estimate error (stress workload)",
                opts);

    auto seqs = env.sequences(Scenario::Stress);
    const std::vector<double> errors = {0.0, 0.10, 0.25, 0.50, 0.75};

    Table table("Avg reduction vs baseline under estimate error");
    table.setHeader({"Estimate error", "PREMA", "Nimblock"});
    CsvWriter csv;
    csv.setHeader({"error", "scheduler", "avg_reduction"});

    std::uint64_t total_runs = 0;
    for (double error : errors) {
        Rng rng(opts.seed ^ 0xe57e57);
        AppRegistry registry = perturbedRegistry(env.registry, error, rng);

        // The baseline ignores estimates, so its responses shift only via
        // nothing — rerun it against the same perturbed registry for a
        // like-for-like comparison anyway.
        ExperimentGrid grid(env.config, registry);
        grid.setJobs(opts.jobs);
        auto results =
            grid.runAll({"baseline", "prema", "nimblock"}, seqs);
        total_runs += 3 * seqs.size();

        std::vector<std::string> row = {
            formatMessage("±%.0f%%", error * 100)};
        for (const char *algo : {"prema", "nimblock"}) {
            auto cmp = ExperimentGrid::compare(results.at(algo),
                                               results.at("baseline"));
            double reduction = reductionStats(cmp).avgReduction();
            row.push_back(Table::cell(reduction) + "x");
            csv.addRow({Table::cell(error, 2), algo,
                        Table::cell(reduction, 4)});
        }
        table.addRow(row);
    }
    table.print();

    std::printf("\nexpected shape: reductions are nearly flat across error "
                "levels — the heuristics rank applications by coarse "
                "magnitude, so bounded estimate error barely moves "
                "decisions (the paper's case for estimate-driven "
                "scheduling without an ILP).\n");
    maybeWriteCsv(opts, csv);
    printFooter(total_runs);
    return 0;
}
