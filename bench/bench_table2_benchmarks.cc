/**
 * @file
 * Table 2: benchmark sizes — the number of tasks each application is
 * partitioned into and the number of edges in its task graph — plus
 * derived graph statistics (critical-path length, structural width and
 * goal numbers at representative batch sizes).
 */

#include <cstdio>

#include "alloc/saturation.hh"
#include "common.hh"
#include "stats/table.hh"
#include "taskgraph/graph_algos.hh"

using namespace nimblock;
using namespace nimblock::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parseOrExit(argc, argv);
    BenchEnv env(opts);
    printHeader("Table 2: benchmark sizes", opts);

    Table table("Benchmark task-graph sizes (paper: LN 3/2, AN 38/184, "
                "IMGC 6/5, OF 9/8, 3DR 3/2, DR 3/2)");
    table.setHeader({"Benchmark", "Tasks", "Edges", "Depth", "Width",
                     "Goal@b5", "Goal@b30"});

    MakespanParams params;
    params.reconfigLatency = env.config.reconfigLatency();
    params.psBandwidthBytesPerSec = env.config.fabric.psBandwidthBytesPerSec;
    GoalNumberCache goals(env.config.fabric.numSlots, params);

    for (const auto &spec : env.registry.specs()) {
        const TaskGraph &g = spec->graph();
        table.addRow({spec->name(),
                      Table::cell(static_cast<std::int64_t>(g.numTasks())),
                      Table::cell(static_cast<std::int64_t>(g.numEdges())),
                      Table::cell(static_cast<std::int64_t>(
                          criticalPathLength(g))),
                      Table::cell(static_cast<std::int64_t>(
                          maxLevelWidth(g))),
                      Table::cell(static_cast<std::int64_t>(
                          goals.goalNumber(*spec, 5))),
                      Table::cell(static_cast<std::int64_t>(
                          goals.goalNumber(*spec, 30)))});
    }
    table.print();
    return 0;
}
