/**
 * @file
 * Bringing your own accelerator to the virtualized FPGA: partition it
 * into slot-sized tasks, describe the task graph, and let the Nimblock
 * runtime schedule it alongside the standard benchmarks.
 *
 * Also demonstrates the offline saturation analysis (§4.2): how many
 * slots can the application profitably use at different batch sizes, and
 * what goal number the scheduler will derive.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "alloc/makespan.hh"
#include "alloc/saturation.hh"
#include "apps/registry.hh"
#include "core/simulation.hh"
#include "sim/logging.hh"
#include "stats/table.hh"
#include "taskgraph/builder.hh"

using namespace nimblock;

/**
 * A video-analytics pipeline partitioned by hand: decode feeds two
 * parallel branches (detection and optical tracking) that join in a
 * fusion stage — the kind of fork-join DAG §2.2 describes.
 */
static AppSpecPtr
makeVideoAnalytics()
{
    GraphBuilder b;

    TaskSpec decode;
    decode.name = "decode";
    decode.itemLatency = simtime::msF(40);
    decode.inputBytes = 4 << 20; // Compressed frame batch in.
    decode.outputBytes = 2 << 20;
    TaskId d = b.addTask(decode);

    TaskSpec detect;
    detect.name = "detect";
    detect.itemLatency = simtime::msF(120);
    detect.inputBytes = 2 << 20;
    detect.outputBytes = 64 << 10;
    TaskId det = b.addTask(detect);

    TaskSpec track;
    track.name = "track";
    track.itemLatency = simtime::msF(90);
    track.inputBytes = 2 << 20;
    track.outputBytes = 64 << 10;
    TaskId trk = b.addTask(track);

    TaskSpec fuse;
    fuse.name = "fuse";
    fuse.itemLatency = simtime::msF(25);
    fuse.inputBytes = 128 << 10;
    fuse.outputBytes = 32 << 10;
    TaskId f = b.addTask(fuse);

    b.edge(d, det).edge(d, trk).edge(det, f).edge(trk, f);
    return std::make_shared<AppSpec>("video_analytics", "VA", b.build());
}

int
main()
{
    setQuiet(true);
    AppSpecPtr va = makeVideoAnalytics();

    std::printf("video_analytics: %zu tasks, %zu edges\n\n", va->numTasks(),
                va->numEdges());

    // Offline analysis: sweep slot counts per batch size — the ILP
    // substitute the goal numbers come from.
    SystemConfig config;
    MakespanParams params;
    params.reconfigLatency = config.reconfigLatency();
    GoalNumberCache goals(config.fabric.numSlots, params);

    Table sweep("Estimated makespan (s) by slot count");
    sweep.setHeader({"Batch", "1 slot", "2", "4", "6", "10", "Goal"});
    for (int batch : {1, 4, 16, 32}) {
        // The saturation sweep stops one point past the knee, so the
        // curve comes from one estimate per slot count, in the mode the
        // goal cache uses for this app.
        MakespanParams p = params;
        p.batch = batch;
        p.pipelined = p.pipelined && va->pipelineAcrossBatch();
        std::vector<std::string> row{Table::cell(std::int64_t(batch))};
        for (std::size_t slots : {1, 2, 4, 6, 10}) {
            p.slots = slots;
            row.push_back(Table::cell(
                simtime::toSec(estimateMakespan(va->graph(), p)), 2));
        }
        row.push_back(Table::cell(std::int64_t(goals.goalNumber(*va, batch))));
        sweep.addRow(std::move(row));
    }
    sweep.print();

    // Run it against background tenants.
    AppRegistry registry = standardRegistry();
    registry.add(va);

    EventSequence seq;
    seq.name = "custom";
    seq.events = {
        WorkloadEvent{0, "optical_flow", 12, Priority::Low, 0},
        WorkloadEvent{1, "video_analytics", 16, Priority::High,
                      simtime::ms(300)},
        WorkloadEvent{2, "lenet", 8, Priority::Medium, simtime::ms(600)},
    };

    RunResult result = Simulation(config, registry).run(seq);
    std::printf("\nscheduled alongside standard benchmarks (nimblock):\n");
    for (const AppRecord &rec : result.records) {
        std::printf("  %-18s response %7.3f s (wait %.3f s, %d reconfigs, "
                    "%d preemptions)\n",
                    rec.appName.c_str(),
                    simtime::toSec(rec.responseTime()),
                    simtime::toSec(rec.waitTime()), rec.reconfigs,
                    rec.preemptions);
    }
    return 0;
}
