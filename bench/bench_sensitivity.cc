/**
 * @file
 * Sensitivity sweeps over the design parameters DESIGN.md calls out:
 *
 *  - scheduling interval (the paper fixes 400 ms);
 *  - token accumulation weight alpha (Algorithm 1);
 *  - slot count (the paper partitions the ZCU106 into 10);
 *  - CAP bandwidth, i.e. partial-reconfiguration latency (~80 ms on the
 *    board — "masking the latency of partial reconfiguration is crucial").
 *
 * Each sweep runs the stress workload under Nimblock and reports the mean
 * response time, holding everything else at the paper configuration.
 */

#include <cstdio>

#include "common.hh"
#include "sched/nimblock.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

using namespace nimblock;
using namespace nimblock::bench;

namespace {

double
meanSlowdown(const BenchEnv &env, const SystemConfig &cfg,
             const std::vector<EventSequence> &seqs)
{
    // Slowdown = response / isolated single-slot latency; immune to the
    // workload's fixed digit-recognition runtime dominating plain means.
    Simulation sim(cfg, env.registry);
    Summary slowdown;
    for (const EventSequence &seq : seqs) {
        RunResult run = sim.run(seq);
        for (const AppRecord &r : run.records) {
            SimTime unit = cfg.singleSlotLatency(
                *env.registry.get(r.appName), r.batch);
            slowdown.add(static_cast<double>(r.responseTime()) /
                         static_cast<double>(unit));
        }
    }
    return slowdown.mean();
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parseOrExit(argc, argv);
    BenchEnv env(opts);
    printHeader("Sensitivity sweeps (stress workload, nimblock)", opts);

    auto seqs = env.sequences(Scenario::Stress);
    CsvWriter csv;
    csv.setHeader({"sweep", "value", "mean_slowdown"});

    {
        Table t("Scheduling interval (paper: 400 ms)");
        t.setHeader({"Interval (ms)", "Mean slowdown"});
        for (int ms : {100, 200, 400, 800, 1600}) {
            SystemConfig cfg = env.config;
            cfg.scheduler = "nimblock";
            cfg.hypervisor.schedInterval = simtime::ms(ms);
            double resp = meanSlowdown(env, cfg, seqs);
            t.addRow({Table::cell(std::int64_t(ms)), Table::cell(resp)});
            csv.addRow({"sched_interval_ms", Table::cell(std::int64_t(ms)),
                        Table::cell(resp, 3)});
        }
        t.print();
        std::printf("\n");
    }

    {
        Table t("Slot count (paper: 10)");
        t.setHeader({"Slots", "Mean slowdown"});
        for (std::size_t slots : {4u, 6u, 8u, 10u, 12u, 16u}) {
            SystemConfig cfg = env.config;
            cfg.scheduler = "nimblock";
            cfg.fabric.numSlots = slots;
            double resp = meanSlowdown(env, cfg, seqs);
            t.addRow({Table::cell(std::int64_t(slots)), Table::cell(resp)});
            csv.addRow({"slots", Table::cell(std::int64_t(slots)),
                        Table::cell(resp, 3)});
        }
        t.print();
        std::printf("\n");
    }

    {
        Table t("CAP bandwidth, i.e. reconfiguration latency (paper: "
                "~80 ms per slot)");
        t.setHeader({"CAP MB/s", "Reconfig (ms)", "Mean slowdown"});
        for (double mbps : {25.0, 50.0, 100.0, 200.0, 400.0}) {
            SystemConfig cfg = env.config;
            cfg.scheduler = "nimblock";
            cfg.fabric.cap.bandwidthBytesPerSec = mbps * 1e6;
            double reconfig_ms = simtime::toMs(cfg.reconfigLatency());
            double resp = meanSlowdown(env, cfg, seqs);
            t.addRow({Table::cell(mbps, 0), Table::cell(reconfig_ms, 1),
                      Table::cell(resp)});
            csv.addRow({"cap_mbps", Table::cell(mbps, 0),
                        Table::cell(resp, 3)});
        }
        t.print();
        std::printf("\n");
    }

    std::printf("expected shapes: responses degrade gracefully as the "
                "interval grows (arrivals/completions also trigger "
                "passes); more slots help until the workload's parallelism "
                "saturates; slower CAP hurts short apps most.\n");
    maybeWriteCsv(opts, csv);
    return 0;
}
