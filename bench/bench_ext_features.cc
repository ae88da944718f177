/**
 * @file
 * Extension/design-choice ablations called out in DESIGN.md:
 *
 *  - inter-slot transport: PS (prototype) vs NoC (§7 future work);
 *  - PS-contention modeling on/off;
 *  - relocatable bitstreams (paper's out-of-scope citation [5,10,23]);
 *  - reconfiguration skip on placement affinity;
 *  - fine-grained (mid-item checkpoint) preemption (§7 future work).
 *
 * Each variant runs the stress workload under Nimblock; deltas are
 * relative to the paper-faithful default configuration.
 */

#include <cstdio>

#include "common.hh"
#include "metrics/analysis.hh"
#include "sim/logging.hh"
#include "stats/table.hh"

using namespace nimblock;
using namespace nimblock::bench;

namespace {

struct Variant
{
    const char *name;
    void (*apply)(SystemConfig &);
};

void
applyDefault(SystemConfig &)
{
}

void
applyNoc(SystemConfig &cfg)
{
    cfg.fabric.transport = InterSlotTransport::NoC;
}

void
applyContention(SystemConfig &cfg)
{
    cfg.fabric.modelPsContention = true;
}

void
applyRelocatable(SystemConfig &cfg)
{
    cfg.fabric.relocatableBitstreams = true;
}

void
applyReconfigSkip(SystemConfig &cfg)
{
    cfg.hypervisor.allowReconfigSkip = true;
}

void
applyMidItemPreempt(SystemConfig &cfg)
{
    cfg.hypervisor.allowMidItemPreemption = true;
}

const Variant kVariants[] = {
    {"default (paper-faithful)", applyDefault},
    {"NoC inter-slot transport", applyNoc},
    {"PS contention modeled", applyContention},
    {"relocatable bitstreams", applyRelocatable},
    {"reconfig skip on affinity", applyReconfigSkip},
    {"mid-item checkpoint preempt", applyMidItemPreempt},
};

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parseOrExit(argc, argv);
    BenchEnv env(opts);
    printHeader("Extension ablations (stress workload, nimblock)", opts);

    auto seqs = env.sequences(Scenario::Stress);

    // Reference run (paper-faithful defaults).
    std::vector<RunResult> reference;
    {
        SystemConfig cfg = env.config;
        cfg.scheduler = "nimblock";
        Simulation sim(cfg, env.registry);
        for (const EventSequence &seq : seqs)
            reference.push_back(sim.run(seq));
    }

    Table table("Design-choice ablations, relative to default");
    table.setHeader({"Variant", "Mean resp vs default", "Reconfigs",
                     "Preempts", "Notes"});
    CsvWriter csv;
    csv.setHeader({"variant", "relative_response", "configures",
                   "preemptions"});

    for (const Variant &variant : kVariants) {
        SystemConfig cfg = env.config;
        cfg.scheduler = "nimblock";
        variant.apply(cfg);
        Simulation sim(cfg, env.registry);

        Summary ratios;
        std::uint64_t configures = 0;
        std::uint64_t preempts = 0;
        std::uint64_t skips = 0;
        std::uint64_t checkpoints = 0;
        for (std::size_t i = 0; i < seqs.size(); ++i) {
            RunResult run = sim.run(seqs[i]);
            auto cmp =
                compareToBaseline(run.records, reference[i].records);
            for (const EventComparison &c : cmp)
                ratios.add(c.normalized());
            configures += run.hypervisorStats.configuresIssued;
            preempts += run.hypervisorStats.preemptionsHonored;
            skips += run.hypervisorStats.reconfigSkips;
            checkpoints += run.hypervisorStats.checkpointPreemptions;
        }

        std::string notes;
        if (skips)
            notes = formatMessage("%llu reconfig skips",
                                  static_cast<unsigned long long>(skips));
        if (checkpoints)
            notes = formatMessage("%llu checkpoints",
                                  static_cast<unsigned long long>(
                                      checkpoints));

        table.addRow({variant.name, Table::cell(ratios.mean()) + "x",
                      Table::cell(std::int64_t(configures)),
                      Table::cell(std::int64_t(preempts)), notes});
        csv.addRow({variant.name, Table::cell(ratios.mean(), 4),
                    Table::cell(std::int64_t(configures)),
                    Table::cell(std::int64_t(preempts))});
    }
    table.print();

    std::printf("\n< 1.00x = faster than the paper-faithful default. NoC "
                "and reconfig-skip remove latency; contention modeling "
                "adds it; relocation mainly reduces SD traffic.\n");
    maybeWriteCsv(opts, csv);
    maybeWriteTraces(opts, env, {"nimblock"});
    maybeWritePolicyTrace(opts, env);
    return 0;
}
