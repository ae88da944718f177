/**
 * @file
 * Table 1: slot and static-region utilization of the ZCU106 overlay.
 *
 * These are the paper's reported resource numbers, carried verbatim by
 * the fabric's resource model; the bench prints them alongside derived
 * whole-overlay totals as a consistency report.
 */

#include <cstdio>

#include "common.hh"
#include "fabric/resources.hh"
#include "sim/logging.hh"
#include "stats/table.hh"

using namespace nimblock;
using namespace nimblock::bench;

int
main(int argc, char **argv)
{
    BenchOptions opts = BenchOptions::parseOrExit(argc, argv);
    printHeader("Table 1: slot and static region utilization", opts);

    ResourceRange slot = zcu106::slotRange();
    ResourceVector stat = zcu106::staticRegion();

    Table table("ZCU106 overlay utilization");
    table.setHeader({"Region", "DSP", "LUT", "FF", "Carry", "RAMB18",
                     "RAMB36", "IOBuf"});
    auto range = [](std::int64_t lo, std::int64_t hi) {
        return formatMessage("%lld-%lld", static_cast<long long>(lo),
                             static_cast<long long>(hi));
    };
    table.addRow({"Slot", range(slot.lo.dsp, slot.hi.dsp),
                  range(slot.lo.lut, slot.hi.lut),
                  range(slot.lo.ff, slot.hi.ff),
                  range(slot.lo.carry, slot.hi.carry),
                  range(slot.lo.ramb18, slot.hi.ramb18),
                  range(slot.lo.ramb36, slot.hi.ramb36),
                  range(slot.lo.iobuf, slot.hi.iobuf)});
    table.addRow({"Static", Table::cell(stat.dsp), Table::cell(stat.lut),
                  Table::cell(stat.ff), Table::cell(stat.carry),
                  Table::cell(stat.ramb18), Table::cell(stat.ramb36),
                  Table::cell(stat.iobuf)});

    ResourceVector total =
        stat + slot.hi * static_cast<std::int64_t>(zcu106::kNumSlots);
    table.addRow({"Overlay max", Table::cell(total.dsp),
                  Table::cell(total.lut), Table::cell(total.ff),
                  Table::cell(total.carry), Table::cell(total.ramb18),
                  Table::cell(total.ramb36), Table::cell(total.iobuf)});
    table.print();

    std::printf("\n%zu uniform slots; slot capacity = upper end of the "
                "slot range.\n", zcu106::kNumSlots);
    return 0;
}
