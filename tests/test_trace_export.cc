/**
 * @file
 * Golden tests for the Perfetto trace exporter: parse the generated
 * Chrome trace-event JSON back and check the structural invariants
 * Perfetto relies on (paired B/E slices per track, monotonic timestamps,
 * counter totals consistent with the run's aggregate stats).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/simulation.hh"
#include "metrics/trace_export.hh"
#include "sim/logging.hh"

namespace nimblock {
namespace {

/**
 * One parsed trace event. The exporter writes each event object on its
 * own line with no embedded newlines (strings are JSON-escaped), so the
 * test parser reads the document line by line instead of pulling in a
 * JSON library.
 */
struct ParsedEvent
{
    std::string name;
    std::string ph;
    int pid = -1;
    int tid = -1;
    double ts = -1;
    bool hasTs = false;
    double value = 0;
    bool hasValue = false;
};

/** Extract a quoted string field ("key":"value") from an event line. */
bool
extractString(const std::string &line, const std::string &key,
              std::string &out)
{
    std::string pat = "\"" + key + "\":\"";
    std::size_t at = line.find(pat);
    if (at == std::string::npos)
        return false;
    out.clear();
    for (std::size_t i = at + pat.size(); i < line.size(); ++i) {
        char c = line[i];
        if (c == '\\' && i + 1 < line.size()) {
            out += line[++i];
            continue;
        }
        if (c == '"')
            return true;
        out += c;
    }
    return false;
}

/** Extract a numeric field ("key":123.456) from an event line. */
bool
extractNumber(const std::string &line, const std::string &key, double &out)
{
    std::string pat = "\"" + key + "\":";
    std::size_t at = line.find(pat);
    if (at == std::string::npos)
        return false;
    out = std::strtod(line.c_str() + at + pat.size(), nullptr);
    return true;
}

std::vector<ParsedEvent>
parseTrace(const std::string &json)
{
    std::vector<ParsedEvent> events;
    std::size_t array = json.find("\"traceEvents\": [");
    EXPECT_NE(array, std::string::npos);
    std::size_t pos = array;
    std::size_t line_start;
    while ((line_start = json.find('{', pos + 1)) != std::string::npos) {
        std::size_t line_end = json.find('\n', line_start);
        if (line_end == std::string::npos)
            line_end = json.size();
        std::string line = json.substr(line_start, line_end - line_start);
        pos = line_end;

        ParsedEvent e;
        extractString(line, "name", e.name);
        extractString(line, "ph", e.ph);
        double num = 0;
        if (extractNumber(line, "pid", num))
            e.pid = static_cast<int>(num);
        if (extractNumber(line, "tid", num))
            e.tid = static_cast<int>(num);
        e.hasTs = extractNumber(line, "ts", e.ts);
        e.hasValue = extractNumber(line, "value", e.value);
        EXPECT_FALSE(e.ph.empty()) << "event without ph: " << line;
        events.push_back(std::move(e));
    }
    return events;
}

RunResult
tracedRun(const char *scheduler, bool energy = false)
{
    AppRegistry registry = standardRegistry();
    EventSequence seq;
    seq.name = "trace_test";
    seq.events = {
        WorkloadEvent{0, "optical_flow", 4, Priority::Low, 0},
        WorkloadEvent{1, "lenet", 3, Priority::High, simtime::ms(100)},
        WorkloadEvent{2, "image_compression", 4, Priority::Medium,
                      simtime::ms(200)},
    };
    SystemConfig cfg;
    cfg.scheduler = scheduler;
    cfg.recordTimeline = true;
    cfg.hypervisor.recordCounters = true;
    cfg.energy.enabled = energy;
    return Simulation(cfg, registry).run(seq);
}

TEST(TraceExport, GoldenStructure)
{
    RunResult result = tracedRun("nimblock");
    ASSERT_NE(result.timeline, nullptr);
    ASSERT_NE(result.counters, nullptr);

    TraceExporter exporter;
    std::string json =
        exporter.toJson(*result.timeline, result.counters.get());

    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
    std::vector<ParsedEvent> events = parseTrace(json);
    ASSERT_FALSE(events.empty());

    std::size_t slices = 0, counter_events = 0, metadata = 0, instants = 0;
    // Per-track open-slice stack: B pushes, E must pop a matching name.
    std::map<std::pair<int, int>, std::vector<std::string>> stacks;
    std::map<std::pair<int, int>, double> last_ts;
    for (const ParsedEvent &e : events) {
        if (e.ph == "M") {
            ++metadata;
            continue;
        }
        ASSERT_TRUE(e.hasTs) << "non-metadata event without ts: " << e.name;
        EXPECT_GE(e.ts, 0.0);
        if (e.ph == "C") {
            ++counter_events;
            EXPECT_TRUE(e.hasValue) << "counter without value: " << e.name;
            continue;
        }
        if (e.ph == "i") {
            ++instants;
            continue;
        }
        ASSERT_TRUE(e.ph == "B" || e.ph == "E") << "unexpected ph " << e.ph;
        ++slices;
        auto track = std::make_pair(e.pid, e.tid);
        auto it = last_ts.find(track);
        if (it != last_ts.end()) {
            EXPECT_GE(e.ts, it->second) << "track ts went backwards";
        }
        last_ts[track] = e.ts;
        auto &stack = stacks[track];
        if (e.ph == "B") {
            stack.push_back(e.name);
        } else {
            ASSERT_FALSE(stack.empty())
                << "E without open B on track " << e.pid << "/" << e.tid;
            EXPECT_EQ(stack.back(), e.name) << "non-LIFO slice nesting";
            stack.pop_back();
        }
    }
    for (const auto &[track, stack] : stacks) {
        EXPECT_TRUE(stack.empty())
            << "unclosed slice on track " << track.first << "/"
            << track.second;
    }
    EXPECT_GT(slices, 0u);
    EXPECT_GT(counter_events, 0u);
    EXPECT_GT(metadata, 0u);
    EXPECT_GT(instants, 0u); // sched.pass marks

    // Counter tracks are individually time-ordered.
    std::map<std::string, double> counter_last_ts;
    for (const ParsedEvent &e : events) {
        if (e.ph != "C")
            continue;
        auto it = counter_last_ts.find(e.name);
        if (it != counter_last_ts.end()) {
            EXPECT_GE(e.ts, it->second) << "counter " << e.name;
        }
        counter_last_ts[e.name] = e.ts;
    }

    // Final counter values agree with the run's aggregate statistics.
    std::map<std::string, double> final_value;
    for (const ParsedEvent &e : events) {
        if (e.ph == "C")
            final_value[e.name] = e.value;
    }
    EXPECT_DOUBLE_EQ(final_value.at("hyp.retired"),
                     static_cast<double>(result.records.size()));
    EXPECT_DOUBLE_EQ(
        final_value.at("hyp.items_done"),
        static_cast<double>(result.hypervisorStats.itemsExecuted));
    EXPECT_DOUBLE_EQ(
        final_value.at("hyp.sched_passes"),
        static_cast<double>(result.hypervisorStats.schedulingPasses));
    std::size_t pass_marks = 0;
    for (const ParsedEvent &e : events)
        pass_marks += e.ph == "i" && e.name == "sched.pass";
    EXPECT_EQ(pass_marks, result.hypervisorStats.schedulingPasses);
}

TEST(TraceExport, TimelineOnlyExportHasNoCounters)
{
    RunResult result = tracedRun("baseline");
    TraceExporter exporter;
    std::string json = exporter.toJson(*result.timeline, nullptr);
    for (const ParsedEvent &e : parseTrace(json))
        EXPECT_NE(e.ph, "C");
}

TEST(TraceExport, WriteFileRoundTrips)
{
    RunResult result = tracedRun("fcfs");
    TraceExporter exporter;
    std::string path = testing::TempDir() + "nimblock_trace_test.json";
    ASSERT_TRUE(exporter.writeFile(path, *result.timeline,
                                   result.counters.get()));

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string data;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    std::fclose(f);

    EXPECT_EQ(data, exporter.toJson(*result.timeline,
                                    result.counters.get()));
    EXPECT_EQ(data.front(), '{');
    EXPECT_EQ(data[data.size() - 2], '}'); // trailing newline after '}'
}

TEST(TraceExport, EnergyCounterTracksExported)
{
    RunResult result = tracedRun("themis", /*energy=*/true);
    ASSERT_TRUE(result.energy.enabled);
    TraceExporter exporter;
    std::string json =
        exporter.toJson(*result.timeline, result.counters.get());

    std::map<std::string, double> final_value;
    for (const ParsedEvent &e : parseTrace(json)) {
        if (e.ph == "C")
            final_value[e.name] = e.value;
    }
    ASSERT_TRUE(final_value.count("energy.total_joules"));
    ASSERT_TRUE(final_value.count("energy.dynamic_joules"));
    ASSERT_TRUE(final_value.count("energy.reconfig_joules"));
    EXPECT_GT(final_value.at("energy.total_joules"), 0.0);
    // The final counter sample precedes finalize(), so it excludes the
    // idle-static remainder folded in at end of run (tolerance: the two
    // sums accumulate in different orders).
    EXPECT_LE(final_value.at("energy.total_joules"),
              result.energy.totalJoules + 1e-6);
    EXPECT_NEAR(final_value.at("energy.dynamic_joules"),
                result.energy.dynamicJoules, 1e-9);
    EXPECT_NEAR(final_value.at("energy.reconfig_joules"),
                result.energy.reconfigJoules, 1e-9);
}

TEST(TraceExport, EnergyOffExportsNoEnergyCounters)
{
    RunResult result = tracedRun("nimblock");
    TraceExporter exporter;
    std::string json =
        exporter.toJson(*result.timeline, result.counters.get());
    EXPECT_EQ(json.find("energy."), std::string::npos);
}

TEST(TraceExport, SlotClassNamesSuffixThreadNames)
{
    Timeline empty;
    TraceExportOptions opts;
    opts.numSlots = 3;
    opts.slotClassNames = {"big", "small"}; // Slot 2 keeps the plain name.
    TraceExporter exporter(opts);
    std::string json = exporter.toJson(empty, nullptr);

    EXPECT_NE(json.find("slot 0 [big]"), std::string::npos);
    EXPECT_NE(json.find("slot 1 [small]"), std::string::npos);
    EXPECT_NE(json.find("\"slot 2\""), std::string::npos);
    EXPECT_EQ(json.find("slot 2 ["), std::string::npos);

    // Labels only rename the tracks: the metadata-event count is the
    // same as the legacy export (two processes, scheduler, three slots).
    std::vector<ParsedEvent> events = parseTrace(json);
    for (const ParsedEvent &e : events)
        EXPECT_EQ(e.ph, "M");
    EXPECT_EQ(events.size(), 6u);
}

TEST(TraceExport, EmptyTimelineStillValid)
{
    Timeline empty;
    TraceExportOptions opts;
    opts.numSlots = 2;
    TraceExporter exporter(opts);
    std::string json = exporter.toJson(empty, nullptr);
    std::vector<ParsedEvent> events = parseTrace(json);
    // Only metadata events: two processes, scheduler thread, two slots.
    for (const ParsedEvent &e : events)
        EXPECT_EQ(e.ph, "M");
    EXPECT_EQ(events.size(), 5u);
}

} // namespace
} // namespace nimblock
