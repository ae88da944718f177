#include "workload/trace_io.hh"

#include <cstdio>
#include <sstream>

#include "sim/logging.hh"

namespace nimblock {

std::string
traceToString(const EventSequence &seq)
{
    std::string out;
    out += formatMessage("# nimblock event trace: %zu events\n",
                         seq.events.size());
    out += formatMessage("seq %s %llu\n",
                         seq.name.empty() ? "unnamed" : seq.name.c_str(),
                         static_cast<unsigned long long>(seq.seed));
    for (const WorkloadEvent &e : seq.events) {
        // Integer nanoseconds: "event %.3f" (milliseconds) truncated
        // sub-microsecond arrivals, so round trips did not reproduce the
        // original SimTime values.
        out += formatMessage("event_ns %lld %s %d %d\n",
                             static_cast<long long>(e.arrival),
                             e.appName.c_str(), e.batch,
                             static_cast<int>(e.priority));
    }
    return out;
}

EventSequence
traceFromString(const std::string &text)
{
    EventSequence seq;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    int index = 0;
    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments and blank lines.
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::string directive;
        if (!(fields >> directive))
            continue;

        if (directive == "seq") {
            unsigned long long seed = 0;
            if (!(fields >> seq.name >> seed))
                fatal("trace line %d: malformed seq directive", line_no);
            seq.seed = seed;
        } else if (directive == "event" || directive == "event_ns") {
            std::string app;
            int batch = 0;
            int priority = 0;
            SimTime arrival = 0;
            if (directive == "event_ns") {
                long long arrival_ns = 0;
                if (!(fields >> arrival_ns >> app >> batch >> priority)) {
                    fatal("trace line %d: malformed event_ns directive",
                          line_no);
                }
                if (arrival_ns < 0) {
                    fatal("trace line %d: negative arrival %lld ns",
                          line_no, arrival_ns);
                }
                arrival = static_cast<SimTime>(arrival_ns);
            } else {
                // Legacy lossy format: fractional milliseconds.
                double arrival_ms = 0;
                if (!(fields >> arrival_ms >> app >> batch >> priority)) {
                    fatal("trace line %d: malformed event directive",
                          line_no);
                }
                if (arrival_ms < 0) {
                    fatal("trace line %d: negative arrival %g ms", line_no,
                          arrival_ms);
                }
                // kTimeMax converts to exactly 2^63, the first double
                // past the range of SimTime.
                if (!(arrival_ms * 1e6 < static_cast<double>(kTimeMax))) {
                    fatal("trace line %d: arrival %g ms does not fit the "
                          "simulated clock",
                          line_no, arrival_ms);
                }
                arrival = simtime::msF(arrival_ms);
            }
            WorkloadEvent e;
            e.index = index++;
            e.arrival = arrival;
            e.appName = std::move(app);
            e.batch = batch;
            e.priority = priorityFromInt(priority);
            seq.events.push_back(std::move(e));
        } else {
            fatal("trace line %d: unknown directive '%s'", line_no,
                  directive.c_str());
        }
        std::string extra;
        if (fields >> extra) {
            fatal("trace line %d: unexpected trailing field '%s'", line_no,
                  extra.c_str());
        }
    }
    seq.validate();
    return seq;
}

bool
writeTraceFile(const EventSequence &seq, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string data = traceToString(seq);
    std::size_t written = std::fwrite(data.data(), 1, data.size(), f);
    std::fclose(f);
    return written == data.size();
}

EventSequence
readTraceFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        fatal("cannot open trace file '%s'", path.c_str());
    std::string data;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    std::fclose(f);
    return traceFromString(data);
}

} // namespace nimblock
