/**
 * @file
 * Unit tests for trace text serialization.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/trace_io.hh"

namespace nimblock {
namespace {

EventSequence
sample()
{
    EventSequence seq;
    seq.name = "sample";
    seq.seed = 77;
    seq.events = {
        WorkloadEvent{0, "lenet", 5, Priority::Low, simtime::msF(10.5)},
        WorkloadEvent{1, "alexnet", 30, Priority::High, simtime::msF(250)},
    };
    return seq;
}

TEST(TraceIo, RoundTripsThroughString)
{
    EventSequence seq = sample();
    EventSequence parsed = traceFromString(traceToString(seq));
    EXPECT_EQ(parsed.name, "sample");
    EXPECT_EQ(parsed.seed, 77u);
    ASSERT_EQ(parsed.events.size(), 2u);
    EXPECT_EQ(parsed.events[0].appName, "lenet");
    EXPECT_EQ(parsed.events[0].batch, 5);
    EXPECT_EQ(parsed.events[0].priority, Priority::Low);
    EXPECT_EQ(parsed.events[0].arrival, simtime::msF(10.5));
    EXPECT_EQ(parsed.events[1].priority, Priority::High);
}

TEST(TraceIo, RoundTripIsLosslessAtNanosecondPrecision)
{
    // Arrivals with sub-microsecond structure: the old "%.3f ms" writer
    // rounded these to the nearest microsecond, so read-back differed
    // from the original SimTime values.
    EventSequence seq;
    seq.name = "ns";
    seq.seed = 3;
    seq.events = {
        WorkloadEvent{0, "a", 1, Priority::Low, 0},
        WorkloadEvent{1, "b", 2, Priority::Medium, simtime::ns(1)},
        WorkloadEvent{2, "c", 3, Priority::High,
                      simtime::ms(123) + simtime::ns(457)},
        WorkloadEvent{3, "d", 4, Priority::Low,
                      simtime::sec(3600) + simtime::ns(999)},
    };
    EventSequence parsed = traceFromString(traceToString(seq));
    ASSERT_EQ(parsed.events.size(), seq.events.size());
    for (std::size_t i = 0; i < seq.events.size(); ++i) {
        EXPECT_EQ(parsed.events[i].arrival, seq.events[i].arrival)
            << "event " << i << " arrival not reproduced exactly";
        EXPECT_EQ(parsed.events[i].appName, seq.events[i].appName);
        EXPECT_EQ(parsed.events[i].batch, seq.events[i].batch);
        EXPECT_EQ(parsed.events[i].priority, seq.events[i].priority);
    }
}

TEST(TraceIo, AcceptsLegacyMillisecondEvents)
{
    std::string text = "seq legacy 9\n"
                       "event 10.5 lenet 5 1\n"
                       "event_ns 250000001 alexnet 30 9\n";
    EventSequence seq = traceFromString(text);
    ASSERT_EQ(seq.events.size(), 2u);
    EXPECT_EQ(seq.events[0].arrival, simtime::msF(10.5));
    EXPECT_EQ(seq.events[1].arrival, simtime::ms(250) + simtime::ns(1));
}

TEST(TraceIo, IgnoresCommentsAndBlankLines)
{
    std::string text = "# header comment\n"
                       "\n"
                       "seq t 1\n"
                       "event 5.0 app 2 3  # trailing comment\n";
    EventSequence seq = traceFromString(text);
    ASSERT_EQ(seq.events.size(), 1u);
    EXPECT_EQ(seq.events[0].appName, "app");
    EXPECT_EQ(seq.events[0].priority, Priority::Medium);
}

TEST(TraceIo, RejectsUnknownDirective)
{
    EXPECT_THROW(traceFromString("bogus 1 2 3\n"), FatalError);
}

TEST(TraceIo, RejectsMalformedEvent)
{
    EXPECT_THROW(traceFromString("event 5.0 app\n"), FatalError);
    EXPECT_THROW(traceFromString("event 5.0 app 2 7\n"), FatalError);
    EXPECT_THROW(traceFromString("event_ns 5000 app\n"), FatalError);
}

/** Parsing @p text must fatal() with a message containing @p what. */
void
expectFatal(const std::string &text, const std::string &what)
{
    try {
        traceFromString(text);
        ADD_FAILURE() << "parsed: " << text;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(TraceIo, RejectsNegativeArrivals)
{
    expectFatal("seq t 1\nevent_ns -5 lenet 1 3\n",
                "trace line 2: negative arrival");
    expectFatal("event -0.5 lenet 1 3\n", "trace line 1: negative arrival");
}

TEST(TraceIo, RejectsArrivalsPastTheClock)
{
    // 1e300 ms overflows SimTime: converting it would be undefined.
    expectFatal("event 1e300 lenet 1 3\n",
                "trace line 1: arrival 1e+300 ms does not fit");
    // SimTime ends near 9.22e18 ns.
    expectFatal("event 9.3e12 lenet 1 3\n",
                "trace line 1: arrival 9.3e+12 ms does not fit");
    EventSequence seq = traceFromString("event 9e12 lenet 1 3\n");
    EXPECT_EQ(seq.events[0].arrival, simtime::sec(9000000000));
}

TEST(TraceIo, RejectsTrailingFields)
{
    expectFatal("event_ns 10 lenet 1 3 junk\n",
                "trace line 1: unexpected trailing field 'junk'");
    expectFatal("seq t 1\nevent 10 lenet 1 3 4\n",
                "trace line 2: unexpected trailing field '4'");
    expectFatal("seq t 1 2\n", "trace line 1: unexpected trailing field '2'");
}

TEST(TraceIo, SingleByteMutationsParseOrFatal)
{
    // Every single-byte replacement, insertion or deletion of a valid
    // trace either parses or throws FatalError; anything else (another
    // exception, a crash, a sanitizer report) fails the test.
    const std::string valid = "# fuzz\n"
                              "seq fuzz 7\n"
                              "event 10.5 lenet 5 1\n"
                              "event_ns 250000001 alexnet 30 9\n"
                              "event 9e9 lenet 1 3\n";
    ASSERT_EQ(traceFromString(valid).events.size(), 3u);
    const char alphabet[] = "0123456789-+.eE# \n\tx";
    Rng rng(2023);
    int parsed = 0;
    int rejected = 0;
    for (int i = 0; i < 4000; ++i) {
        std::string text = valid;
        const std::size_t pos = rng.index(text.size());
        const char byte = rng.bernoulli(0.5)
                              ? alphabet[rng.index(sizeof(alphabet) - 1)]
                              : static_cast<char>(rng.index(256));
        switch (rng.index(3)) {
          case 0:
            text[pos] = byte;
            break;
          case 1:
            text.insert(pos, 1, byte);
            break;
          default:
            text.erase(pos, 1);
            break;
        }
        try {
            traceFromString(text);
            ++parsed;
        } catch (const FatalError &) {
            ++rejected;
        }
    }
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}

TEST(TraceIo, RejectsUnsortedEvents)
{
    std::string text = "event 10 a 1 1\nevent 5 b 1 1\n";
    EXPECT_THROW(traceFromString(text), FatalError);
}

TEST(TraceIo, FileRoundTrip)
{
    EventSequence seq = sample();
    std::string path = testing::TempDir() + "nimblock_trace.txt";
    ASSERT_TRUE(writeTraceFile(seq, path));
    EventSequence parsed = readTraceFile(path);
    EXPECT_EQ(parsed.events.size(), seq.events.size());
    EXPECT_EQ(parsed.events[1].appName, "alexnet");
}

TEST(TraceIo, MissingFileIsFatal)
{
    EXPECT_THROW(readTraceFile("/nonexistent/path/trace.txt"), FatalError);
}

TEST(TraceIo, EventIndicesAreSequential)
{
    std::string text = "event 1 a 1 1\nevent 2 b 1 1\nevent 3 c 1 1\n";
    EventSequence seq = traceFromString(text);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(seq.events[i].index, i);
}

} // namespace
} // namespace nimblock
