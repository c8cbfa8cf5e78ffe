/**
 * @file
 * EventSource tests: chunked file readers against loadTrace,
 * window-boundary behaviour, rewind, streaming conversion and
 * error paths.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gen/generator_source.hh"
#include "gen/random_trace.hh"
#include "test_helpers.hh"
#include "trace/event_source.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"

namespace tc {
namespace {

Trace
sampleTrace(std::uint64_t events = 2000)
{
    RandomTraceParams params;
    params.threads = 6;
    params.locks = 3;
    params.vars = 40;
    params.events = events;
    params.forkJoin = true;
    params.seed = 424242;
    return generateRandomTrace(params);
}

void
expectSameEvents(const Trace &expected, EventSource &source)
{
    const SourceInfo si = source.info();
    EXPECT_EQ(si.threads, expected.numThreads());
    EXPECT_EQ(si.locks, expected.numLocks());
    EXPECT_EQ(si.vars, expected.numVars());
    test::expectSameEvents(expected, source);
}

class EventSourceFiles : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace_ = sampleTrace();
        ASSERT_TRUE(saveTrace(trace_, textPath_));
        ASSERT_TRUE(saveTrace(trace_, binPath_));
    }

    void
    TearDown() override
    {
        std::remove(textPath_.c_str());
        std::remove(binPath_.c_str());
    }

    Trace trace_;
    std::string textPath_ = "/tmp/tc_event_source_test.tct";
    std::string binPath_ = "/tmp/tc_event_source_test.tcb";
};

TEST_F(EventSourceFiles, TextReaderMatchesLoadTrace)
{
    const ParseResult loaded = loadTrace(textPath_);
    ASSERT_TRUE(loaded.ok);
    const auto source = openTraceFile(textPath_);
    ASSERT_FALSE(source->failed()) << source->error();
    expectSameEvents(loaded.trace, *source);
}

TEST_F(EventSourceFiles, BinaryReaderMatchesLoadTrace)
{
    const ParseResult loaded = loadTrace(binPath_);
    ASSERT_TRUE(loaded.ok);
    const auto source = openTraceFile(binPath_);
    ASSERT_FALSE(source->failed()) << source->error();
    expectSameEvents(loaded.trace, *source);
}

TEST_F(EventSourceFiles, WindowBoundariesCoverAllSizes)
{
    // Windows that divide the event count, don't divide it, and
    // exceed it must all deliver the identical stream.
    for (const std::size_t window : {1ul, 7ul, 64ul, 1000000ul}) {
        auto source = openTraceFile(binPath_, window);
        ASSERT_FALSE(source->failed()) << "window " << window;
        expectSameEvents(trace_, *source);
    }
}

TEST_F(EventSourceFiles, RewindRestartsTheStream)
{
    for (const auto *path : {&textPath_, &binPath_}) {
        auto source = openTraceFile(*path, 32);
        Event e;
        for (int i = 0; i < 100; i++)
            ASSERT_TRUE(source->next(e));
        ASSERT_TRUE(source->rewind());
        expectSameEvents(trace_, *source);
    }
}

TEST_F(EventSourceFiles, StreamingConvertRoundTrips)
{
    // text → binary → text through saveTraceStream (no
    // materialization), then compare against the original.
    const std::string bin2 = "/tmp/tc_event_source_conv.tcb";
    const std::string text2 = "/tmp/tc_event_source_conv.tct";
    {
        auto source = openTraceFile(textPath_);
        ASSERT_TRUE(saveTraceStream(*source, bin2));
    }
    {
        auto source = openTraceFile(bin2);
        ASSERT_TRUE(saveTraceStream(*source, text2));
    }
    const ParseResult direct = loadTrace(textPath_);
    const ParseResult converted = loadTrace(text2);
    ASSERT_TRUE(direct.ok);
    ASSERT_TRUE(converted.ok) << converted.message;
    ASSERT_EQ(direct.trace.size(), converted.trace.size());
    for (std::size_t i = 0; i < direct.trace.size(); i++)
        EXPECT_EQ(direct.trace[i], converted.trace[i]);
    // The patched binary header must carry the real event count.
    const ParseResult bin_loaded = loadTrace(bin2);
    ASSERT_TRUE(bin_loaded.ok);
    EXPECT_EQ(bin_loaded.trace.size(), trace_.size());
    std::remove(bin2.c_str());
    std::remove(text2.c_str());
}

TEST_F(EventSourceFiles, StreamingStatsMatchBatchStats)
{
    const TraceStats batch = computeStats(trace_);
    auto source = openTraceFile(binPath_, 16);
    const TraceStats streamed = computeStats(*source);
    EXPECT_EQ(batch.events, streamed.events);
    EXPECT_EQ(batch.threads, streamed.threads);
    EXPECT_EQ(batch.variables, streamed.variables);
    EXPECT_EQ(batch.locks, streamed.locks);
    EXPECT_EQ(batch.reads, streamed.reads);
    EXPECT_EQ(batch.writes, streamed.writes);
    EXPECT_EQ(batch.acquires, streamed.acquires);
    EXPECT_EQ(batch.forks, streamed.forks);
}

TEST(EventSourceErrors, MissingFileFailsOnOpen)
{
    const auto source =
        openTraceFile("/tmp/definitely_missing_source.tct");
    ASSERT_TRUE(source->failed());
    Event e;
    EXPECT_FALSE(source->next(e));
}

TEST(EventSourceErrors, TruncatedBinaryFailsMidStream)
{
    const Trace t = sampleTrace(500);
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    ASSERT_TRUE(writeTraceBinary(t, ss));
    std::string data = ss.str();
    data.resize(data.size() - 5); // cut into the last event
    std::stringstream cut(data);
    auto source = makeBinaryEventSource(cut, 64);
    ASSERT_FALSE(source->failed());
    Event e;
    std::size_t delivered = 0;
    while (source->next(e))
        delivered++;
    EXPECT_TRUE(source->failed());
    EXPECT_LT(delivered, t.size());
}

TEST(EventSourceErrors, RejectsOutOfRangeBinaryIds)
{
    // A crafted .tcb with a negative tid must fail the stream, not
    // hand the id to consumers (heap-corruption regression).
    Trace t(1, 0, 1);
    t.write(0, 0);
    std::stringstream ss(std::ios::in | std::ios::out |
                         std::ios::binary);
    ASSERT_TRUE(writeTraceBinary(t, ss));
    std::string data = ss.str();
    // First event's tid starts right after magic(6) + 3×u32 + u64.
    const std::size_t tid_off = 6 + 12 + 8;
    const std::int32_t bad_tid = -1;
    data.replace(tid_off, sizeof(bad_tid),
                 reinterpret_cast<const char *>(&bad_tid),
                 sizeof(bad_tid));
    std::stringstream corrupt(data);
    auto source = makeBinaryEventSource(corrupt, 64);
    Event e;
    EXPECT_FALSE(source->next(e));
    EXPECT_TRUE(source->failed());
}

TEST(EventSourceErrors, RejectsOutOfRangeTextIds)
{
    std::istringstream is(
        "threads 1 locks 0 vars 1\n0 r 4294967296\n");
    auto source = makeTextEventSource(is);
    Event e;
    EXPECT_FALSE(source->next(e));
    EXPECT_TRUE(source->failed());
    EXPECT_EQ(source->errorLine(), 2u);
}

TEST(EventSourceErrors, BadTextLineReportsLine)
{
    std::istringstream is(
        "threads 2 locks 1 vars 1\n0 r 0\n0 cas 0\n");
    auto source = makeTextEventSource(is);
    Event e;
    ASSERT_TRUE(source->next(e));
    EXPECT_FALSE(source->next(e));
    EXPECT_TRUE(source->failed());
    EXPECT_EQ(source->errorLine(), 3u);
}

TEST(EventSourceBorrowedStreams, RewindReturnsToConstructionOffset)
{
    // A borrowed stream need not start at byte 0 (e.g. a preamble
    // before the trace); rewind must return to where the source
    // was constructed, not to the stream's beginning.
    Trace t(2, 0, 1);
    t.write(0, 0);
    t.read(1, 0);
    std::stringstream ss;
    ss << "PREAMBLE LINE\n";
    const auto preamble_end = ss.tellp();
    writeTraceText(t, ss);
    ss.seekg(preamble_end);
    auto source = makeTextEventSource(ss);
    ASSERT_FALSE(source->failed()) << source->error();
    expectSameEvents(t, *source);
    ASSERT_TRUE(source->rewind());
    expectSameEvents(t, *source);
}

TEST(EventSourceErrors, MissingHeaderFailsUpfront)
{
    std::istringstream is("0 r 0\n");
    const auto source = makeTextEventSource(is);
    EXPECT_TRUE(source->failed());
}

TEST(GeneratorSource, StreamsTheGeneratedWorkload)
{
    RandomTraceParams params;
    params.threads = 4;
    params.events = 1000;
    params.seed = 7;
    const Trace direct = generateRandomTrace(params);
    auto source = makeRandomTraceSource(params);
    expectSameEvents(direct, *source);
    // Sources rewind, so one generated workload serves many runs.
    ASSERT_TRUE(source->rewind());
    expectSameEvents(direct, *source);
}

TEST(TraceSourceView, InfoAndIteration)
{
    Trace t(2, 0, 1);
    t.write(0, 0);
    t.read(1, 0);
    TraceSource source(t);
    const SourceInfo si = source.info();
    EXPECT_EQ(si.threads, 2);
    EXPECT_TRUE(si.eventCountKnown());
    EXPECT_EQ(si.events, 2u);
    expectSameEvents(t, source);
}

/** Valid for 300 events, then lock 1 acquired while held. */
Trace
heldLockTrace()
{
    Trace t;
    t.acquire(0, 1);
    for (int i = 0; i < 299; i++)
        t.write(1 + i % 3, i % 7);
    t.acquire(2, 1); // event 300
    t.release(2, 1);
    return t;
}

TEST(ValidatingSource, ValidStreamPassesThroughUnchanged)
{
    const Trace trace = sampleTrace();
    auto source =
        makeValidatingSource(std::make_unique<TraceSource>(trace));
    expectSameEvents(trace, *source);
    ASSERT_TRUE(source->rewind());
    std::vector<Event> storage;
    std::size_t seen = 0;
    EventWindow w;
    while (!(w = source->readWindow(storage, 64)).empty())
        seen += w.size;
    EXPECT_EQ(seen, trace.size());
    EXPECT_FALSE(source->failed());
}

TEST(ValidatingSource, ViolationWithholdsItsWindow)
{
    const Trace trace = heldLockTrace();
    const ValidationResult v = trace.validate();
    ASSERT_FALSE(v.ok);
    const std::string expected =
        "malformed trace at event 300: " + v.message;
    auto source =
        makeValidatingSource(std::make_unique<TraceSource>(trace));
    std::vector<Event> storage;
    std::size_t delivered = 0;
    EventWindow w;
    while (!(w = source->readWindow(storage, 64)).empty())
        delivered += w.size;
    // Windows [0,64) ... [256,320): the one holding event 300 is
    // withheld entirely.
    EXPECT_EQ(delivered, 256u);
    ASSERT_TRUE(source->failed());
    EXPECT_EQ(source->errorKind(), SourceErrorKind::Invalid);
    EXPECT_EQ(source->error(), expected);
    EXPECT_EQ(source->errorLine(), 0u);
    EXPECT_TRUE(source->readWindow(storage, 64).empty());

    // Event by event: everything before the violation arrives.
    ASSERT_TRUE(source->rewind());
    EXPECT_FALSE(source->failed());
    Event e;
    std::size_t n = 0;
    while (source->next(e))
        n++;
    EXPECT_EQ(n, 300u);
    EXPECT_EQ(source->error(), expected);
}

TEST(ValidatingSource, SeekRevalidatesTheSkippedPrefix)
{
    const Trace trace = heldLockTrace();
    auto source =
        makeValidatingSource(std::make_unique<TraceSource>(trace));
    // The lock acquired at event 0 is still known to be held when
    // the stream resumes at 200.
    ASSERT_TRUE(source->seekToSequence(200));
    Event e;
    std::size_t n = 0;
    while (source->next(e))
        n++;
    EXPECT_EQ(n, 100u);
    EXPECT_EQ(source->errorKind(), SourceErrorKind::Invalid);
    EXPECT_NE(source->error().find("at event 300:"),
              std::string::npos)
        << source->error();
    // A seek past the violation fails on the way there.
    EXPECT_FALSE(source->seekToSequence(301));
    EXPECT_EQ(source->errorKind(), SourceErrorKind::Invalid);
}

TEST(ValidatingSource, InnerErrorsKeepTheirKind)
{
    auto missing = makeValidatingSource(
        openTraceFile("/tmp/definitely_missing_validating.tcb"));
    ASSERT_TRUE(missing->failed());
    EXPECT_EQ(missing->errorKind(), SourceErrorKind::Io);
}

} // namespace
} // namespace tc
