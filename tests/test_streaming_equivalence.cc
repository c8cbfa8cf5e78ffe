/**
 * @file
 * Streaming-vs-batch equivalence: the same trace fed event-by-event
 * through AnalysisDriver::feed(), window by window through
 * feedWindow(), and whole through run() must produce identical
 * EngineResults for all three policies × both clock backends — the
 * contract that lets OnlineRaceDetector be a plain alias of the
 * driver, and out-of-core runs trustworthy.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "analysis/pipeline.hh"
#include "gen/pool_workload.hh"
#include "test_helpers.hh"
#include "trace/event_source.hh"
#include "trace/trace_io.hh"

namespace tc {
namespace {

using test::runEngine;
using test::SweepCase;

void
expectSameRaces(const RaceSummary &a, const RaceSummary &b,
                const char *label)
{
    EXPECT_EQ(a.total(), b.total()) << label;
    EXPECT_EQ(a.writeWrite(), b.writeWrite()) << label;
    EXPECT_EQ(a.writeRead(), b.writeRead()) << label;
    EXPECT_EQ(a.readWrite(), b.readWrite()) << label;
    EXPECT_EQ(a.racyVarCount(), b.racyVarCount()) << label;
    ASSERT_EQ(a.reports().size(), b.reports().size()) << label;
    for (std::size_t i = 0; i < a.reports().size(); i++) {
        const RacePair &ra = a.reports()[i];
        const RacePair &rb = b.reports()[i];
        EXPECT_EQ(ra.var, rb.var) << label << " report " << i;
        EXPECT_EQ(ra.kind, rb.kind) << label << " report " << i;
        EXPECT_EQ(ra.prior, rb.prior) << label << " report " << i;
        EXPECT_EQ(ra.current, rb.current)
            << label << " report " << i;
    }
}

void
expectSameWork(const WorkCounters &a, const WorkCounters &b,
               const std::string &label)
{
    EXPECT_EQ(a.vtWork, b.vtWork) << label;
    EXPECT_EQ(a.dsWork, b.dsWork) << label;
    EXPECT_EQ(a.increments, b.increments) << label;
    EXPECT_EQ(a.joins, b.joins) << label;
    EXPECT_EQ(a.copies, b.copies) << label;
    EXPECT_EQ(a.deepCopies, b.deepCopies) << label;
    EXPECT_EQ(a.fallbackCopies, b.fallbackCopies) << label;
    EXPECT_EQ(a.clockBytes, b.clockBytes) << label;
    EXPECT_EQ(a.clockBytesPeak, b.clockBytesPeak) << label;
}

/** A TraceSource whose windows hold at most `cap` events and whose
 * info() may declare less than the trace holds. */
class CappedSource final : public EventSource
{
  public:
    CappedSource(const Trace &trace, std::size_t cap, SourceInfo info)
        : inner_(trace), cap_(cap), info_(info)
    {}

    SourceInfo info() const override { return info_; }
    bool next(Event &out) override { return inner_.next(out); }
    bool rewind() override { return inner_.rewind(); }

    EventWindow
    readWindow(std::vector<Event> &storage, std::size_t max) override
    {
        return inner_.readWindow(storage, std::min(max, cap_));
    }

  private:
    TraceSource inner_;
    std::size_t cap_;
    SourceInfo info_;
};

/**
 * An AnalysisPipeline (DriverConsumer::consumeWindow, i.e.
 * feedWindow) at window sizes 1, 7 and 4096 against begin() plus a
 * feed() loop: races, reports and every work counter must agree.
 * Run under the trace's own SourceInfo and under one that declares
 * nothing, whose ids all lie past the reservation — so windows fall
 * back to per-event growth until the state has grown, then take the
 * pre-sized path, switching mid-stream. A lifecycle trace also runs
 * under its SourceInfo with the lifecycle hint cleared: the bank is
 * then built eagerly, so even tcreate targets lie inside the sized
 * state and only the lifecycle op itself sends a window back.
 */
template <template <typename> class PolicyT, typename ClockT>
void
checkWindowFeed(const Trace &trace, const char *label)
{
    const SourceInfo declared = TraceSource(trace).info();
    SourceInfo none;
    none.lifecycle = declared.lifecycle;
    std::vector<SourceInfo> infos = {declared, none};
    if (declared.lifecycle) {
        infos.push_back(declared);
        infos.back().lifecycle = false;
    }
    for (const SourceInfo &info : infos) {
        WorkCounters fed_work;
        EngineConfig cfg;
        cfg.counters = &fed_work;
        AnalysisDriver<ClockT, PolicyT> fed(cfg);
        fed.begin(info);
        for (const Event &e : trace)
            fed.feed(e);
        const EngineResult expected = fed.result();

        for (const std::size_t cap : {1, 7, 4096}) {
            const std::string where =
                std::string(label) + " window " + std::to_string(cap) +
                (info.threads == 0 ? " declaring none" : "") +
                (info.lifecycle != declared.lifecycle ? " eager" : "");
            CappedSource source(trace, cap, info);
            AnalysisPipeline pipeline;
            pipeline.add(
                std::make_unique<DriverConsumer<ClockT, PolicyT>>(
                    label));
            const std::vector<AnalysisReport> reports =
                pipeline.run(source);
            ASSERT_EQ(reports.size(), 1u);
            const EngineResult &got = reports[0].result;
            EXPECT_EQ(got.events, expected.events) << where;
            expectSameRaces(got.races, expected.races, where.c_str());
            expectSameWork(got.work, fed_work, where);
        }
    }
}

/** run(trace) vs feed()-loop vs run(TraceSource) vs the window
 * feed for one engine. */
template <template <typename> class PolicyT, typename ClockT>
void
checkAllModes(const Trace &trace, const char *label)
{
    using Engine = AnalysisDriver<ClockT, PolicyT>;
    Engine batch_engine;
    const EngineResult batch = batch_engine.run(trace);

    Engine streamed;
    for (const Event &e : trace)
        streamed.feed(e);
    const EngineResult fed = streamed.result();

    TraceSource source(trace);
    Engine source_engine;
    const EngineResult from_source = source_engine.run(source);

    EXPECT_EQ(batch.events, fed.events) << label;
    EXPECT_EQ(batch.events, from_source.events) << label;
    expectSameRaces(batch.races, fed.races, label);
    expectSameRaces(batch.races, from_source.races, label);

    checkWindowFeed<PolicyT, ClockT>(trace, label);
}

class StreamingSweep : public ::testing::TestWithParam<SweepCase>
{
  protected:
    Trace trace_ = generateRandomTrace(GetParam().params);
};

TEST_P(StreamingSweep, HbFeedEqualsRun)
{
    checkAllModes<HbPolicy, TreeClock>(trace_, "hb/tc");
    checkAllModes<HbPolicy, VectorClock>(trace_, "hb/vc");
}

TEST_P(StreamingSweep, ShbFeedEqualsRun)
{
    checkAllModes<ShbPolicy, TreeClock>(trace_, "shb/tc");
    checkAllModes<ShbPolicy, VectorClock>(trace_, "shb/vc");
}

TEST_P(StreamingSweep, MazFeedEqualsRun)
{
    checkAllModes<MazPolicy, TreeClock>(trace_, "maz/tc");
    checkAllModes<MazPolicy, VectorClock>(trace_, "maz/vc");
}

TEST_P(StreamingSweep, ChunkedFileSourceMatchesBatch)
{
    // The acceptance demo: analyze through the chunked binary
    // reader with a tiny window (the full event vector is never
    // materialized) and demand batch-identical results.
    const std::string path =
        "/tmp/tc_stream_equiv_" + GetParam().label + ".tcb";
    ASSERT_TRUE(saveTrace(trace_, path));

    const auto source = openTraceFile(path, /*window=*/64);
    ASSERT_FALSE(source->failed()) << source->error();

    ShbEngine<TreeClock> engine;
    const EngineResult streamed = engine.run(*source);
    const EngineResult batch =
        runEngine<ShbEngine, TreeClock>(trace_);

    EXPECT_EQ(batch.events, streamed.events);
    expectSameRaces(batch.races, streamed.races, "shb/tc file");
    std::remove(path.c_str());
}

TEST_P(StreamingSweep, WorkCountersMatchAcrossModes)
{
    // The Theorem 1 accounting must not depend on how events are
    // delivered.
    WorkCounters batch_work, fed_work;
    EngineConfig batch_cfg, fed_cfg;
    batch_cfg.counters = &batch_work;
    fed_cfg.counters = &fed_work;

    runEngine<MazEngine, TreeClock>(trace_, batch_cfg);
    MazEngine<TreeClock> streamed(fed_cfg);
    for (const Event &e : trace_)
        streamed.feed(e);

    EXPECT_EQ(batch_work.vtWork, fed_work.vtWork);
    EXPECT_EQ(batch_work.joins, fed_work.joins);
    EXPECT_EQ(batch_work.copies, fed_work.copies);
    EXPECT_EQ(batch_work.increments, fed_work.increments);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StreamingSweep,
    ::testing::ValuesIn(test::standardSweep()),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        return info.param.label;
    });

TEST(StreamingEquivalence, WindowFeedHandlesLifecycleOps)
{
    // Pool workload: tcreate/tjoin/tretire throughout, so windows
    // holding a lifecycle op (and, for tree clocks, every window
    // after the id map activates) take the per-event path.
    PoolWorkloadParams params;
    params.poolSize = 4;
    params.tasks = 120;
    params.vars = 16;
    params.seed = 7;
    const Trace trace = generatePoolWorkload(params);
    ASSERT_TRUE(trace.hasLifecycle());
    checkAllModes<HbPolicy, TreeClock>(trace, "pool hb/tc");
    checkAllModes<HbPolicy, VectorClock>(trace, "pool hb/vc");
    checkAllModes<ShbPolicy, TreeClock>(trace, "pool shb/tc");
    checkAllModes<ShbPolicy, VectorClock>(trace, "pool shb/vc");
    checkAllModes<MazPolicy, TreeClock>(trace, "pool maz/tc");
    checkAllModes<MazPolicy, VectorClock>(trace, "pool maz/vc");
}

TEST(StreamingEquivalence, WindowFeedMarksMetIdsBeforeTheFirstCreate)
{
    // Plain events, a fork whose target stays silent, then
    // lifecycle ops. Windows of the plain prefix take the pre-sized
    // path; the ids they meet (the fork target included) must be
    // marked exactly as feed() marks them, or the id map that the
    // first tcreate activates maps them differently.
    Trace t(8, 1, 2);
    t.write(0, 0);
    t.read(1, 0);
    t.sync(0, 0);
    t.fork(0, 5);
    t.sync(1, 0);
    t.tcreate(0, 6);
    t.write(6, 1);
    t.read(5, 0);
    t.tjoin(0, 6);
    t.tretire(0, 6);
    t.tcreate(0, 7);
    t.read(7, 1);
    t.write(5, 0);
    t.join(0, 5);
    t.tjoin(0, 7);
    t.tretire(0, 7);
    t.write(1, 1);
    ASSERT_TRUE(t.validate().ok) << t.validate().message;
    checkAllModes<HbPolicy, TreeClock>(t, "met hb/tc");
    checkAllModes<HbPolicy, VectorClock>(t, "met hb/vc");
    checkAllModes<ShbPolicy, TreeClock>(t, "met shb/tc");
    checkAllModes<ShbPolicy, VectorClock>(t, "met shb/vc");
    checkAllModes<MazPolicy, TreeClock>(t, "met maz/tc");
    checkAllModes<MazPolicy, VectorClock>(t, "met maz/vc");
}

TEST(StreamingEquivalence, RunIsRepeatableOnOneDriver)
{
    // run() resets per-run state, so one driver can serve many
    // traces (the bench harnesses rely on this).
    Trace t1;
    t1.write(0, 0);
    t1.write(1, 0);
    Trace t2;
    t2.write(0, 0);

    HbEngine<TreeClock> engine;
    const EngineResult first = engine.run(t1);
    const EngineResult second = engine.run(t2);
    const EngineResult third = engine.run(t1);
    EXPECT_EQ(first.races.total(), 1u);
    EXPECT_EQ(second.races.total(), 0u);
    EXPECT_EQ(third.races.total(), 1u);
}

TEST(StreamingEquivalence, MidStreamResultsAreLive)
{
    ShbEngine<TreeClock> engine;
    engine.write(0, 0);
    EXPECT_EQ(engine.races().total(), 0u);
    engine.write(1, 0); // unordered second write
    EXPECT_EQ(engine.races().writeWrite(), 1u);
    EXPECT_EQ(engine.eventsProcessed(), 2u);
}

TEST(StreamingEquivalence, MazOnlineGrowsIdSpaces)
{
    // MAZ through the streaming interface with ids appearing out of
    // order — exercises on-demand growth of the pooled read-clock
    // store.
    MazEngine<VectorClock> engine;
    engine.read(5, 100);
    engine.read(2, 100);
    engine.write(0, 100); // joins both readers' clocks
    EXPECT_EQ(engine.races().readWrite(), 2u);
    EXPECT_GE(engine.threadsSeen(), 6);
}

} // namespace
} // namespace tc
