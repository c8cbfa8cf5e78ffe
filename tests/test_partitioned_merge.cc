/**
 * @file
 * Partitioned-merge tests: openShardSetPartitioned must deliver the
 * byte-identical merged stream of openShardSet — same events, same
 * end position, same error text — for any worker count, window size
 * and shard count, across rewind, seekToSequence and checkpoint/
 * resume, and analyses over it must produce identical reports, race
 * summaries and work counters. Failure parity is pinned the way the
 * contract states it: same delivered prefix, then the same error —
 * a worker parks its range's error and the consumer surfaces it at
 * the exact merged position the sequential merge would (whether the
 * sequential source noticed at construction or mid-stream).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <dirent.h>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/hb_engine.hh"
#include "analysis/maz_engine.hh"
#include "analysis/pipeline.hh"
#include "analysis/shb_engine.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "gen/random_trace.hh"
#include "support/rng.hh"
#include "test_helpers.hh"
#include "trace/event_source.hh"
#include "trace/fault_injection.hh"
#include "trace/prefetch_source.hh"
#include "trace/shard.hh"
#include "trace/snapshot.hh"

namespace tc {
namespace {

using test::expectSameEvents;

Trace
sampleTrace(std::uint64_t events, std::uint64_t seed = 61)
{
    RandomTraceParams params;
    params.threads = 11;
    params.locks = 4;
    params.vars = 64;
    params.events = events;
    params.forkJoin = true;
    params.seed = seed;
    return generateRandomTrace(params);
}

void
split(const Trace &trace, const std::string &prefix,
      std::uint32_t shards)
{
    TraceSource source(trace);
    std::string error;
    ASSERT_EQ(splitTraceStream(source, prefix, shards, &error),
              trace.size())
        << error;
}

void
removeShards(const std::string &prefix, std::uint32_t shards)
{
    for (std::uint32_t i = 0; i < shards; i++)
        std::remove(shardPath(prefix, i).c_str());
}

/** Drain @p source counting deliveries (for failure-parity legs
 * where expectSameEvents' clean-end assertion doesn't apply). */
std::size_t
countDelivered(EventSource &source)
{
    Event e;
    std::size_t n = 0;
    while (source.next(e))
        n++;
    return n;
}

/** Run one (po, clock) analysis over @p source, with counters. */
template <template <typename> class Engine, typename ClockT>
EngineResult
runSource(EventSource &source, WorkCounters &work)
{
    EngineConfig cfg;
    cfg.counters = &work;
    Engine<ClockT> engine(cfg);
    return engine.run(source);
}

TEST(PartitionedMerge, RandomizedWorkerWindowShardSweep)
{
    // The tentpole contract: P workers each merge one contiguous
    // sequence range, the consumer stitches ranges back in order —
    // and the stream must be indistinguishable from the sequential
    // merge for worker counts below/at/above the shard count,
    // windows that don't divide batch sizes, and shard counts
    // around/above the worker count (including the degenerate
    // single-worker partition, which is the sequential merge with a
    // hand-off thread).
    Rng rng(0xAB5EEDull);
    const Trace trace = sampleTrace(4000);
    const std::string prefix = "/tmp/tc_pmrg_sweep";
    const int rounds = 10 * test::depthScale();
    for (int round = 0; round < rounds; round++) {
        const auto shards =
            static_cast<std::uint32_t>(rng.range(1, 16));
        const auto workers =
            static_cast<std::size_t>(rng.range(1, 9));
        const auto window =
            static_cast<std::size_t>(rng.range(1, 300));
        split(trace, prefix, shards);
        auto part =
            openShardSetPartitioned(prefix, workers, window);
        ASSERT_FALSE(part->failed()) << part->error();
        const SourceInfo si = part->info();
        EXPECT_EQ(si.threads, trace.numThreads());
        ASSERT_TRUE(si.eventCountKnown());
        EXPECT_EQ(si.events, trace.size());
        expectSameEvents(
            trace, *part,
            "shards=" + std::to_string(shards) +
                " workers=" + std::to_string(workers) +
                " window=" + std::to_string(window));
        removeShards(prefix, shards);
    }
}

TEST(PartitionedMerge, ReportsAndCountersMatchSequentialMerge)
{
    // 3 po × 2 clocks: the partitioned stream must produce reports,
    // race summaries and work counters byte-identical to the
    // sequential merge's (which test_shard pins against the
    // original trace).
    const Trace trace = sampleTrace(6000, 67);
    const std::string prefix = "/tmp/tc_pmrg_eq";
    split(trace, prefix, 6);

    auto runBoth = [&](auto runner, const std::string &label) {
        auto sequential = openShardSet(prefix, 256);
        auto part = openShardSetPartitioned(prefix, 3, 256);
        WorkCounters seq_work, par_work;
        const EngineResult seq = runner(*sequential, seq_work);
        const EngineResult par = runner(*part, par_work);
        ASSERT_FALSE(sequential->failed()) << sequential->error();
        ASSERT_FALSE(part->failed()) << part->error();
        EXPECT_EQ(seq.events, par.events) << label;
        EXPECT_EQ(seq.races.total(), par.races.total()) << label;
        EXPECT_EQ(seq.races.racyVarCount(),
                  par.races.racyVarCount())
            << label;
        ASSERT_EQ(seq.races.reports().size(),
                  par.races.reports().size())
            << label;
        for (std::size_t i = 0; i < seq.races.reports().size();
             i++) {
            EXPECT_EQ(seq.races.reports()[i].prior,
                      par.races.reports()[i].prior)
                << label << " report " << i;
            EXPECT_EQ(seq.races.reports()[i].current,
                      par.races.reports()[i].current)
                << label << " report " << i;
        }
        EXPECT_EQ(seq_work.joins, par_work.joins) << label;
        EXPECT_EQ(seq_work.copies, par_work.copies) << label;
        EXPECT_EQ(seq_work.dsWork, par_work.dsWork) << label;
        EXPECT_EQ(seq_work.vtWork, par_work.vtWork) << label;
    };

    runBoth(
        [](EventSource &s, WorkCounters &w) {
            return runSource<HbEngine, TreeClock>(s, w);
        },
        "hb/tc");
    runBoth(
        [](EventSource &s, WorkCounters &w) {
            return runSource<HbEngine, VectorClock>(s, w);
        },
        "hb/vc");
    runBoth(
        [](EventSource &s, WorkCounters &w) {
            return runSource<ShbEngine, TreeClock>(s, w);
        },
        "shb/tc");
    runBoth(
        [](EventSource &s, WorkCounters &w) {
            return runSource<ShbEngine, VectorClock>(s, w);
        },
        "shb/vc");
    runBoth(
        [](EventSource &s, WorkCounters &w) {
            return runSource<MazEngine, TreeClock>(s, w);
        },
        "maz/tc");
    runBoth(
        [](EventSource &s, WorkCounters &w) {
            return runSource<MazEngine, VectorClock>(s, w);
        },
        "maz/vc");
    removeShards(prefix, 6);
}

TEST(PartitionedMerge, RewindRestartsWorkersAndStream)
{
    const Trace trace = sampleTrace(2000, 71);
    const std::string prefix = "/tmp/tc_pmrg_rewind";
    split(trace, prefix, 4);
    auto part = openShardSetPartitioned(prefix, 2, 64);
    Event e;
    // Rewind mid-range and mid-hand-off: workers are torn down
    // with batches still queued and restarted from the range lo
    // bounds.
    for (int i = 0; i < 700; i++)
        ASSERT_TRUE(part->next(e));
    ASSERT_TRUE(part->rewind());
    expectSameEvents(trace, *part, "after rewind");
    // A second full pass (bench-style reps) must work too.
    ASSERT_TRUE(part->rewind());
    expectSameEvents(trace, *part, "second rewind");
    removeShards(prefix, 4);
}

TEST(PartitionedMerge, SeekToSequenceDeliversTheSuffix)
{
    // The checkpoint/resume seam: after seekToSequence(n) the
    // partitioned source must deliver exactly trace[n..] — the
    // worker ranges are re-split from the seek key, so a resume
    // position landing inside what used to be range 2 of 3 still
    // comes back range-exact.
    Rng rng(0x5EEC);
    const Trace trace = sampleTrace(3000, 73);
    const std::string prefix = "/tmp/tc_pmrg_seek";
    split(trace, prefix, 5);
    auto part = openShardSetPartitioned(prefix, 3, 128);
    const int rounds = 8 * test::depthScale();
    for (int round = 0; round < rounds; round++) {
        const auto n = static_cast<std::uint64_t>(
            rng.range(0, static_cast<int>(trace.size())));
        ASSERT_TRUE(part->seekToSequence(n)) << part->error();
        Event e;
        std::size_t i = static_cast<std::size_t>(n);
        while (part->next(e)) {
            ASSERT_LT(i, trace.size()) << "seek@" << n;
            ASSERT_EQ(e, trace[i]) << "seek@" << n << " event "
                                   << i;
            i++;
        }
        EXPECT_FALSE(part->failed())
            << "seek@" << n << ": " << part->error();
        EXPECT_EQ(i, trace.size()) << "seek@" << n;
    }
    // Seeking to (or past) the end is an empty, clean stream.
    ASSERT_TRUE(part->seekToSequence(trace.size()));
    Event e;
    EXPECT_FALSE(part->next(e));
    EXPECT_FALSE(part->failed()) << part->error();
    removeShards(prefix, 5);
}

TEST(PartitionedMerge, CheckpointResumeThroughPartitionedSource)
{
    // The production resume path end to end: checkpoint a full
    // (po × clock) matrix fed by the partitioned merge, then resume
    // a fresh pipeline from the newest snapshot with a *new*
    // partitioned source seeked to the snapshot position — and
    // require the straight-through sequential reports.
    const std::string dir = "/tmp/tc_pmrg_snap";
    if (DIR *d = opendir(dir.c_str())) {
        while (const dirent *entry = readdir(d)) {
            const std::string name = entry->d_name;
            if (name != "." && name != "..")
                std::remove((dir + "/" + name).c_str());
        }
        closedir(d);
    }
    rmdir(dir.c_str());
    ASSERT_EQ(mkdir(dir.c_str(), 0755), 0);

    const Trace trace = sampleTrace(3000, 79);
    const std::string prefix = "/tmp/tc_pmrg_snap_sh";
    split(trace, prefix, 4);

    auto addMatrix = [](AnalysisPipeline &pipeline) {
        for (const char *po : {"hb", "shb", "maz"})
            for (const char *clock : {"tc", "vc"})
                pipeline.add(makeAnalysisConsumer(po, clock));
    };

    AnalysisPipeline straight;
    addMatrix(straight);
    auto full = openShardSet(prefix, 128);
    const auto expected = straight.run(*full);
    ASSERT_FALSE(full->failed()) << full->error();

    CheckpointOptions options;
    options.every = 700; // never divides 3000: partial last leg
    options.dir = dir;
    options.keep = 0;

    AnalysisPipeline first;
    addMatrix(first);
    auto source = openShardSetPartitioned(prefix, 2, 128);
    first.beginAll(source->info());
    std::vector<AnalysisReport> reports;
    std::string error;
    ASSERT_TRUE(runWithCheckpoints(first, *source, 0, options,
                                   &reports, &error))
        << error;
    ASSERT_FALSE(source->failed()) << source->error();

    const auto snapshots = listSnapshots(dir, "snapshot");
    ASSERT_FALSE(snapshots.empty());
    for (const std::string &snap : snapshots) {
        AnalysisPipeline resumed;
        addMatrix(resumed);
        SnapshotMeta meta;
        ASSERT_TRUE(loadSnapshot(snap, resumed, &meta, &error))
            << snap << ": " << error;
        auto tail = openShardSetPartitioned(prefix, 3, 128);
        ASSERT_TRUE(tail->seekToSequence(meta.position))
            << tail->error();
        const auto tail_reports = resumed.drain(*tail);
        ASSERT_FALSE(tail->failed()) << tail->error();
        ASSERT_EQ(expected.size(), tail_reports.size());
        for (std::size_t i = 0; i < expected.size(); i++) {
            const std::string label =
                "resume@" + std::to_string(meta.position) + " " +
                expected[i].name;
            EXPECT_EQ(expected[i].name, tail_reports[i].name)
                << label;
            EXPECT_EQ(expected[i].result.events,
                      tail_reports[i].result.events)
                << label;
            EXPECT_EQ(expected[i].result.races.total(),
                      tail_reports[i].result.races.total())
                << label;
            EXPECT_EQ(expected[i].result.work.joins,
                      tail_reports[i].result.work.joins)
                << label;
            EXPECT_EQ(expected[i].result.work.vtWork,
                      tail_reports[i].result.work.vtWork)
                << label;
        }
        std::remove(snap.c_str());
    }
    rmdir(dir.c_str());
    removeShards(prefix, 4);
}

TEST(PartitionedMerge, OpenShardMemberRoutesMergeWorkers)
{
    const Trace trace = sampleTrace(1200, 83);
    const std::string prefix = "/tmp/tc_pmrg_member";
    split(trace, prefix, 3);
    auto member = openShardMember(shardPath(prefix, 1),
                                  kDefaultSourceWindow, 2);
    ASSERT_FALSE(member->failed()) << member->error();
    expectSameEvents(trace, *member, "via member");
    // The prefetch decorator composes: range workers decode and
    // merge, the prefetch thread moves the stitching off the
    // consuming thread.
    auto stacked = makePrefetchSource(
        openTraceFile(shardPath(prefix, 0), 128, 2), 128);
    ASSERT_FALSE(stacked->failed()) << stacked->error();
    expectSameEvents(trace, *stacked, "prefetch over partition");
    removeShards(prefix, 3);
}

TEST(PartitionedMerge, StaleMemberRejectedWithMergeWorkers)
{
    const Trace trace = sampleTrace(600, 85);
    const std::string prefix = "/tmp/tc_pmrg_stale";
    split(trace, prefix, 3);
    split(trace, prefix, 2);
    auto by_stale =
        openTraceFile(shardPath(prefix, 2), kDefaultSourceWindow, 2);
    EXPECT_TRUE(by_stale->failed());
    EXPECT_NE(by_stale->error().find("stale"), std::string::npos)
        << by_stale->error();
    removeShards(prefix, 3);
}

TEST(PartitionedMerge, MergeStrategiesDeliverIdenticalStreams)
{
    // The sequential merge's loser tree vs the linear scan it
    // replaced, including a K=64 set (deeper tournament than any
    // capture-sized test hits).
    const Trace trace = sampleTrace(5000, 23);
    const std::string prefix = "/tmp/tc_pmrg_strat";
    for (const std::uint32_t shards : {1u, 2u, 7u, 64u}) {
        split(trace, prefix, shards);
        auto tree = openShardSet(prefix, 128,
                                 MergeStrategy::LoserTree);
        auto scan = openShardSet(prefix, 128,
                                 MergeStrategy::LinearScan);
        expectSameEvents(trace, *tree,
                         "tree k=" + std::to_string(shards));
        expectSameEvents(trace, *scan,
                         "scan k=" + std::to_string(shards));
        removeShards(prefix, shards);
    }
}

TEST(PartitionedMerge, UnfinalizedCaptureRejectedAtConstruction)
{
    const Trace trace = sampleTrace(300, 89);
    const std::string prefix = "/tmp/tc_pmrg_crash";
    {
        TraceSource source(trace);
        ShardWriter writer(prefix, 3, source.info());
        Event e;
        while (source.next(e))
            writer.append(e);
        // no finalize(): the capture looks crash-interrupted
    }
    auto part = openShardSetPartitioned(prefix, 2);
    EXPECT_TRUE(part->failed());
    EXPECT_NE(part->error().find("finalized"), std::string::npos)
        << part->error();
    EXPECT_FALSE(part->rewind());
    EXPECT_FALSE(part->seekToSequence(0));
    Event e;
    EXPECT_FALSE(part->next(e));
    removeShards(prefix, 3);
}

TEST(PartitionedMerge, TruncatedShardFailsLikeSequential)
{
    // Error parity mid-stream: both merges deliver the same
    // consumed prefix, then fail with the same message and kind.
    // The worker owning the truncated stamp's range parks the
    // error; ranges before it drain clean, ranges after it are
    // never consumed.
    const Trace trace = sampleTrace(2500, 97);
    const std::string prefix = "/tmp/tc_pmrg_trunc";
    for (const std::size_t workers : {2u, 4u, 7u}) {
        split(trace, prefix, 3);
        const std::string victim = shardPath(prefix, 1);
        std::ifstream in(victim, std::ios::binary);
        std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        in.close();
        data.resize(data.size() - 9); // cut into the last record
        std::ofstream(victim, std::ios::binary) << data;

        auto sequential = openShardSet(prefix, 64);
        ASSERT_FALSE(sequential->failed()) << sequential->error();
        const std::size_t seq_n = countDelivered(*sequential);
        EXPECT_TRUE(sequential->failed());

        auto part = openShardSetPartitioned(prefix, workers, 64);
        ASSERT_FALSE(part->failed()) << part->error();
        const std::size_t par_n = countDelivered(*part);
        EXPECT_TRUE(part->failed());

        EXPECT_EQ(seq_n, par_n) << "workers=" << workers;
        EXPECT_LT(par_n, trace.size());
        EXPECT_EQ(sequential->error(), part->error())
            << "workers=" << workers;
        EXPECT_EQ(sequential->errorKind(), part->errorKind());
        removeShards(prefix, 3);
    }
}

TEST(PartitionedMerge, HeadlessShardFailsWithSequentialError)
{
    // A shard cut down to a partial *first* record defeats the
    // range-bound probe, so the partitioned source falls back to a
    // single unbounded worker — which must then reproduce the
    // sequential failure exactly: zero events, same message. (The
    // sequential merge notices at construction, the partitioned one
    // on the first delivery attempt; the contract compares what a
    // consumer observes, not when the source knew.)
    const Trace trace = sampleTrace(800, 101);
    const std::string prefix = "/tmp/tc_pmrg_headless";
    split(trace, prefix, 3);
    const std::string victim = shardPath(prefix, 2);
    std::ifstream in(victim, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    // Keep the 42-byte header (magic + 5×u32 + 2×u64 counts) plus
    // a partial first record.
    data.resize(42 + 9);
    std::ofstream(victim, std::ios::binary) << data;

    auto sequential = openShardSet(prefix, 64);
    const std::size_t seq_n = countDelivered(*sequential);
    EXPECT_TRUE(sequential->failed());

    auto part = openShardSetPartitioned(prefix, 3, 64);
    const std::size_t par_n = countDelivered(*part);
    EXPECT_TRUE(part->failed());

    EXPECT_EQ(seq_n, par_n);
    EXPECT_EQ(sequential->error(), part->error());
    EXPECT_EQ(sequential->errorKind(), part->errorKind());
    removeShards(prefix, 3);
}

TEST(PartitionedMerge, SourceFaultInjectionParity)
{
    // The TC_FAILPOINTS leg: an injected source.next EIO decorating
    // the partitioned merge cuts the stream at the same event, with
    // the same Io kind, as the same failpoint over the sequential
    // merge — fault tooling composes with the partition without
    // renumbering anything.
    const Trace trace = sampleTrace(900, 103);
    const std::string prefix = "/tmp/tc_pmrg_fault";
    split(trace, prefix, 4);
    auto faultedRun = [&](std::unique_ptr<EventSource> inner) {
        FailpointRegistry::instance().reset();
        std::string error;
        EXPECT_TRUE(FailpointRegistry::instance().arm(
            "source.next=eio@321", 0, &error))
            << error;
        auto source = makeFaultInjectingSource(std::move(inner));
        const std::size_t n = countDelivered(*source);
        EXPECT_TRUE(source->failed());
        EXPECT_EQ(source->errorKind(), SourceErrorKind::Io);
        FailpointRegistry::instance().reset();
        return n;
    };
    const std::size_t seq_n = faultedRun(openShardSet(prefix, 64));
    const std::size_t par_n =
        faultedRun(openShardSetPartitioned(prefix, 3, 64));
    EXPECT_EQ(seq_n, 320u);
    EXPECT_EQ(seq_n, par_n);
    removeShards(prefix, 4);
}

} // namespace
} // namespace tc
