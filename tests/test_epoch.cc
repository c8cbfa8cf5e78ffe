/**
 * @file
 * Epoch and access-history unit tests (the FastTrack-style machinery
 * of the analysis phase).
 */

#include <gtest/gtest.h>

#include "analysis/access_history.hh"
#include "core/serial.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"

namespace tc {
namespace {

TEST(Epoch, NoneIsCoveredByEverything)
{
    const Epoch none;
    EXPECT_TRUE(none.isNone());
    VectorClock c(0, 2);
    EXPECT_TRUE(none.coveredBy(c));
    EXPECT_EQ(none.toString(), "_");
}

TEST(Epoch, CoveredByChecksEntry)
{
    VectorClock c(0, 3);
    c.increment(5);
    EXPECT_TRUE(Epoch(0, 5).coveredBy(c));
    EXPECT_TRUE(Epoch(0, 3).coveredBy(c));
    EXPECT_FALSE(Epoch(0, 6).coveredBy(c));
    EXPECT_FALSE(Epoch(1, 1).coveredBy(c));
    EXPECT_EQ(Epoch(0, 5).toString(), "5@t0");
}

TEST(Epoch, WorksWithTreeClocksToo)
{
    TreeClock a(0, 3), b(1, 3);
    a.increment(2);
    b.increment(1);
    b.join(a);
    EXPECT_TRUE(Epoch(0, 2).coveredBy(b));
    EXPECT_FALSE(Epoch(0, 3).coveredBy(b));
}

TEST(AccessHistory, ExclusiveReadEpochWhileOrdered)
{
    AccessHistory h;
    SharedReadStore store;
    TreeClock c0(0, 4), c1(1, 4);
    c0.increment(1);
    h.recordRead(0, 1, c0, 4, store);
    EXPECT_FALSE(h.sharedReads());

    // t1 has seen t0's read: stays exclusive, epoch transfers.
    c1.increment(1);
    c1.join(c0);
    c1.increment(1);
    h.recordRead(1, 3, c1, 4, store);
    EXPECT_FALSE(h.sharedReads());
}

TEST(AccessHistory, PromotesToSharedOnConcurrentReads)
{
    AccessHistory h;
    SharedReadStore store;
    TreeClock c0(0, 4), c1(1, 4);
    c0.increment(1);
    c1.increment(1);
    h.recordRead(0, 1, c0, 4, store);
    h.recordRead(1, 1, c1, 4, store); // concurrent with t0's read
    EXPECT_TRUE(h.sharedReads());

    // Both reads must now be visible to the write check.
    TreeClock writer(2, 4);
    writer.increment(1);
    int uncovered = 0;
    h.forEachUncoveredRead(writer, store, [&](Epoch) { uncovered++; });
    EXPECT_EQ(uncovered, 2);
}

TEST(AccessHistory, SameThreadReReadStaysExclusive)
{
    AccessHistory h;
    SharedReadStore store;
    TreeClock c0(0, 2);
    c0.increment(1);
    h.recordRead(0, 1, c0, 2, store);
    c0.increment(1);
    h.recordRead(0, 2, c0, 2, store);
    EXPECT_FALSE(h.sharedReads());
}

TEST(AccessHistory, ClearReadsResets)
{
    AccessHistory h;
    SharedReadStore store;
    TreeClock c0(0, 4), c1(1, 4);
    c0.increment(1);
    c1.increment(1);
    h.recordRead(0, 1, c0, 4, store);
    h.recordRead(1, 1, c1, 4, store);
    EXPECT_TRUE(h.sharedReads());
    h.clearReads(store);
    EXPECT_FALSE(h.sharedReads());
    TreeClock writer(2, 4);
    writer.increment(1);
    int uncovered = 0;
    h.forEachUncoveredRead(writer, store, [&](Epoch) { uncovered++; });
    EXPECT_EQ(uncovered, 0);
}

TEST(AccessHistory, LastWriteEpochStored)
{
    AccessHistory h;
    EXPECT_TRUE(h.lastWrite().isNone());
    h.setLastWrite(Epoch(3, 7));
    EXPECT_EQ(h.lastWrite(), Epoch(3, 7));
}

// A history is two epochs; shared read vectors live in the store.
static_assert(sizeof(AccessHistory) == 16);

TEST(AccessHistory, ClearedSharedReadsAreReusedByTheNextPromotion)
{
    SharedReadStore store;
    AccessHistory a, b;
    TreeClock c0(0, 4), c1(1, 4);
    c0.increment(1);
    c1.increment(1);
    a.recordRead(0, 1, c0, 4, store);
    a.recordRead(1, 1, c1, 4, store);
    ASSERT_TRUE(a.sharedReads());
    EXPECT_EQ(store.capacity(), 1u);

    a.clearReads(store);
    EXPECT_FALSE(a.sharedReads());
    b.recordRead(0, 1, c0, 4, store);
    b.recordRead(1, 1, c1, 4, store);
    ASSERT_TRUE(b.sharedReads());
    EXPECT_EQ(store.capacity(), 1u); // the released slot, reused

    // The reused vector starts clean: only b's two reads show.
    TreeClock writer(2, 4);
    writer.increment(1);
    std::vector<Epoch> uncovered;
    b.forEachUncoveredRead(writer, store,
                           [&](Epoch e) { uncovered.push_back(e); });
    EXPECT_EQ(uncovered,
              (std::vector<Epoch>{Epoch(0, 1), Epoch(1, 1)}));
}

TEST(AccessHistory, SharedSerializationKeepsTheCheckpointLayout)
{
    SharedReadStore store;
    AccessHistory h;
    TreeClock c0(0, 3), c1(1, 3), c2(2, 3);
    c0.increment(2);
    c1.increment(1);
    c2.increment(1);
    h.setLastWrite(Epoch(2, 1));
    h.recordRead(0, 2, c0, 3, store);
    h.recordRead(1, 1, c1, 3, store); // promotes t0's 2@t0
    c0.increment(1);
    h.recordRead(0, 3, c0, 3, store); // past the promoted epoch
    ASSERT_TRUE(h.sharedReads());

    // Last write, the (stale) promoted read epoch, the shared flag,
    // then the per-thread read vector.
    ByteSink expected;
    expected.putI32(2);
    expected.putU32(1);
    expected.putI32(0);
    expected.putU32(2);
    expected.putU8(1);
    expected.putVec(std::vector<Clk>{3, 1, 0});
    ByteSink out;
    h.serialize(out, store);
    EXPECT_EQ(out.bytes(), expected.bytes());

    // ... and it restores into a fresh store.
    SharedReadStore other;
    AccessHistory back;
    ByteSource in(out.bytes());
    ASSERT_TRUE(back.deserialize(in, other));
    EXPECT_TRUE(back.sharedReads());
    ByteSink again;
    back.serialize(again, other);
    EXPECT_EQ(again.bytes(), expected.bytes());
}

TEST(FlatAccessHistory, TracksPerThreadAccesses)
{
    FlatAccessHistory h(4);
    h.recordWrite(0, 2);
    h.recordWrite(1, 3);
    h.recordRead(2, 1);

    TreeClock c3(3, 4);
    c3.increment(1);
    int writes = 0, reads = 0;
    h.forEachUncoveredWrite(c3, [&](Epoch) { writes++; });
    h.forEachUncoveredRead(c3, [&](Epoch) { reads++; });
    EXPECT_EQ(writes, 2);
    EXPECT_EQ(reads, 1);

    // Once c3 has seen everything, nothing is uncovered.
    TreeClock c0(0, 4), c1(1, 4), c2(2, 4);
    c0.increment(2);
    c1.increment(3);
    c2.increment(1);
    c3.join(c0);
    c3.join(c1);
    c3.join(c2);
    writes = reads = 0;
    h.forEachUncoveredWrite(c3, [&](Epoch) { writes++; });
    h.forEachUncoveredRead(c3, [&](Epoch) { reads++; });
    EXPECT_EQ(writes, 0);
    EXPECT_EQ(reads, 0);
}

} // namespace
} // namespace tc
