/**
 * @file
 * TimestampIndex tests: Lemma-1 pair queries must agree with the
 * graph-closure oracle on every partial order, for crafted and
 * random traces.
 */

#include <gtest/gtest.h>

#include "analysis/timestamp_index.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

using test::SweepCase;

TEST(TimestampIndex, BasicOrderingQueries)
{
    Trace t;
    t.write(0, 0);   // 0
    t.acquire(0, 0); // 1
    t.release(0, 0); // 2
    t.acquire(1, 0); // 3
    t.read(1, 0);    // 4
    t.release(1, 0); // 5
    const TimestampIndex idx(t, PartialOrderKind::HB);
    EXPECT_EQ(idx.events(), 6u);
    EXPECT_TRUE(idx.ordered(0, 4));  // via the lock hand-off
    EXPECT_TRUE(idx.ordered(2, 3));
    EXPECT_FALSE(idx.ordered(4, 0));
    EXPECT_TRUE(idx.ordered(3, 3)); // reflexive
    EXPECT_TRUE(idx.unorderedConflictingPairs(10).empty());
}

TEST(TimestampIndex, DetectsConcurrentConflicts)
{
    Trace t;
    t.write(0, 0);
    t.write(1, 0);
    const TimestampIndex idx(t, PartialOrderKind::HB);
    EXPECT_TRUE(idx.concurrent(0, 1));
    const auto pairs = idx.unorderedConflictingPairs(10);
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0], (std::pair<std::size_t, std::size_t>{0, 1}));
}

TEST(TimestampIndex, DeclaredThreadsBeyondTheEventsStayInTheWidth)
{
    // Four declared threads, two events: every timestamp stays four
    // entries wide, on every partial order (MAZ orders the writes).
    Trace t(4, 0, 1);
    t.write(0, 0);
    t.write(1, 0);
    const std::vector<Clk> first{1, 0, 0, 0};
    EXPECT_EQ((test::collectTimestamps<HbEngine, TreeClock>(t)[0]), first);
    EXPECT_EQ((test::collectTimestamps<ShbEngine, TreeClock>(t)[0]),
              first);
    EXPECT_EQ((test::collectTimestamps<MazEngine, TreeClock>(t)[0]),
              first);
    for (const auto kind : {PartialOrderKind::HB, PartialOrderKind::SHB,
                            PartialOrderKind::MAZ}) {
        const TimestampIndex idx(t, kind);
        const Clk seen = kind == PartialOrderKind::MAZ ? 1 : 0;
        EXPECT_EQ(idx.timestampOf(0), first);
        EXPECT_EQ(idx.timestampOf(1),
                  (std::vector<Clk>{seen, 1, 0, 0}));
    }
}

TEST(TimestampIndex, KindsDiffer)
{
    Trace t;
    t.write(0, 0);
    t.read(1, 0);
    const TimestampIndex hb(t, PartialOrderKind::HB);
    const TimestampIndex shb(t, PartialOrderKind::SHB);
    EXPECT_FALSE(hb.ordered(0, 1));
    EXPECT_TRUE(shb.ordered(0, 1)); // lw(r) -> r
}

TEST(TimestampIndex, TimestampMatchesComponentAccessor)
{
    Trace t;
    t.write(0, 0);
    t.sync(0, 0);
    t.sync(1, 0);
    const TimestampIndex idx(t, PartialOrderKind::HB);
    const auto ts = idx.timestampOf(3);
    for (Tid u = 0; u < t.numThreads(); u++)
        EXPECT_EQ(ts[static_cast<std::size_t>(u)],
                  idx.component(3, u));
}

class TimestampIndexSweep
    : public ::testing::TestWithParam<SweepCase>
{
  protected:
    Trace trace_ = generateRandomTrace(smaller(GetParam().params));

    static RandomTraceParams
    smaller(RandomTraceParams p)
    {
        p.events = std::min<std::uint64_t>(p.events, 600);
        return p;
    }
};

TEST_P(TimestampIndexSweep, AgreesWithOracleOnAllKinds)
{
    for (const auto kind :
         {PartialOrderKind::HB, PartialOrderKind::SHB,
          PartialOrderKind::MAZ}) {
        const TimestampIndex idx(trace_, kind);
        const PoOracle oracle(trace_, kind);
        // Exhaustive pair check on these small traces.
        for (std::size_t i = 0; i < trace_.size(); i += 3) {
            for (std::size_t j = 0; j < trace_.size(); j += 3) {
                ASSERT_EQ(idx.ordered(i, j), oracle.ordered(i, j))
                    << partialOrderName(kind) << " pair " << i
                    << "," << j;
            }
        }
    }
}

TEST_P(TimestampIndexSweep, UnorderedPairsMatchOracle)
{
    const TimestampIndex idx(trace_, PartialOrderKind::HB);
    const PoOracle oracle(trace_, PartialOrderKind::HB);
    EXPECT_EQ(idx.unorderedConflictingPairs(100000),
              oracle.unorderedConflictingPairs(100000));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TimestampIndexSweep,
    ::testing::ValuesIn(test::standardSweep()),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        return info.param.label;
    });

} // namespace
} // namespace tc
