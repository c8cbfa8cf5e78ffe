/**
 * @file
 * TreeClock storage: all six per-node fields live in one block, and
 * these tests pin what the layout must preserve. Growth keeps every
 * node's fields. deepCopy works between clocks of different widths,
 * and slots past the operand's width read as absent. Copies and
 * moves own their storage. resetToRoot() clears every segment.
 * serialize() still writes the six length-prefixed arrays of the
 * snapshot format. Widths of 512 and up pad the segment stride, so
 * each of these also runs on such a clock.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/serial.hh"
#include "core/tree_clock.hh"

namespace tc {
namespace {

/** One node's observable fields. */
struct NodeView
{
    bool present;
    Clk clk;
    Clk aclk;
    Tid parent;
    std::vector<Tid> children;

    bool operator==(const NodeView &) const = default;
};

NodeView
viewOf(const TreeClock &c, Tid t)
{
    return {c.hasThread(t), c.get(t), c.aclkOf(t), c.parentOf(t),
            c.childrenOf(t)};
}

/** Every node of @p c for tids [0, @p k). */
std::vector<NodeView>
shapeOf(const TreeClock &c, Tid k)
{
    std::vector<NodeView> out;
    for (Tid t = 0; t < k; t++)
        out.push_back(viewOf(c, t));
    return out;
}

/** A k-wide thread clock for root 0 that has learned threads
 * 1..k-1 through a chain of joins, so the tree has depth. */
TreeClock
chainClock(Tid k)
{
    std::vector<TreeClock> threads;
    for (Tid t = 0; t < k; t++) {
        threads.emplace_back(t, static_cast<std::size_t>(k));
        threads.back().increment(static_cast<Clk>(t) + 2);
    }
    for (Tid t = k - 1; t > 0; t--) {
        threads[static_cast<std::size_t>(t) - 1].join(
            threads[static_cast<std::size_t>(t)]);
        threads[static_cast<std::size_t>(t) - 1].increment(1);
    }
    return threads[0];
}

TEST(TreeClockStorage, GrowthPreservesEveryNode)
{
    TreeClock c = chainClock(4);
    ASSERT_EQ(c.size(), 4u);
    ASSERT_EQ(c.nodeCount(), 4u);
    const std::vector<NodeView> before = shapeOf(c, 4);

    // Joining a wider clock grows the block to the operand's
    // width; each step adds one node under the root.
    std::vector<Tid> added;
    for (const Tid width : {5, 17, 300, 1024}) {
        TreeClock wide(width - 1, static_cast<std::size_t>(width));
        wide.increment(7);
        c.increment(1);
        c.join(wide);
        added.insert(added.begin(), width - 1);
        ASSERT_EQ(c.size(), static_cast<std::size_t>(width));
        ASSERT_EQ(c.checkInvariants(), "") << width;
    }

    std::vector<NodeView> after = shapeOf(c, 4);
    // Only the root moved: its time, and the new nodes pushed at
    // the front of its child list.
    EXPECT_EQ(after[0].clk, before[0].clk + added.size());
    std::vector<Tid> kids = added;
    kids.insert(kids.end(), before[0].children.begin(),
                before[0].children.end());
    EXPECT_EQ(after[0].children, kids);
    after[0] = before[0];
    EXPECT_EQ(after, before);
    for (Tid t = 4; t < 1024; t++) {
        const bool joined =
            std::find(added.begin(), added.end(), t) != added.end();
        if (joined) {
            EXPECT_EQ(c.get(t), 7u);
            EXPECT_EQ(c.parentOf(t), 0);
        } else {
            ASSERT_EQ(viewOf(c, t),
                      (NodeView{false, 0, 0, kNoTid, {}}))
                << t;
        }
    }
}

TEST(TreeClockStorage, DeepCopyAcrossWidths)
{
    const TreeClock narrow = chainClock(8);

    // Narrow into wide: the target keeps its width, the operand's
    // nodes land intact and every slot past them reads absent.
    for (const Tid k : {300, 640}) {
        TreeClock wide = chainClock(k);
        wide.deepCopy(narrow);
        EXPECT_EQ(wide.size(), static_cast<std::size_t>(k));
        EXPECT_EQ(wide.rootTid(), narrow.rootTid());
        EXPECT_EQ(shapeOf(wide, 8), shapeOf(narrow, 8));
        for (Tid t = 8; t < k; t++) {
            ASSERT_EQ(viewOf(wide, t),
                      (NodeView{false, 0, 0, kNoTid, {}}))
                << t;
        }
        EXPECT_EQ(wide.nodeCount(), 8u);
        EXPECT_EQ(wide.checkInvariants(), "");
    }

    // Wide into narrow: the target takes the operand's width (and
    // a padded stride, then wide into padded).
    const TreeClock source = chainClock(300);
    TreeClock small = chainClock(8);
    small.deepCopy(source);
    EXPECT_EQ(small.size(), 300u);
    EXPECT_EQ(shapeOf(small, 300), shapeOf(source, 300));
    EXPECT_EQ(small.checkInvariants(), "");
    const TreeClock padded = chainClock(640);
    small.deepCopy(padded);
    EXPECT_EQ(small.size(), 640u);
    EXPECT_EQ(shapeOf(small, 640), shapeOf(padded, 640));
    small.deepCopy(source);
    EXPECT_EQ(small.size(), 640u);
    EXPECT_EQ(shapeOf(small, 300), shapeOf(source, 300));
    EXPECT_EQ(small.nodeCount(), 300u);
    EXPECT_EQ(small.checkInvariants(), "");
    TreeClock wider(0, 1024);
    wider.deepCopy(padded);
    EXPECT_EQ(wider.size(), 1024u);
    EXPECT_EQ(shapeOf(wider, 640), shapeOf(padded, 640));
    EXPECT_EQ(wider.nodeCount(), 640u);
    EXPECT_EQ(wider.checkInvariants(), "");

    // Equal widths, and into an empty auxiliary clock.
    TreeClock same = chainClock(300);
    same.increment(5);
    same.deepCopy(source);
    EXPECT_EQ(shapeOf(same, 300), shapeOf(source, 300));
    TreeClock aux;
    aux.deepCopy(narrow);
    EXPECT_EQ(aux.size(), 8u);
    EXPECT_EQ(shapeOf(aux, 8), shapeOf(narrow, 8));
}

TEST(TreeClockStorage, CopiesAndMovesAreIndependent)
{
    TreeClock a = chainClock(6);
    const std::vector<NodeView> original = shapeOf(a, 6);

    TreeClock copy = a;
    copy.increment(4);
    TreeClock later(5, 6);
    later.increment(50);
    copy.join(later);
    EXPECT_EQ(shapeOf(a, 6), original);
    EXPECT_NE(shapeOf(copy, 6), original);

    TreeClock assigned(2, 3);
    assigned = a;
    assigned.increment(1);
    EXPECT_EQ(shapeOf(a, 6), original);

    const std::vector<NodeView> copied = shapeOf(copy, 6);
    TreeClock moved = std::move(copy);
    EXPECT_EQ(shapeOf(moved, 6), copied);
    // The width leaves with the block: the source reads as empty.
    EXPECT_EQ(copy.size(), 0u); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy.get(0), 0u);

    TreeClock target = chainClock(3);
    target = std::move(moved);
    EXPECT_EQ(shapeOf(target, 6), copied);
    target.increment(9);
    EXPECT_EQ(shapeOf(a, 6), original);
    EXPECT_EQ(target.checkInvariants(), "");

    // A moved-from clock can be overwritten by a copy.
    moved.deepCopy(a);
    EXPECT_EQ(shapeOf(moved, 6), original);
    EXPECT_EQ(moved.checkInvariants(), "");
}

TEST(TreeClockStorage, ResetToRootClearsEverySegment)
{
    TreeClock c = chainClock(12);
    const std::size_t width = c.size();
    c.resetToRoot(5, 40);
    EXPECT_EQ(c.size(), width);
    EXPECT_EQ(c.rootTid(), 5);
    EXPECT_EQ(c.localClk(), 40u);
    EXPECT_EQ(viewOf(c, 5), (NodeView{true, 40, 0, kNoTid, {}}));
    for (Tid t = 0; t < 12; t++) {
        if (t != 5) {
            ASSERT_EQ(viewOf(c, t),
                      (NodeView{false, 0, 0, kNoTid, {}}))
                << t;
        }
    }
    EXPECT_EQ(c.nodeCount(), 1u);
    EXPECT_EQ(c.checkInvariants(), "");

    // A slot past the old width grows the block.
    c.resetToRoot(20, 0);
    EXPECT_EQ(c.size(), 21u);
    EXPECT_EQ(c.nodeCount(), 1u);
    EXPECT_EQ(c.checkInvariants(), "");
}

TEST(TreeClockStorage, SerializeWritesSixLengthPrefixedArrays)
{
    // Root 0 at time 3 with child 2 (time 5, attached at 1); slot 1
    // never present.
    TreeClock root(0, 3);
    root.increment(1);
    TreeClock other(2, 3);
    other.increment(5);
    root.join(other);
    root.increment(2);
    ASSERT_EQ(root.checkInvariants(), "");

    // Link fields are int32 on the wire: kNoTid (-1) and the
    // never-present parent sentinel (-2).
    const auto none = static_cast<std::uint32_t>(kNoTid);
    const auto absent = static_cast<std::uint32_t>(-2);
    const std::vector<std::vector<std::uint32_t>> arrays = {
        {3, 0, 5},             // clk
        {0, 0, 1},             // aclk
        {none, absent, 0},     // parent
        {2, none, none},       // firstChild
        {none, none, none},    // nextSib
        {none, none, none},    // prevSib
    };
    ByteSink expected;
    expected.putI32(0);  // root
    expected.putU64(0);  // fallback copies
    for (const auto &a : arrays)
        expected.putVec(a);

    ByteSink actual;
    root.serialize(actual);
    EXPECT_EQ(actual.bytes(), expected.bytes());

    ByteSource in(actual.bytes());
    TreeClock restored;
    ASSERT_TRUE(restored.deserialize(in));
    EXPECT_EQ(shapeOf(restored, 3), shapeOf(root, 3));
    EXPECT_EQ(restored.size(), 3u);

    // A padded clock still writes k words per array, the clk array
    // first, and reads back into the same shape.
    const TreeClock wide = chainClock(640);
    ByteSink wire;
    wide.serialize(wire);
    const std::size_t array_bytes = 8 + 640 * sizeof(Clk);
    ASSERT_EQ(wire.bytes().size(), 4 + 8 + 6 * array_bytes);
    std::vector<Clk> clk(640);
    for (Tid t = 0; t < 640; t++)
        clk[static_cast<std::size_t>(t)] = wide.get(t);
    ByteSink clk_array;
    clk_array.putVec(clk);
    EXPECT_TRUE(std::equal(clk_array.bytes().begin(),
                           clk_array.bytes().end(),
                           wire.bytes().begin() + 12));
    ByteSource wide_in(wire.bytes());
    TreeClock wide_back(3, 2000);
    ASSERT_TRUE(wide_back.deserialize(wide_in));
    EXPECT_EQ(wide_back.size(), 640u);
    EXPECT_EQ(shapeOf(wide_back, 640), shapeOf(wide, 640));
    ByteSink again;
    wide_back.serialize(again);
    EXPECT_EQ(again.bytes(), wire.bytes());
}

} // namespace
} // namespace tc
