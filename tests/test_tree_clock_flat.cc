/**
 * @file
 * FlatTreeClock (flat_tree_clock.hh): per-variable clocks that keep
 * a tree clock's root and clk segment only.
 *
 *  - Randomized SHB/MAZ-discipline op sequences with flat clocks as
 *    copy targets and join operands agree with a vector-clock
 *    replay on every entry after every op, keep every thread and
 *    lock clock structurally valid, and do the same vtWork.
 *  - The dsWork charge of each flat path: a walk copy costs the
 *    nodes examined plus the entries written, a copy that reaches
 *    the ⌈k/8⌉ limit the nodes examined plus k, a join from a flat
 *    operand 1 + k.
 *  - A join from a flat clock equals Algorithm 2's join over the
 *    star it stands for, and the star is what serialize() writes;
 *    any tree blob restores into a flat clock with identical times.
 *  - SHB and MAZ engine runs pass with deepChecks on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include "core/flat_tree_clock.hh"
#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "support/rng.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

using Policy = TreeClock::JoinPolicy;

/**
 * One simulated execution, run on tree clocks and on vector clocks
 * side by side: thread and lock clocks are TreeClocks, the
 * per-variable clocks LW_x and R_{t,x} FlatTreeClocks. Every op
 * takes a fresh local time first, as the engines do.
 */
struct FlatSim
{
    Tid threads;
    std::size_t vars;
    WorkCounters tcWork, vcWork;
    std::vector<TreeClock> tcThreads, tcLocks;
    std::vector<FlatTreeClock> tcLw, tcReads;
    std::vector<VectorClock> vcThreads, vcLocks, vcLw, vcReads;
    /** LRDs_x of Algorithm 5 (readers since the last write). */
    std::vector<std::vector<Tid>> lrds;

    FlatSim(Tid num_threads, std::size_t num_locks,
            std::size_t num_vars, Policy policy)
        : threads(num_threads), vars(num_vars),
          lrds(num_vars)
    {
        const auto k = static_cast<std::size_t>(num_threads);
        for (Tid t = 0; t < num_threads; t++) {
            tcThreads.emplace_back(t, k);
            vcThreads.emplace_back(t, k);
        }
        tcLocks.resize(num_locks);
        vcLocks.resize(num_locks);
        tcLw.resize(num_vars);
        vcLw.resize(num_vars);
        tcReads.resize(num_vars * k);
        vcReads.resize(num_vars * k);
        auto wire = [&](auto &group) {
            for (auto &c : group) {
                c.setCounters(&tcWork);
                c.setPolicy(policy);
            }
        };
        wire(tcThreads);
        wire(tcLocks);
        wire(tcLw);
        wire(tcReads);
        for (auto *group : {&vcThreads, &vcLocks, &vcLw, &vcReads})
            for (VectorClock &c : *group)
                c.setCounters(&vcWork);
    }

    std::size_t
    readSlot(std::size_t x, Tid t) const
    {
        return x * static_cast<std::size_t>(threads) +
               static_cast<std::size_t>(t);
    }

    void
    tick(std::size_t t)
    {
        tcThreads[t].increment(1);
        vcThreads[t].increment(1);
    }

    void
    sync(std::size_t t, std::size_t l)
    {
        tick(t);
        tcThreads[t].join(tcLocks[l]);
        vcThreads[t].join(vcLocks[l]);
        tick(t);
        tcLocks[l].monotoneCopy(tcThreads[t]);
        vcLocks[l].monotoneCopy(vcThreads[t]);
    }

    void
    forkJoin(std::size_t t, std::size_t u)
    {
        tick(t);
        tcThreads[t].join(tcThreads[u]);
        vcThreads[t].join(vcThreads[u]);
    }

    /** Algorithm 4: a read joins LW_x, a write copies into it
     * (CopyCheckMonotone; deep when the write races). */
    void
    shbRead(std::size_t t, std::size_t x)
    {
        tick(t);
        tcThreads[t].join(tcLw[x]);
        vcThreads[t].join(vcLw[x]);
    }

    void
    shbWrite(std::size_t t, std::size_t x)
    {
        tick(t);
        // The flat clock's O(1) root test must answer exactly what
        // the Θ(k) pointwise comparison does.
        const bool monotone = vcLw[x].lessThanOrEqual(vcThreads[t]);
        EXPECT_EQ(tcLw[x].copyCheckMonotone(tcThreads[t]), monotone);
        vcLw[x].copyCheckMonotone(vcThreads[t]);
    }

    /** Algorithm 5: reads join LW_x and refresh R_{t,x}; writes
     * join LW_x and every R_{t',x} of LRDs_x, then copy. */
    void
    mazRead(std::size_t t, std::size_t x)
    {
        tick(t);
        tcThreads[t].join(tcLw[x]);
        vcThreads[t].join(vcLw[x]);
        const std::size_t r = readSlot(x, static_cast<Tid>(t));
        tcReads[r].monotoneCopy(tcThreads[t]);
        vcReads[r].monotoneCopy(vcThreads[t]);
        if (std::find(lrds[x].begin(), lrds[x].end(),
                      static_cast<Tid>(t)) == lrds[x].end())
            lrds[x].push_back(static_cast<Tid>(t));
    }

    void
    mazWrite(std::size_t t, std::size_t x)
    {
        tick(t);
        tcThreads[t].join(tcLw[x]);
        vcThreads[t].join(vcLw[x]);
        for (Tid reader : lrds[x]) {
            const std::size_t r = readSlot(x, reader);
            tcThreads[t].join(tcReads[r]);
            vcThreads[t].join(vcReads[r]);
        }
        tcLw[x].monotoneCopy(tcThreads[t]);
        vcLw[x].monotoneCopy(vcThreads[t]);
        lrds[x].clear();
    }

    /** Every clock agrees with its VC twin on every tid; every
     * thread and lock clock passes checkInvariants(). */
    void
    check(int step)
    {
        auto same = [&](const auto &tcs,
                        const std::vector<VectorClock> &vcs,
                        const char *what) {
            for (std::size_t i = 0; i < tcs.size(); i++) {
                for (Tid t = 0; t < threads + 1; t++)
                    ASSERT_EQ(tcs[i].get(t), vcs[i].get(t))
                        << what << " " << i << " tid " << t
                        << " step " << step;
                if constexpr (std::is_same_v<decltype(tcs[i]),
                                             const TreeClock &>) {
                    ASSERT_EQ(tcs[i].checkInvariants(), "")
                        << what << " " << i << " step " << step
                        << "\n"
                        << tcs[i].toString();
                }
            }
        };
        same(tcThreads, vcThreads, "thread");
        same(tcLocks, vcLocks, "lock");
        same(tcLw, vcLw, "LW");
        same(tcReads, vcReads, "R");
    }
};

struct FlatCase
{
    std::string label;
    Tid threads;
    Policy policy;
    bool maz;
};

class FlatDifferential : public ::testing::TestWithParam<FlatCase>
{
};

TEST_P(FlatDifferential, AgreesWithVectorClockAfterEveryOp)
{
    const FlatCase &c = GetParam();
    const int rounds = 3 * test::depthScale();
    for (int round = 0; round < rounds; round++) {
        Rng rng(0xf1a7 + static_cast<std::uint64_t>(round) * 977 +
                static_cast<std::uint64_t>(c.threads));
        FlatSim sim(c.threads, 3, 6, c.policy);
        const auto k = static_cast<std::uint64_t>(c.threads);
        for (int step = 0; step < 600; step++) {
            const auto t = static_cast<std::size_t>(rng.below(k));
            const auto u = static_cast<std::size_t>(rng.below(k));
            const auto x =
                static_cast<std::size_t>(rng.below(sim.vars));
            switch (rng.below(6)) {
              case 0:
                sim.tick(t);
                break;
              case 1:
                sim.sync(t, static_cast<std::size_t>(rng.below(3)));
                break;
              case 2:
                if (t != u)
                    sim.forkJoin(t, u);
                break;
              case 3:
              case 4:
                if (c.maz)
                    sim.mazRead(t, x);
                else
                    sim.shbRead(t, x);
                break;
              default:
                if (c.maz)
                    sim.mazWrite(t, x);
                else
                    sim.shbWrite(t, x);
                break;
            }
            sim.check(step);
            if (HasFatalFailure())
                return;
        }
        // Entries changed is a property of the vector times alone.
        EXPECT_EQ(sim.tcWork.vtWork, sim.vcWork.vtWork);
        EXPECT_EQ(sim.tcWork.joins, sim.vcWork.joins);
        EXPECT_EQ(sim.tcWork.copies, sim.vcWork.copies);
        EXPECT_EQ(sim.tcWork.fallbackCopies, 0u);
    }
}

std::vector<FlatCase>
flatCases()
{
    std::vector<FlatCase> out;
    for (const bool maz : {false, true}) {
        // 5 threads: limit 1, every progressed copy is a block
        // copy; 24 threads: limit 3, both copy paths.
        for (const Tid k : {5, 24}) {
            const std::string po = maz ? "maz" : "shb";
            const std::string width = std::to_string(k) + "t";
            out.push_back({po + "_full_" + width, k, Policy::Full, maz});
            out.push_back(
                {po + "_noindirect_" + width, k, Policy::NoIndirect,
                 maz});
            out.push_back(
                {po + "_nopruning_" + width, k, Policy::NoPruning,
                 maz});
        }
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FlatDifferential, ::testing::ValuesIn(flatCases()),
    [](const ::testing::TestParamInfo<FlatCase> &info) {
        return info.param.label;
    });

// ---------------------------------------------------------------
// Work charges. k = 16, so a copy walk stops at ⌈16/8⌉ = 2
// progressed nodes.
// ---------------------------------------------------------------

constexpr Tid kWide = 16;

struct Charges
{
    std::uint64_t ds, vt;
};

struct ChargeSim
{
    WorkCounters work;
    std::vector<TreeClock> threads;
    FlatTreeClock var;

    ChargeSim()
    {
        for (Tid t = 0; t < kWide; t++) {
            threads.emplace_back(t, static_cast<std::size_t>(kWide));
            threads.back().setCounters(&work);
        }
        var.setCounters(&work);
    }

    TreeClock &th(Tid t) { return threads[static_cast<std::size_t>(t)]; }

    /** t learns u's next local time. */
    void
    learn(Tid t, Tid u)
    {
        th(u).increment(1);
        th(t).increment(1);
        th(t).join(th(u));
    }

    template <typename Op>
    Charges
    charge(Op op)
    {
        const WorkCounters before = work;
        op();
        return {work.dsWork - before.dsWork,
                work.vtWork - before.vtWork};
    }
};

TEST(FlatCharges, FirstCopyWritesTheClkSegment)
{
    ChargeSim sim;
    sim.learn(0, 1);
    const Charges c = sim.charge([&] { sim.var.monotoneCopy(sim.th(0)); });
    EXPECT_EQ(c.ds, static_cast<std::uint64_t>(kWide));
    EXPECT_EQ(c.vt, 2u);
    // One word per slot: the resident gauge counts k words, not 6k.
    EXPECT_EQ(sim.var.size(), static_cast<std::size_t>(kWide));
}

TEST(FlatCharges, WalkCopyChargesExaminedPlusWritten)
{
    ChargeSim sim;
    sim.learn(0, 2);
    sim.var.monotoneCopy(sim.th(0));
    // Thread 0's tree: 0 → [1, 2]; 1 is fresh, 2 is not and was
    // attached before the copy above, so the scan stops there.
    sim.learn(0, 1);
    ASSERT_EQ(sim.th(0).childrenOf(0), (std::vector<Tid>{1, 2}));
    const Charges c = sim.charge([&] { sim.var.monotoneCopy(sim.th(0)); });
    // Examined: children 1 and 2; written: 0 and 1.
    EXPECT_EQ(c.ds, 2u + 2u);
    EXPECT_EQ(c.vt, 2u);
    EXPECT_EQ(sim.var.rootTid(), 0);
    for (Tid t = 0; t < kWide; t++)
        EXPECT_EQ(sim.var.get(t), sim.th(0).get(t)) << t;
}

TEST(FlatCharges, LimitCopyChargesExaminedPlusK)
{
    ChargeSim sim;
    sim.var.monotoneCopy(sim.th(0));
    sim.learn(0, 1);
    sim.learn(0, 2);
    sim.learn(0, 3);
    // Three progressed children: the walk stops at the second.
    const Charges c = sim.charge([&] { sim.var.monotoneCopy(sim.th(0)); });
    EXPECT_EQ(c.ds, 2u + static_cast<std::uint64_t>(kWide));
    EXPECT_EQ(c.vt, 4u);
    for (Tid t = 0; t < kWide; t++)
        EXPECT_EQ(sim.var.get(t), sim.th(0).get(t)) << t;
}

TEST(FlatCharges, JoinFromFlatChargesOnePlusK)
{
    ChargeSim sim;
    sim.learn(0, 1);
    sim.learn(0, 2);
    sim.var.monotoneCopy(sim.th(0));
    sim.th(5).increment(1);
    const Charges c = sim.charge([&] { sim.th(5).join(sim.var); });
    EXPECT_EQ(c.ds, 1u + static_cast<std::uint64_t>(kWide));
    EXPECT_EQ(c.vt, 3u); // threads 0, 1 and 2
    // Covered now: the root test answers the next join in O(1).
    const Charges again = sim.charge([&] { sim.th(5).join(sim.var); });
    EXPECT_EQ(again.ds, 1u);
    EXPECT_EQ(again.vt, 0u);
    EXPECT_EQ(sim.th(5).checkInvariants(), "");
}

// ---------------------------------------------------------------
// The star: serialization and join equivalence.
// ---------------------------------------------------------------

/** A flat clock holding thread 0's time after it learned from
 * threads 1..3 (through thread 1, for a deeper tree). Thread 5
 * knows an older time of thread 3. */
struct StarFixture
{
    std::vector<TreeClock> threads;
    FlatTreeClock var;

    StarFixture()
    {
        for (Tid t = 0; t < 6; t++)
            threads.emplace_back(t, 6);
        threads[3].increment(2);
        threads[5].increment(1);
        threads[5].join(threads[3]);
        threads[3].increment(2);
        threads[1].increment(2);
        threads[1].join(threads[3]);
        threads[0].increment(7);
        threads[0].join(threads[1]);
        threads[2].increment(1);
        threads[0].increment(1);
        threads[0].join(threads[2]);
        var.monotoneCopy(threads[0]);
    }
};

TEST(FlatStar, StarBlobRestoresIntoAValidTree)
{
    StarFixture f;
    ByteSink out;
    f.var.serialize(out);
    ByteSource in(out.bytes());
    TreeClock tree;
    ASSERT_TRUE(tree.deserialize(in));
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(tree.checkInvariants(), "");
    EXPECT_EQ(tree.rootTid(), 0);
    EXPECT_EQ(tree.childrenOf(0), (std::vector<Tid>{1, 2, 3}));
    for (Tid t = 1; t <= 3; t++) {
        EXPECT_EQ(tree.parentOf(t), 0);
        EXPECT_EQ(tree.aclkOf(t), f.var.localClk());
    }
    for (Tid t = 0; t < 7; t++)
        EXPECT_EQ(tree.get(t), f.var.get(t)) << t;
    // The blob is the star toTree() builds.
    EXPECT_EQ(f.var.toTree().toString(), tree.toString());
}

TEST(FlatStar, TreeBlobRestoresIntoAFlatClock)
{
    StarFixture f;
    ByteSink out;
    f.threads[0].serialize(out);
    ByteSource in(out.bytes());
    FlatTreeClock flat;
    ASSERT_TRUE(flat.deserialize(in));
    EXPECT_TRUE(in.atEnd());
    EXPECT_EQ(flat.size(), f.threads[0].size());
    EXPECT_EQ(flat.rootTid(), 0);
    for (Tid t = 0; t < 7; t++)
        EXPECT_EQ(flat.get(t), f.threads[0].get(t)) << t;

    // And a flat clock round-trips through its star.
    ByteSink again;
    flat.serialize(again);
    ByteSource back(again.bytes());
    FlatTreeClock flat2;
    ASSERT_TRUE(flat2.deserialize(back));
    EXPECT_EQ(flat2.toTree().toVector(), flat.toTree().toVector());
    EXPECT_EQ(flat2.rootTid(), flat.rootTid());
}

TEST(FlatStar, EmptyFlatClockRoundTrips)
{
    FlatTreeClock empty;
    ByteSink out;
    empty.serialize(out);
    ByteSource in(out.bytes());
    FlatTreeClock loaded;
    ASSERT_TRUE(loaded.deserialize(in));
    EXPECT_TRUE(loaded.empty());
    EXPECT_EQ(loaded.toTree().checkInvariants(), "");
}

TEST(FlatStar, CorruptTreeBlobIsRejectedByAFlatClock)
{
    StarFixture f;
    ByteSink out;
    f.threads[0].serialize(out);
    std::vector<std::uint8_t> bytes = out.bytes();
    // Point thread 1's parent (third segment) at itself: a cycle
    // the tree validation must catch before a flat clock keeps
    // only the timestamps.
    const std::size_t header = sizeof(std::int32_t) +
                               sizeof(std::uint64_t);
    const std::size_t seg_bytes = sizeof(std::uint64_t) + 6 * 4;
    const std::size_t at = header + 2 * seg_bytes +
                           sizeof(std::uint64_t) + 1 * 4;
    const std::int32_t self = 1;
    std::copy_n(reinterpret_cast<const std::uint8_t *>(&self), 4,
                bytes.begin() + static_cast<std::ptrdiff_t>(at));
    ByteSource in(bytes);
    FlatTreeClock flat;
    EXPECT_FALSE(flat.deserialize(in));
    EXPECT_TRUE(flat.empty());
}

TEST(FlatStar, JoinFromFlatEqualsJoinOverItsStar)
{
    for (const Policy policy :
         {Policy::Full, Policy::NoIndirect, Policy::NoPruning}) {
        StarFixture f;
        ByteSink out;
        f.var.serialize(out);
        ByteSource in(out.bytes());
        TreeClock star;
        ASSERT_TRUE(star.deserialize(in));

        // Thread 4 knows thread 5 and, under it, an old time of
        // thread 3, which both joins must move under thread 0.
        TreeClock a(4, 6);
        a.setPolicy(policy);
        a.increment(2);
        a.join(f.threads[5]);
        ASSERT_EQ(a.parentOf(3), 5);
        TreeClock b = a;
        a.join(f.var);
        b.join(star);
        EXPECT_EQ(a.toString(), b.toString());
        EXPECT_EQ(a.parentOf(3), 0);
        EXPECT_EQ(a.checkInvariants(), "");
    }
}

TEST(FlatStar, DeepCopyKeepsTheTimesAndToTreeBuildsTheStar)
{
    StarFixture f;
    FlatTreeClock flat;
    flat.deepCopy(f.threads[0]);
    const TreeClock tree = flat.toTree();
    EXPECT_EQ(tree.checkInvariants(), "");
    EXPECT_EQ(tree.childrenOf(0), (std::vector<Tid>{1, 2, 3}));
    EXPECT_EQ(tree.toVector(), f.threads[0].toVector());
    // A wider target keeps its width.
    FlatTreeClock wide_flat;
    TreeClock wide_owner(9, 10);
    wide_owner.increment(3);
    wide_flat.deepCopy(wide_owner);
    wide_flat.deepCopy(f.threads[0]);
    EXPECT_EQ(wide_flat.size(), 10u);
    EXPECT_EQ(wide_flat.get(9), 0u);
    EXPECT_EQ(wide_flat.toTree().toVector(10),
              f.threads[0].toVector(10));
}

// ---------------------------------------------------------------
// Engines with deepChecks: every touched clock validated per event.
// ---------------------------------------------------------------

template <template <typename> class Engine>
void
deepCheckedRunMatchesVectorClock()
{
    for (const test::SweepCase &c : test::standardSweep()) {
        const Trace trace = generateRandomTrace(c.params);
        WorkCounters tc_work, vc_work;
        EngineConfig cfg;
        cfg.deepChecks = true;
        cfg.counters = &tc_work;
        const auto tc = test::runEngine<Engine, TreeClock>(trace, cfg);
        cfg.deepChecks = false;
        cfg.counters = &vc_work;
        const auto vc = test::runEngine<Engine, VectorClock>(trace, cfg);
        EXPECT_EQ(tc.races.total(), vc.races.total()) << c.label;
        EXPECT_EQ(tc.races.racyVars(), vc.races.racyVars()) << c.label;
        EXPECT_EQ(tc_work.vtWork, vc_work.vtWork) << c.label;
    }
}

TEST(FlatEngines, ShbDeepChecksPass)
{
    deepCheckedRunMatchesVectorClock<ShbEngine>();
}

TEST(FlatEngines, MazDeepChecksPass)
{
    deepCheckedRunMatchesVectorClock<MazEngine>();
}

} // namespace
} // namespace tc
