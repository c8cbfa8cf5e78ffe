/**
 * @file
 * MonotoneCopy / CopyCheckMonotone / deepCopy tests, including a
 * full hand-derived replay of the Appendix B example trace
 * (Figure 11): 16 events over 5 threads and 3 locks, asserting the
 * exact tree shapes the algorithm must produce after each step,
 * and the bounded copy walk that switches to a block copy once
 * ⌈k/8⌉ nodes have progressed.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "support/rng.hh"

namespace tc {
namespace {

struct Sim
{
    std::vector<TreeClock> threads;
    std::vector<TreeClock> locks;
    WorkCounters work;

    Sim(Tid num_threads, LockId num_locks)
    {
        for (Tid t = 0; t < num_threads; t++) {
            threads.emplace_back(
                t, static_cast<std::size_t>(num_threads));
            threads.back().setCounters(&work);
        }
        locks.resize(static_cast<std::size_t>(num_locks));
        for (auto &l : locks)
            l.setCounters(&work);
    }

    void
    acq(Tid t, LockId l)
    {
        threads[static_cast<std::size_t>(t)].increment(1);
        threads[static_cast<std::size_t>(t)].join(
            locks[static_cast<std::size_t>(l)]);
    }

    void
    rel(Tid t, LockId l)
    {
        threads[static_cast<std::size_t>(t)].increment(1);
        locks[static_cast<std::size_t>(l)].monotoneCopy(
            threads[static_cast<std::size_t>(t)]);
    }

    void sync(Tid t, LockId l) { acq(t, l); rel(t, l); }

    TreeClock &tcOf(Tid t)
    {
        return threads[static_cast<std::size_t>(t)];
    }
    TreeClock &lockOf(LockId l)
    {
        return locks[static_cast<std::size_t>(l)];
    }

    void
    checkAll()
    {
        for (const auto &c : threads)
            EXPECT_EQ(c.checkInvariants(), "") << c.toString();
        for (const auto &c : locks)
            EXPECT_EQ(c.checkInvariants(), "") << c.toString();
    }
};

TEST(TreeClockCopy, FirstCopyPopulatesEmptyLockClock)
{
    Sim sim(2, 1);
    sim.acq(0, 0);
    sim.rel(0, 0);
    const TreeClock &l0 = sim.lockOf(0);
    EXPECT_EQ(l0.rootTid(), 0);
    EXPECT_EQ(l0.localClk(), 2u);
    EXPECT_EQ(l0.checkInvariants(), "");
}

TEST(TreeClockCopy, MonotoneCopyRerootsToNewOwner)
{
    Sim sim(2, 1);
    sim.sync(0, 0);
    sim.acq(1, 0);
    sim.rel(1, 0);
    // The lock clock's root must now be t1, with t0's node below.
    const TreeClock &l0 = sim.lockOf(0);
    EXPECT_EQ(l0.rootTid(), 1);
    EXPECT_EQ(l0.parentOf(0), 1);
    EXPECT_EQ(l0.toVector(2), (std::vector<Clk>{2, 2}));
    sim.checkAll();
}

/**
 * The Appendix B trace (Figure 11a), threads t1..t5 = ids 0..4 and
 * locks l1..l3 = ids 0..2:
 *   e1  t1 acq(l1)   e2  t1 rel(l1)
 *   e3  t4 acq(l2)   e4  t4 rel(l2)
 *   e5  t5 acq(l3)   e6  t5 rel(l3)
 *   e7  t3 acq(l1)   e8  t3 acq(l3)
 *   e9  t3 rel(l3)   e10 t3 rel(l1)
 *   e11 t4 acq(l3)   e12 t4 rel(l3)
 *   e13 t2 acq(l1)   e14 t2 rel(l1)
 *   e15 t2 acq(l2)   e16 t2 rel(l2)
 * Shapes asserted below are hand-derived with Algorithm 2 (the
 * arXiv figure annotates per-sync ticks; this replay ticks per
 * acq/rel event, which only changes absolute clock values).
 */
TEST(TreeClockCopy, AppendixBReplay)
{
    Sim sim(5, 3);

    sim.acq(0, 0); // e1
    EXPECT_EQ(sim.tcOf(0).toString(), "(t0, 1, _)\n");
    sim.rel(0, 0); // e2
    EXPECT_EQ(sim.lockOf(0).toString(), "(t0, 2, _)\n");

    sim.acq(3, 1); // e3
    sim.rel(3, 1); // e4
    EXPECT_EQ(sim.lockOf(1).toString(), "(t3, 2, _)\n");

    sim.acq(4, 2); // e5
    sim.rel(4, 2); // e6
    EXPECT_EQ(sim.lockOf(2).toString(), "(t4, 2, _)\n");

    sim.acq(2, 0); // e7: t3 learns t1 through l1
    EXPECT_EQ(sim.tcOf(2).toString(),
              "(t2, 1, _)\n  (t0, 2, 1)\n");

    sim.acq(2, 2); // e8: t3 learns t5 through l3
    EXPECT_EQ(sim.tcOf(2).toString(),
              "(t2, 2, _)\n  (t4, 2, 2)\n  (t0, 2, 1)\n");

    sim.rel(2, 2); // e9: l3 now carries t3's full view
    EXPECT_EQ(sim.lockOf(2).toString(),
              "(t2, 3, _)\n  (t4, 2, 2)\n  (t0, 2, 1)\n");

    sim.rel(2, 0); // e10
    EXPECT_EQ(sim.lockOf(0).toString(),
              "(t2, 4, _)\n  (t4, 2, 2)\n  (t0, 2, 1)\n");

    sim.acq(3, 2); // e11: t4 learns t3's subtree through l3
    EXPECT_EQ(sim.tcOf(3).toString(),
              "(t3, 3, _)\n  (t2, 3, 3)\n    (t4, 2, 2)\n"
              "    (t0, 2, 1)\n");

    sim.rel(3, 2); // e12: the monotone copy must re-root l3's clock
                   // from t3 to t4 and reposition the old root.
    EXPECT_EQ(sim.lockOf(2).toString(),
              "(t3, 4, _)\n  (t2, 3, 3)\n    (t4, 2, 2)\n"
              "    (t0, 2, 1)\n");

    sim.acq(1, 0); // e13
    EXPECT_EQ(sim.tcOf(1).toString(),
              "(t1, 1, _)\n  (t2, 4, 1)\n    (t4, 2, 2)\n"
              "    (t0, 2, 1)\n");

    sim.rel(1, 0); // e14
    EXPECT_EQ(sim.lockOf(0).toString(),
              "(t1, 2, _)\n  (t2, 4, 1)\n    (t4, 2, 2)\n"
              "    (t0, 2, 1)\n");

    sim.acq(1, 1); // e15: learns t4@2 from l2
    EXPECT_EQ(sim.tcOf(1).toString(),
              "(t1, 3, _)\n  (t3, 2, 3)\n  (t2, 4, 1)\n"
              "    (t4, 2, 2)\n    (t0, 2, 1)\n");

    sim.rel(1, 1); // e16
    EXPECT_EQ(sim.lockOf(1).toString(),
              "(t1, 4, _)\n  (t3, 2, 3)\n  (t2, 4, 1)\n"
              "    (t4, 2, 2)\n    (t0, 2, 1)\n");

    sim.checkAll();
    // The whole run must never have needed the safety-net fallback.
    EXPECT_EQ(sim.work.fallbackCopies, 0u);
}

TEST(TreeClockCopy, CopyCheckMonotoneTakesCheapPathWhenCovered)
{
    WorkCounters w;
    TreeClock ct(0, 4);
    TreeClock lw;
    ct.setCounters(&w);
    lw.setCounters(&w);
    ct.increment(1);
    lw.copyCheckMonotone(ct); // first write: lw ⊑ ct trivially
    ct.increment(1);
    EXPECT_TRUE(lw.copyCheckMonotone(ct));
    EXPECT_EQ(w.deepCopies, 0u);
    EXPECT_EQ(lw.localClk(), 2u);
}

TEST(TreeClockCopy, CopyCheckMonotoneDeepCopiesOnRace)
{
    WorkCounters w;
    TreeClock c0(0, 4), c1(1, 4);
    TreeClock lw;
    c0.setCounters(&w);
    c1.setCounters(&w);
    lw.setCounters(&w);
    c0.increment(1);
    lw.copyCheckMonotone(c0); // lw = [1,0] rooted at t0
    c1.increment(1);
    // c1 knows nothing of t0: lw ̸⊑ c1 — exactly the SHB
    // write-after-unordered-write (race) situation.
    EXPECT_FALSE(lw.copyCheckMonotone(c1));
    EXPECT_EQ(w.deepCopies, 1u);
    EXPECT_EQ(lw.rootTid(), 1);
    EXPECT_EQ(lw.get(0), 0u); // replaced, not joined
    EXPECT_EQ(lw.get(1), 1u);
    EXPECT_EQ(lw.checkInvariants(), "");
}

TEST(TreeClockCopy, DeepCopyReplacesEverything)
{
    TreeClock a(0, 4), b(1, 4);
    a.increment(7);
    b.increment(2);
    b.join(a);
    TreeClock c(2, 4);
    c.increment(9);
    c.deepCopy(b);
    EXPECT_EQ(c.rootTid(), 1);
    EXPECT_EQ(c.toVector(4), b.toVector(4));
    EXPECT_EQ(c.get(2), 0u); // old self knowledge dropped
    EXPECT_EQ(c.checkInvariants(), "");
    // Structure is cloned verbatim.
    EXPECT_EQ(c.toString(), b.toString());
}

TEST(TreeClockCopy, MonotoneCopyPreconditionAsserted)
{
    TreeClock a(0, 2), b(1, 2);
    a.increment(5);
    b.increment(1);
#if !defined(NDEBUG) || defined(TC_ENABLE_ASSERTS)
    // a ̸⊑ b, and b's O(1) root test can't see it; the debug-mode
    // exact precondition check must fire.
    EXPECT_DEATH(a.monotoneCopy(b), "requires this");
#endif
}

TEST(TreeClockCopy, CopyFromEmptyOntoEmptyIsNoop)
{
    TreeClock a, b;
    a.monotoneCopy(b);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.checkInvariants(), "");
}

TEST(TreeClockCopy, RootSwapBetweenEqualViews)
{
    // l is released by t0, acquired+released by t1 with no extra
    // knowledge: the second copy must re-root to t1 even though
    // only t1's entry progressed.
    Sim sim(2, 1);
    sim.sync(0, 0);
    sim.acq(1, 0);
    sim.rel(1, 0);
    sim.acq(0, 0);
    sim.rel(0, 0);
    const TreeClock &l0 = sim.lockOf(0);
    EXPECT_EQ(l0.rootTid(), 0);
    EXPECT_EQ(l0.parentOf(1), 0);
    sim.checkAll();
    EXPECT_EQ(sim.work.fallbackCopies, 0u);
}

/**
 * A lock clock left stale by its owner: t0 releases into `lock`,
 * then learns fresh progress from threads 1..fresh, each hung
 * directly under t0's root at a fresh tick, and ticks once more. The copy walk of
 * lock ← t0 therefore scans one progressed child per step, so it
 * examines exactly min(fresh, ⌈k/8⌉) children before it either hits
 * the limit or runs out of progressed nodes.
 */
struct StaleLock
{
    static constexpr Tid kThreads = 32; // walk limit ⌈32/8⌉ = 4
    static constexpr std::uint64_t kLimit = (kThreads + 7) / 8;

    WorkCounters work;
    TreeClock owner{0, static_cast<std::size_t>(kThreads)};
    TreeClock lock;
    std::vector<TreeClock> others;

    StaleLock(Tid fresh, TreeClock::JoinPolicy policy)
    {
        owner.setCounters(&work);
        lock.setCounters(&work);
        lock.setPolicy(policy);
        owner.increment(1);
        lock.monotoneCopy(owner); // first population
        others.reserve(static_cast<std::size_t>(fresh));
        for (Tid t = 1; t <= fresh; t++) {
            others.emplace_back(t, static_cast<std::size_t>(kThreads));
            others.back().increment(1);
            owner.increment(1); // a join is a fresh event of t0
            owner.join(others.back());
        }
        owner.increment(1);
    }

    /** lock ← owner; returns the work the copy alone added. */
    WorkCounters
    copy()
    {
        const WorkCounters before = work;
        lock.monotoneCopy(owner);
        WorkCounters delta;
        delta.vtWork = work.vtWork - before.vtWork;
        delta.dsWork = work.dsWork - before.dsWork;
        delta.copies = work.copies - before.copies;
        delta.fallbackCopies =
            work.fallbackCopies - before.fallbackCopies;
        return delta;
    }
};

TEST(TreeClockCopy, StaleCopyPastLimitTakesBlockCopy)
{
    // Half of the k entries progress: well past ⌈k/8⌉.
    StaleLock s(StaleLock::kThreads / 2, TreeClock::JoinPolicy::Full);
    const WorkCounters d = s.copy();

    EXPECT_EQ(s.lock.toVector(StaleLock::kThreads),
              s.owner.toVector(StaleLock::kThreads));
    EXPECT_EQ(s.lock.checkInvariants(), "");
    // The block copy clones the operand's tree verbatim.
    EXPECT_EQ(s.lock.toString(), s.owner.toString());
    // Walk up to the limit, then one flat pass over all k entries.
    EXPECT_EQ(d.dsWork, StaleLock::kLimit + StaleLock::kThreads);
    EXPECT_EQ(d.copies, 1u);
    // Changed entries: t0's own time and the k/2 fresh threads.
    EXPECT_EQ(d.vtWork, 1u + StaleLock::kThreads / 2);
    EXPECT_EQ(d.fallbackCopies, 0u);
}

TEST(TreeClockCopy, StaleCopyBelowLimitStaysOnNodePath)
{
    const Tid fresh = static_cast<Tid>(StaleLock::kLimit) - 1;
    StaleLock s(fresh, TreeClock::JoinPolicy::Full);
    const WorkCounters d = s.copy();

    EXPECT_EQ(s.lock.toVector(StaleLock::kThreads),
              s.owner.toVector(StaleLock::kThreads));
    EXPECT_EQ(s.lock.checkInvariants(), "");
    // `fresh` children examined + root and `fresh` nodes moved.
    EXPECT_EQ(d.dsWork, 2u * static_cast<std::uint64_t>(fresh) + 1u);
    EXPECT_LT(d.dsWork, static_cast<std::uint64_t>(StaleLock::kThreads));
    EXPECT_EQ(d.copies, 1u);
    EXPECT_EQ(d.vtWork, 1u + static_cast<std::uint64_t>(fresh));
}

TEST(TreeClockCopy, AblationPoliciesNeverBlockCopy)
{
    // Twice the limit progresses, which under Full takes the block
    // copy; the ablations must keep Algorithm 2's node-by-node walk.
    const Tid fresh = static_cast<Tid>(2 * StaleLock::kLimit);
    for (const auto policy : {TreeClock::JoinPolicy::NoIndirect,
                              TreeClock::JoinPolicy::NoPruning}) {
        StaleLock s(fresh, policy);
        const WorkCounters d = s.copy();
        EXPECT_EQ(s.lock.toVector(StaleLock::kThreads),
                  s.owner.toVector(StaleLock::kThreads));
        EXPECT_EQ(s.lock.checkInvariants(), "");
        EXPECT_EQ(d.dsWork,
                  2u * static_cast<std::uint64_t>(fresh) + 1u);
        EXPECT_EQ(d.copies, 1u);
    }
}

/** HB-style clock operations, replayable on either clock type. */
template <typename ClockT>
struct Replay
{
    std::vector<ClockT> threads;
    std::vector<ClockT> locks;
    WorkCounters work;

    Replay(Tid num_threads, LockId num_locks)
    {
        for (Tid t = 0; t < num_threads; t++) {
            threads.emplace_back(
                t, static_cast<std::size_t>(num_threads));
            threads.back().setCounters(&work);
        }
        locks.resize(static_cast<std::size_t>(num_locks));
        for (auto &l : locks)
            l.setCounters(&work);
    }

    ClockT &th(Tid t) { return threads[static_cast<std::size_t>(t)]; }
    ClockT &lk(LockId l) { return locks[static_cast<std::size_t>(l)]; }

    void step(Tid t) { th(t).increment(1); }
    /** Fork/join-style edge: t learns u's current view as a new
     * event of t (a clock must tick before it gains knowledge, or
     * an earlier reader of its time would be wrongly covered). */
    void
    learn(Tid t, Tid u)
    {
        step(t);
        th(t).join(th(u));
    }
    void acquire(Tid t, LockId l) { th(t).join(lk(l)); }
    void release(Tid t, LockId l) { lk(l).monotoneCopy(th(t)); }

    void
    sync(Tid t, LockId l)
    {
        step(t);
        acquire(t, l);
        step(t);
        release(t, l);
    }
};

TEST(TreeClockCopy, OperationsAfterBlockCopyMatchVectorClockReplay)
{
    constexpr Tid kThreads = 16; // walk limit ⌈16/8⌉ = 2
    constexpr LockId kLocks = 3;
    Replay<TreeClock> tc(kThreads, kLocks);
    Replay<VectorClock> vc(kThreads, kLocks);
    const auto both = [&](auto &&op) {
        op(tc);
        op(vc);
    };
    const auto expectSame = [&](int step) {
        for (Tid t = 0; t < kThreads; t++) {
            ASSERT_EQ(tc.th(t).toVector(kThreads),
                      vc.th(t).toVector(kThreads))
                << "thread " << t << " after step " << step;
            ASSERT_EQ(tc.th(t).checkInvariants(), "");
        }
        for (LockId l = 0; l < kLocks; l++) {
            ASSERT_EQ(tc.lk(l).toVector(kThreads),
                      vc.lk(l).toVector(kThreads))
                << "lock " << l << " after step " << step;
            ASSERT_EQ(tc.lk(l).checkInvariants(), "");
        }
    };

    // Stale lock 0: t0 releases it, then learns from t1..t8.
    both([](auto &r) { r.sync(0, 0); });
    for (Tid u = 1; u <= 8; u++) {
        both([u](auto &r) {
            r.step(u);
            r.learn(0, u);
        });
    }
    both([](auto &r) {
        r.step(0);
        r.acquire(0, 0);
    });
    const std::uint64_t ds_before = tc.work.dsWork;
    both([](auto &r) { r.release(0, 0); });
    // Proof the block copy ran: limit examined + k entries written.
    ASSERT_EQ(tc.work.dsWork - ds_before, 2u + kThreads);
    expectSame(0);

    // Random joins and copies on top, including further block
    // copies whenever a lock falls far enough behind.
    Rng rng(42);
    for (int i = 1; i <= 3000; i++) {
        const Tid t = static_cast<Tid>(rng.below(kThreads));
        if (rng.chance(0.5)) {
            const auto l = static_cast<LockId>(rng.below(kLocks));
            both([t, l](auto &r) { r.sync(t, l); });
        } else {
            const Tid u = static_cast<Tid>(rng.below(kThreads));
            both([t, u](auto &r) {
                r.step(u);
                if (t != u)
                    r.learn(t, u);
            });
        }
        expectSame(i);
    }
    EXPECT_EQ(tc.work.vtWork, vc.work.vtWork);
    EXPECT_EQ(tc.work.fallbackCopies, 0u);
}

} // namespace
} // namespace tc
