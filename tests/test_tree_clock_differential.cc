/**
 * @file
 * Randomized differential testing of TreeClock against VectorClock:
 * both structures are driven through the same random-but-legal
 * operation sequences (the lock/fork-join discipline the engines
 * obey) and must materialize identical vector times after every
 * operation, under all three traversal policies, with the tree's
 * structural invariants intact throughout. This pins the SoA
 * storage rewrite and the scratch-arena traversals to the flat
 * reference semantics, operation by operation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/tree_clock.hh"
#include "core/vector_clock.hh"
#include "support/rng.hh"
#include "test_helpers.hh"

namespace tc {
namespace {

/** Mirrored TC/VC fleets driven through identical operations. */
class MirrorFleet
{
  public:
    MirrorFleet(Tid threads, std::size_t locks, std::size_t aux,
                TreeClock::JoinPolicy policy)
        : numThreads_(threads)
    {
        for (Tid t = 0; t < threads; t++) {
            // Deliberately small initial capacity: growth through
            // ensure() is part of what the differential run covers.
            tc_.emplace_back(t, 1);
            tc_.back().setPolicy(policy);
            vc_.emplace_back(t, 1);
        }
        tcLocks_.resize(locks);
        vcLocks_.resize(locks);
        for (auto &l : tcLocks_)
            l.setPolicy(policy);
        tcAux_.resize(aux);
        vcAux_.resize(aux);
        for (auto &a : tcAux_)
            a.setPolicy(policy);
    }

    void
    increment(std::size_t t, Clk d)
    {
        tc_[t].increment(d);
        vc_[t].increment(d);
        checkClock(tc_[t], vc_[t], "increment");
    }

    /** acquire+release round on lock @p l by thread @p t. */
    void
    lockRound(std::size_t t, std::size_t l)
    {
        tc_[t].increment(1);
        vc_[t].increment(1);
        tc_[t].join(tcLocks_[l]);
        vc_[t].join(vcLocks_[l]);
        checkClock(tc_[t], vc_[t], "acquire-join");
        tc_[t].increment(1);
        vc_[t].increment(1);
        tcLocks_[l].monotoneCopy(tc_[t]);
        vcLocks_[l].monotoneCopy(vc_[t]);
        checkClock(tcLocks_[l], vcLocks_[l], "release-copy");
    }

    /** Direct thread-to-thread join (the fork/join shape). */
    void
    threadJoin(std::size_t dst, std::size_t src)
    {
        if (dst == src)
            return;
        tc_[dst].increment(1);
        vc_[dst].increment(1);
        tc_[dst].join(tc_[src]);
        vc_[dst].join(vc_[src]);
        checkClock(tc_[dst], vc_[dst], "thread-join");
    }

    /** SHB's CopyCheckMonotone into an auxiliary clock. */
    void
    copyCheck(std::size_t a, std::size_t t)
    {
        tcAux_[a].copyCheckMonotone(tc_[t]);
        vcAux_[a].copyCheckMonotone(vc_[t]);
        checkClock(tcAux_[a], vcAux_[a], "copy-check-monotone");
    }

    void
    deepCopy(std::size_t a, std::size_t t)
    {
        tcAux_[a].deepCopy(tc_[t]);
        vcAux_[a].deepCopy(vc_[t]);
        checkClock(tcAux_[a], vcAux_[a], "deep-copy");
    }

    void
    checkAll() const
    {
        for (std::size_t t = 0; t < tc_.size(); t++)
            checkClock(tc_[t], vc_[t], "final thread");
        for (std::size_t l = 0; l < tcLocks_.size(); l++)
            checkClock(tcLocks_[l], vcLocks_[l], "final lock");
        for (std::size_t a = 0; a < tcAux_.size(); a++)
            checkClock(tcAux_[a], vcAux_[a], "final aux");
    }

  private:
    void
    checkClock(const TreeClock &tree, const VectorClock &flat,
               const char *where) const
    {
        const auto k = static_cast<std::size_t>(numThreads_);
        ASSERT_EQ(tree.toVector(k), flat.toVector(k)) << where;
        ASSERT_EQ(tree.checkInvariants(), "") << where;
    }

    Tid numThreads_;
    std::vector<TreeClock> tc_;
    std::vector<VectorClock> vc_;
    std::vector<TreeClock> tcLocks_;
    std::vector<VectorClock> vcLocks_;
    std::vector<TreeClock> tcAux_;
    std::vector<VectorClock> vcAux_;
};

class DifferentialPolicy
    : public ::testing::TestWithParam<TreeClock::JoinPolicy>
{};

TEST_P(DifferentialPolicy, RandomizedJoinCopyAgreesWithVectorClock)
{
    const Tid threads = 11;
    const std::size_t locks = 5;
    const std::size_t aux = 3;
    MirrorFleet fleet(threads, locks, aux, GetParam());

    Rng rng(0xd1ffULL +
            static_cast<std::uint64_t>(GetParam()) * 101);
    const int steps = 4000 * test::depthScale();
    for (int step = 0; step < steps; step++) {
        const auto t = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(threads)));
        switch (rng.below(10)) {
          case 0:
          case 1:
            fleet.increment(
                t, static_cast<Clk>(1 + rng.below(3)));
            break;
          case 2:
          case 3:
          case 4:
          case 5:
            fleet.lockRound(
                t, static_cast<std::size_t>(rng.below(locks)));
            break;
          case 6:
          case 7:
            fleet.threadJoin(
                t,
                static_cast<std::size_t>(rng.below(
                    static_cast<std::uint64_t>(threads))));
            break;
          case 8:
            fleet.copyCheck(
                static_cast<std::size_t>(rng.below(aux)), t);
            break;
          case 9:
            fleet.deepCopy(
                static_cast<std::size_t>(rng.below(aux)), t);
            break;
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    fleet.checkAll();
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, DifferentialPolicy,
    ::testing::Values(TreeClock::JoinPolicy::Full,
                      TreeClock::JoinPolicy::NoIndirect,
                      TreeClock::JoinPolicy::NoPruning),
    [](const auto &info) {
        switch (info.param) {
          case TreeClock::JoinPolicy::Full: return "Full";
          case TreeClock::JoinPolicy::NoIndirect:
            return "NoIndirect";
          case TreeClock::JoinPolicy::NoPruning:
            return "NoPruning";
        }
        return "Unknown";
    });

/**
 * Recursive reference for Algorithm 2's Join and MonotoneCopy at
 * the level of tree shape: explicit child vectors instead of link
 * segments, recursion instead of the iterative walk, and every
 * unlink done in a separate pass before the attach. A copy whose
 * walk meets ⌈k/8⌉ progressed nodes (k = the operand's width), or
 * that never meets the target's old root, takes the operand's
 * shape wholesale, as TreeClock's block copy does.
 */
class ShapeReference
{
  public:
    ShapeReference(Tid k, Tid root) : nodes_(static_cast<std::size_t>(k))
    {
        if (root != kNoTid) {
            root_ = root;
            node(root).present = true;
        }
    }

    void increment(Clk d) { node(root_).clk += d; }

    /** Returns true when the walk reached the block-copy limit. */
    bool
    apply(const ShapeReference &o, bool is_copy,
          TreeClock::JoinPolicy policy, std::size_t limit)
    {
        if (o.root_ == kNoTid)
            return false;
        if (is_copy && root_ == kNoTid) {
            *this = o;
            return false;
        }
        if (!is_copy && o.get(o.root_) <= get(o.root_))
            return false;
        std::vector<Tid> S;
        std::size_t progressed = 0;
        gather(o, o.root_, true, is_copy, policy, S, progressed);
        const bool limited =
            policy == TreeClock::JoinPolicy::Full && is_copy &&
            progressed >= limit;
        if (limited ||
            (is_copy && root_ != o.root_ &&
             std::find(S.begin(), S.end(), root_) == S.end())) {
            *this = o;
            return limited;
        }
        for (const Tid t : S) {
            if (t != root_ && node(t).present)
                detach(t);
        }
        for (auto it = S.rbegin(); it != S.rend(); ++it) {
            Node &n = node(*it);
            const Node &src = o.node(*it);
            n.present = true;
            n.clk = src.clk;
            if (src.parent != kNoTid) {
                n.aclk = src.aclk;
                pushFront(*it, src.parent);
            }
        }
        if (is_copy) {
            root_ = o.root_;
            node(root_).parent = kNoTid;
            node(root_).aclk = 0;
        } else {
            node(o.root_).aclk = node(root_).clk;
            pushFront(o.root_, root_);
        }
        return false;
    }

    /** Holds @p tree to this shape for every tid. */
    void
    expectShape(const TreeClock &tree, const std::string &where) const
    {
        for (Tid t = 0; t < static_cast<Tid>(nodes_.size()); t++) {
            const Node &n = node(t);
            ASSERT_EQ(tree.hasThread(t), n.present) << where << " t" << t;
            ASSERT_EQ(tree.get(t), n.clk) << where << " t" << t;
            ASSERT_EQ(tree.parentOf(t), n.present ? n.parent : kNoTid)
                << where << " t" << t;
            ASSERT_EQ(tree.aclkOf(t), n.present ? n.aclk : 0u)
                << where << " t" << t;
            ASSERT_EQ(tree.childrenOf(t), n.kids) << where << " t" << t;
        }
    }

  private:
    struct Node
    {
        bool present = false;
        Clk clk = 0;
        Clk aclk = 0;
        Tid parent = kNoTid;
        std::vector<Tid> kids; ///< descending aclk
    };

    Node &node(Tid t) { return nodes_[static_cast<std::size_t>(t)]; }
    const Node &
    node(Tid t) const
    {
        return nodes_[static_cast<std::size_t>(t)];
    }
    Clk get(Tid t) const { return node(t).clk; }

    /** getUpdatedNodesJoin / getUpdatedNodesCopy, pre-order. */
    void
    gather(const ShapeReference &o, Tid u, bool take, bool is_copy,
           TreeClock::JoinPolicy policy, std::vector<Tid> &S,
           std::size_t &progressed) const
    {
        if (take)
            S.push_back(u);
        for (const Tid v : o.node(u).kids) {
            const bool ahead = get(v) < o.get(v);
            if (ahead || policy == TreeClock::JoinPolicy::NoPruning) {
                progressed += ahead;
                gather(o, v, ahead || is_copy, is_copy, policy, S,
                       progressed);
                continue;
            }
            if (is_copy && v == root_)
                S.push_back(v);
            if (policy == TreeClock::JoinPolicy::Full &&
                o.node(v).aclk <= get(u))
                break;
        }
    }

    void
    detach(Tid t)
    {
        std::vector<Tid> &kids = node(node(t).parent).kids;
        kids.erase(std::find(kids.begin(), kids.end(), t));
    }

    void
    pushFront(Tid t, Tid parent)
    {
        node(t).parent = parent;
        std::vector<Tid> &kids = node(parent).kids;
        kids.insert(kids.begin(), t);
    }

    std::vector<Node> nodes_;
    Tid root_ = kNoTid;
};

struct ShapeCase
{
    Tid k;
    TreeClock::JoinPolicy policy;
};

class ShapeDifferential : public ::testing::TestWithParam<ShapeCase>
{};

/**
 * Random increments, lock rounds (acquire-join, release-copy),
 * thread-to-thread joins and CopyCheckMonotone into auxiliary
 * clocks, with the shape of every touched clock held to the
 * reference after every operation.
 */
TEST_P(ShapeDifferential, TreeShapeMatchesRecursiveReference)
{
    const Tid k = GetParam().k;
    const TreeClock::JoinPolicy policy = GetParam().policy;
    const std::size_t locks = 3;
    const std::size_t aux = 2;
    std::vector<TreeClock> threads, lockClocks(locks), auxClocks(aux);
    std::vector<ShapeReference> refThreads;
    std::vector<ShapeReference> refLocks(locks, ShapeReference(k, kNoTid));
    std::vector<ShapeReference> refAux(aux, ShapeReference(k, kNoTid));
    for (Tid t = 0; t < k; t++) {
        threads.emplace_back(t, static_cast<std::size_t>(k));
        refThreads.emplace_back(k, t);
    }
    for (auto *group : {&threads, &lockClocks, &auxClocks}) {
        for (TreeClock &c : *group)
            c.setPolicy(policy);
    }

    const std::size_t limit = (static_cast<std::size_t>(k) + 7) / 8;
    std::size_t limited = 0;
    auto join = [&](std::size_t dst, const TreeClock &src,
                    const ShapeReference &ref_src) {
        threads[dst].join(src);
        refThreads[dst].apply(ref_src, false, policy, limit);
        refThreads[dst].expectShape(threads[dst], "join");
    };
    auto copy = [&](TreeClock &dst, ShapeReference &ref_dst,
                    std::size_t src, bool check_monotone) {
        if (check_monotone && !dst.lessThanOrEqual(threads[src])) {
            dst.deepCopy(threads[src]);
            ref_dst = refThreads[src];
        } else {
            dst.monotoneCopy(threads[src]);
            limited += ref_dst.apply(refThreads[src], true, policy,
                                     limit);
        }
        ref_dst.expectShape(dst, "copy");
    };

    Rng rng(0x5ba9eULL + static_cast<std::uint64_t>(k) * 7 +
            static_cast<std::uint64_t>(policy));
    const int steps = 2000 * test::depthScale();
    for (int step = 0; step < steps; step++) {
        const auto t = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(k)));
        switch (rng.below(8)) {
          case 0:
            threads[t].increment(1);
            refThreads[t].increment(1);
            break;
          case 1:
          case 2:
          case 3: {
            const auto l = static_cast<std::size_t>(rng.below(locks));
            threads[t].increment(1);
            refThreads[t].increment(1);
            join(t, lockClocks[l], refLocks[l]);
            threads[t].increment(1);
            refThreads[t].increment(1);
            copy(lockClocks[l], refLocks[l], t, false);
            break;
          }
          case 4:
          case 5: {
            const auto src = static_cast<std::size_t>(
                rng.below(static_cast<std::uint64_t>(k)));
            if (src == t)
                break;
            threads[t].increment(1);
            refThreads[t].increment(1);
            join(t, threads[src], refThreads[src]);
            break;
          }
          default: {
            const auto a = static_cast<std::size_t>(rng.below(aux));
            copy(auxClocks[a], refAux[a], t, true);
            break;
          }
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
    for (std::size_t t = 0; t < threads.size(); t++)
        refThreads[t].expectShape(threads[t], "final thread");
    // The sweep must reach the block-copy limit (Full only).
    if (policy == TreeClock::JoinPolicy::Full) {
        EXPECT_GT(limited, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, ShapeDifferential,
    ::testing::Values(ShapeCase{4, TreeClock::JoinPolicy::Full},
                      ShapeCase{17, TreeClock::JoinPolicy::Full},
                      ShapeCase{96, TreeClock::JoinPolicy::Full},
                      ShapeCase{17, TreeClock::JoinPolicy::NoIndirect},
                      ShapeCase{17, TreeClock::JoinPolicy::NoPruning}),
    [](const auto &info) {
        const char *policy =
            info.param.policy == TreeClock::JoinPolicy::Full
                ? "Full"
                : info.param.policy == TreeClock::JoinPolicy::NoIndirect
                      ? "NoIndirect"
                      : "NoPruning";
        return std::string(policy) + "K" + std::to_string(info.param.k);
    });

} // namespace
} // namespace tc
