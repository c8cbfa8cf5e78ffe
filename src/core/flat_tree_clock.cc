#include "core/flat_tree_clock.hh"

#include <algorithm>

#include "support/assert.hh"

namespace tc {

bool
FlatTreeClock::coveredBy(const TreeClock &other) const
{
    for (std::size_t i = 0; i < clk_.size(); i++) {
        if (clk_[i] > other.rawGet(static_cast<Tid>(i)))
            return false;
    }
    return true;
}

void
FlatTreeClock::monotoneCopy(const TreeClock &other)
{
    if (other.root_ == kNoTid) {
        TC_CHECK(root_ == kNoTid,
                 "monotoneCopy from an empty clock onto a non-empty "
                 "one violates this ⊑ other");
        return;
    }
    if (root_ == kNoTid) {
        // First population: plain linear copy.
        deepCopy(other);
        return;
    }
    TC_ASSERT(coveredBy(other), "monotoneCopy requires this ⊑ other");
    if (clk_.size() < other.size()) {
        clk_.resize(other.size(), 0);
        updateAccounting();
    }
    const Clk *oclk = other.seg(TreeClock::kClk);
    Clk *mclk = clk_.data();

    // Fast path: the same copier, and only its time progressed.
    Tid c = kNoTid;
    if (policy_ == JoinPolicy::Full && other.root_ == root_ &&
        TreeClock::onlyRootAhead(other, mclk, c)) {
        const auto r = static_cast<std::size_t>(root_);
        const std::uint64_t changed = mclk[r] != oclk[r];
        mclk[r] = oclk[r];
        if (counters_) {
            counters_->copies++;
            counters_->vtWork += changed;
            counters_->dsWork += 1 + (c != kNoTid);
        }
        return;
    }

    // The tree's bounded walk, with no links to relink: the copy
    // writes the nodes it gathered alone. There is no old root to
    // reposition, so none is pushed.
    std::vector<Tid> &S = scratch();
    S.clear();
    std::uint64_t examined = 0;
    if (TreeClock::gatherUpdated(
            other, mclk, policy_, S, true, kNoTid, examined,
            TreeClock::copyLimit(policy_, other.size()))) {
        if (counters_)
            counters_->dsWork += examined;
        deepCopy(other);
        return;
    }
    std::uint64_t changed = 0;
    for (const Tid t : S) {
        const auto i = static_cast<std::size_t>(t);
        changed += mclk[i] != oclk[i];
        mclk[i] = oclk[i];
    }
    root_ = other.root_;
    TC_ASSERT(std::equal(oclk, oclk + other.size(), mclk),
              "a flat copy walk missed a progressed entry");
    if (counters_) {
        counters_->copies++;
        counters_->vtWork += changed;
        counters_->dsWork += examined + S.size();
    }
}

bool
FlatTreeClock::copyCheckMonotone(const TreeClock &other)
{
    if (lessThanOrEqual(other)) {
        monotoneCopy(other);
        return true;
    }
    if (counters_)
        counters_->deepCopies++;
    deepCopy(other);
    return false;
}

void
FlatTreeClock::deepCopy(const TreeClock &other)
{
    const std::size_t n = other.size();
    const std::size_t k = clk_.size();
    const Clk *oclk = other.seg(TreeClock::kClk);
    const std::uint64_t changed =
        TreeClock::entriesChanged(clk_.data(), k, oclk, n);
    if (k <= n) {
        // Equal widths (the steady state): one memmove.
        clk_.assign(oclk, oclk + n);
        updateAccounting();
    } else {
        // A wider target keeps its width; its tail reads 0.
        std::copy_n(oclk, n, clk_.begin());
        std::fill(clk_.begin() + static_cast<std::ptrdiff_t>(n),
                  clk_.end(), 0);
    }
    root_ = other.root_;
    if (counters_) {
        counters_->copies++;
        counters_->vtWork += changed;
        counters_->dsWork += clk_.size();
    }
}

TreeClock
FlatTreeClock::toTree() const
{
    // Root r, every other nonzero entry a leaf under r stamped with
    // r's time, in ascending tid order (pushChild front-inserts, so
    // walk the tids downward).
    TreeClock star;
    const std::size_t n = clk_.size();
    star.ensure(n);
    std::copy(clk_.begin(), clk_.end(), star.seg(TreeClock::kClk));
    if (root_ == kNoTid)
        return star;
    const auto ri = static_cast<std::size_t>(root_);
    star.root_ = root_;
    star.links(TreeClock::kParent)[ri] = kNoTid;
    for (std::size_t i = n; i-- > 0;) {
        if (i == ri || clk_[i] == 0)
            continue;
        star.seg(TreeClock::kAclk)[i] = clk_[ri];
        star.pushChild(static_cast<Tid>(i), root_);
    }
    return star;
}

void
FlatTreeClock::serialize(ByteSink &out) const
{
    toTree().serialize(out);
}

bool
FlatTreeClock::deserialize(ByteSource &in)
{
    // Validate the blob as a tree, whatever shape it holds; then keep
    // the root and the timestamps. A rejected blob leaves this clock
    // empty; the configured sinks stay attached.
    TreeClock tree;
    if (!tree.deserialize(in)) {
        root_ = kNoTid;
        clk_.clear();
        return false;
    }
    const Clk *tclk = tree.seg(TreeClock::kClk);
    clk_.assign(tclk, tclk + tree.size());
    root_ = tree.root_;
    updateAccounting();
    return true;
}

} // namespace tc
