#include "core/tree_clock.hh"

#include <algorithm>

#include "support/assert.hh"
#include "support/strings.hh"

namespace tc {

TreeClock::TreeClock(Tid owner, std::size_t capacity)
{
    TC_CHECK(owner >= 0, "thread clock owner must be a valid tid");
    ensure(std::max<std::size_t>(capacity,
                                 static_cast<std::size_t>(owner) + 1));
    root_ = owner;
    links(kParent)[static_cast<std::size_t>(owner)] = kNoTid;
}

void
TreeClock::clearSlots(std::size_t from, std::size_t to)
{
    for (std::size_t f = 0; f < kFields; f++) {
        Clk *s = seg(static_cast<Field>(f));
        std::fill(s + from, s + to, static_cast<Clk>(kFieldDefault[f]));
    }
}

void
TreeClock::grow(std::size_t n)
{
    // Each old segment moves to its new offset and the new slots
    // read as absent.
    const std::size_t old = size();
    const std::size_t stride = strideFor(n);
    std::vector<Clk> grown(kFields * stride);
    for (std::size_t f = 0; f < kFields; f++)
        std::copy_n(seg(static_cast<Field>(f)), old,
                    grown.data() + f * stride);
    block_.swap(grown);
    width_ = Width(n);
    clearSlots(old, n);
    updateAccounting();
}

void
TreeClock::resetToRoot(Tid owner, Clk start)
{
    TC_CHECK(owner >= 0, "thread clock owner must be a valid tid");
    clearSlots(0, size());
    ensure(static_cast<std::size_t>(owner) + 1);
    root_ = owner;
    const auto o = static_cast<std::size_t>(owner);
    links(kParent)[o] = kNoTid;
    seg(kClk)[o] = start;
}

void
TreeClock::increment(Clk delta)
{
    TC_CHECK(root_ != kNoTid,
             "increment() requires an initialized thread clock");
    seg(kClk)[static_cast<std::size_t>(root_)] += delta;
    if (counters_) {
        counters_->increments++;
        counters_->vtWork++;
        counters_->dsWork++;
    }
}

bool
TreeClock::lessThanOrEqualExact(const TreeClock &other) const
{
    for (std::size_t i = 0; i < size(); i++) {
        if (seg(kClk)[i] > other.rawGet(static_cast<Tid>(i)))
            return false;
    }
    return true;
}

void
TreeClock::pushChild(Tid child, Tid parent)
{
    const auto c = static_cast<std::size_t>(child);
    const auto p = static_cast<std::size_t>(parent);
    links(kParent)[c] = parent;
    links(kPrevSib)[c] = kNoTid;
    const Tid head = links(kFirstChild)[p];
    links(kNextSib)[c] = head;
    if (head != kNoTid)
        links(kPrevSib)[static_cast<std::size_t>(head)] = child;
    links(kFirstChild)[p] = child;
}

void
TreeClock::detachFromParent(Tid t)
{
    const auto i = static_cast<std::size_t>(t);
    const Tid prev = links(kPrevSib)[i];
    const Tid next = links(kNextSib)[i];
    if (prev != kNoTid) {
        links(kNextSib)[static_cast<std::size_t>(prev)] = next;
    } else {
        links(kFirstChild)[static_cast<std::size_t>(links(kParent)[i])] = next;
    }
    if (next != kNoTid)
        links(kPrevSib)[static_cast<std::size_t>(next)] = prev;
}

bool
TreeClock::gatherUpdated(const TreeClock &other, std::vector<Tid> &S,
                         bool is_copy, Tid z_tid,
                         std::uint64_t &examined, std::size_t limit)
{
    // Iterative rendering of getUpdatedNodesJoin/-Copy
    // (Algorithm 2, lines 36-40 and 62-69), walking the operand's
    // tree with parent-pointer backtracking — no auxiliary frame
    // stack. S is filled in pre-order; attachNodes pops it from the
    // back, which attaches later siblings first so the front-insert
    // of pushChild restores the operand's (descending-aclk) child
    // order. The walk only pushes: it reads our flat clk segment and
    // never our links, so the nodes of S are unlinked from our tree
    // after the walk, in walk order — the same edits, in the same
    // order, as unlinking each node when it enters S. A walk that
    // stops at @p limit unlinks nothing: the block copy that follows
    // overwrites every link anyway.
    //
    // The scan reads exactly five operand segments — clk (progress
    // test), aclk (indirect cut), nextSib/firstChild/parent
    // (navigation) — each a dense 4-byte stream.
    const bool use_direct = policy_ != JoinPolicy::NoPruning;
    const bool use_indirect = policy_ == JoinPolicy::Full;

    const Clk *oclk = other.seg(kClk);
    const Clk *oaclk = other.seg(kAclk);
    const Tid *oparent = other.links(kParent);
    const Tid *ofirst = other.links(kFirstChild);
    const Tid *onext = other.links(kNextSib);
    const Clk *mine = seg(kClk);
    const Tid *mparent = links(kParent);

    const Tid root = other.root_;
    S.push_back(root);
    Tid parent = root;
    Tid cur = ofirst[static_cast<std::size_t>(root)];
    std::uint64_t scans = 0;
    std::size_t moved = 0;
    while (true) {
        if (cur == kNoTid) {
            // Level exhausted: resume the parent's sibling scan.
            if (parent == root)
                break;
            cur = onext[static_cast<std::size_t>(parent)];
            parent = oparent[static_cast<std::size_t>(parent)];
            continue;
        }
        scans++;
        const auto c = static_cast<std::size_t>(cur);
        const bool progressed = mine[c] < oclk[c];
        if (progressed || !use_direct) {
            // Direct monotonicity: descend only into progressed
            // subtrees (NoPruning descends regardless but still
            // only transplants progressed nodes on joins).
            if (progressed || is_copy)
                S.push_back(cur);
            if (progressed && ++moved >= limit) {
                examined += scans;
                return true;
            }
            const Tid first = ofirst[c];
            if (first != kNoTid) {
                parent = cur;
                cur = first;
            } else {
                cur = onext[c];
            }
            continue;
        }
        if (is_copy && cur == z_tid) {
            // The copy target's old root must be repositioned even
            // though its time has not progressed (line 67).
            S.push_back(cur);
        }
        if (use_indirect &&
            oaclk[c] <= mine[static_cast<std::size_t>(parent)]) {
            // Indirect monotonicity: siblings further down the list
            // were attached no later than cur, so our view of the
            // parent already covers them (lines 39/68).
            if (parent == root)
                break;
            cur = onext[static_cast<std::size_t>(parent)];
            parent = oparent[static_cast<std::size_t>(parent)];
            continue;
        }
        cur = onext[c];
    }
    examined += scans;
    for (const Tid t : S) {
        if (t != root_ &&
            mparent[static_cast<std::size_t>(t)] != kAbsent)
            detachFromParent(t);
    }
    return false;
}

std::uint64_t
TreeClock::attachNodes(const TreeClock &other, std::vector<Tid> &S)
{
    // Iterate back-to-front: S is in pre-order, so later siblings
    // attach first and pushChild's front insertion restores the
    // operand's child order.
    const Clk *oclk = other.seg(kClk);
    const Clk *oaclk = other.seg(kAclk);
    const Tid *oparent = other.links(kParent);
    Clk *mclk = seg(kClk);
    Clk *maclk = seg(kAclk);
    Tid *mparent = links(kParent);
    Tid *mfirst = links(kFirstChild);
    Tid *mnext = links(kNextSib);
    Tid *mprev = links(kPrevSib);
    std::uint64_t changed = 0;
    for (std::size_t idx = S.size(); idx-- > 0;) {
        const auto i = static_cast<std::size_t>(S[idx]);
        const Clk new_clk = oclk[i];
        changed += mclk[i] != new_clk;
        mclk[i] = new_clk;
        const Tid parent = oparent[i];
        if (parent != kNoTid) {
            const auto p = static_cast<std::size_t>(parent);
            maclk[i] = oaclk[i];
            mparent[i] = parent;
            mprev[i] = kNoTid;
            const Tid head = mfirst[p];
            mnext[i] = head;
            if (head != kNoTid)
                mprev[static_cast<std::size_t>(head)] =
                    static_cast<Tid>(i);
            mfirst[p] = static_cast<Tid>(i);
        }
    }
    return changed;
}

void
TreeClock::join(const TreeClock &other)
{
    if (other.root_ == kNoTid) {
        // Nothing to learn from an empty clock; still an operation
        // (vector clocks count it too, over zero stored entries).
        if (counters_)
            counters_->joins++;
        return;
    }
    TC_CHECK(root_ != kNoTid,
             "join() requires an initialized thread clock");

    const Clk other_root_clk =
        other.seg(kClk)[static_cast<std::size_t>(other.root_)];
    if (rawGet(other.root_) >= other_root_clk) {
        // Root already covered: by direct monotonicity the whole
        // operand is covered (Algorithm 2, line 18).
        if (counters_) {
            counters_->joins++;
            counters_->dsWork++;
        }
        return;
    }
    TC_CHECK(other.rawGet(root_) <= localClk(),
             "join operand claims to know this thread's future");
    ensure(other.size());

    // Fast path: only the operand's root thread progressed. Its
    // first child is not ahead of us and was attached no later than
    // our knowledge of the root, so by indirect monotonicity the
    // whole remainder is covered; transplant just the root node.
    if (policy_ == JoinPolicy::Full) {
        const auto o = static_cast<std::size_t>(other.root_);
        const Tid c = other.links(kFirstChild)[o];
        if (c == kNoTid ||
            (rawGet(c) >= other.seg(kClk)[static_cast<std::size_t>(c)] &&
             other.seg(kAclk)[static_cast<std::size_t>(c)] <=
                 rawGet(other.root_))) {
            if (links(kParent)[o] != kAbsent)
                detachFromParent(other.root_);
            seg(kClk)[o] = other_root_clk;
            seg(kAclk)[o] = seg(kClk)[static_cast<std::size_t>(root_)];
            pushChild(other.root_, root_);
            if (counters_) {
                // Same accounting as the generic path: root compare
                // + children examined (0 or 1) + one transplant.
                counters_->joins++;
                counters_->vtWork += 1;
                counters_->dsWork += 2 + (c != kNoTid);
            }
            return;
        }
    }

    std::vector<Tid> &S = scratch();
    S.clear();

    std::uint64_t examined = 0;
    gatherUpdated(other, S, false, kNoTid, examined, kNoLimit);
    const std::uint64_t transplanted = S.size();
    const std::uint64_t changed = attachNodes(other, S);

    // Hang the transplanted subtree under our root, stamped with the
    // current root time (Algorithm 2, lines 24-27).
    seg(kAclk)[static_cast<std::size_t>(other.root_)] =
        seg(kClk)[static_cast<std::size_t>(root_)];
    pushChild(other.root_, root_);

    if (counters_) {
        counters_->joins++;
        counters_->vtWork += changed;
        counters_->dsWork += 1 + examined + transplanted;
    }
}

void
TreeClock::monotoneCopy(const TreeClock &other)
{
    if (other.root_ == kNoTid) {
        TC_CHECK(root_ == kNoTid,
                 "monotoneCopy from an empty clock onto a non-empty "
                 "one violates this ⊑ other");
        return;
    }
    if (root_ == kNoTid) {
        // First population of an auxiliary clock: plain linear copy.
        deepCopy(other);
        return;
    }
    TC_ASSERT(lessThanOrEqualExact(other),
              "monotoneCopy requires this ⊑ other");
    ensure(other.size());

    // Fast path: same root thread and only its time progressed
    // (the common shape for last-write and read clocks refreshed by
    // the same thread). By indirect monotonicity the first child's
    // coverage extends to all siblings, so the copy is one store.
    if (policy_ == JoinPolicy::Full && other.root_ == root_) {
        const auto i = static_cast<std::size_t>(root_);
        const Tid c = other.links(kFirstChild)[i];
        if (c == kNoTid ||
            (rawGet(c) >= other.seg(kClk)[static_cast<std::size_t>(c)] &&
             other.seg(kAclk)[static_cast<std::size_t>(c)] <= seg(kClk)[i])) {
            const std::uint64_t changed = seg(kClk)[i] != other.seg(kClk)[i];
            seg(kClk)[i] = other.seg(kClk)[i];
            if (counters_) {
                // Same accounting as the generic path: children
                // examined (0 or 1) + the root transplant.
                counters_->copies++;
                counters_->vtWork += changed;
                counters_->dsWork += 1 + (c != kNoTid);
            }
            return;
        }
    }

    std::vector<Tid> &S = scratch();
    S.clear();

    // Bounded walk (see the file comment); the ablation policies
    // keep the pure Algorithm 2 walk.
    const std::size_t limit =
        policy_ == JoinPolicy::Full ? (other.size() + 7) / 8
                                    : kNoLimit;
    std::uint64_t examined = 0;
    const bool limited =
        gatherUpdated(other, S, true, root_, examined, limit);
    // A walk that hit the limit unlinked nothing, and the block copy
    // overwrites the whole tree. A walk that never met our old root
    // cannot reposition it without breaking reachability; that
    // cannot happen under the HB/SHB/MAZ usage discipline (Lemma 5),
    // so ad-hoc users stay correct via the same linear path.
    const bool lost_root =
        !limited && root_ != other.root_ &&
        std::find(S.begin(), S.end(), root_) == S.end();
    if (limited || lost_root) {
        fallbackCopies_ += lost_root;
        if (counters_) {
            counters_->fallbackCopies += lost_root;
            counters_->dsWork += examined;
        }
        deepCopy(other);
        return;
    }

    const std::uint64_t transplanted = S.size();
    const std::uint64_t changed = attachNodes(other, S);

    root_ = other.root_;
    const auto r = static_cast<std::size_t>(root_);
    links(kParent)[r] = kNoTid;
    seg(kAclk)[r] = 0;
    links(kNextSib)[r] = kNoTid;
    links(kPrevSib)[r] = kNoTid;

    if (counters_) {
        counters_->copies++;
        counters_->vtWork += changed;
        counters_->dsWork += examined + transplanted;
    }
}

bool
TreeClock::copyCheckMonotone(const TreeClock &other)
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
TreeClock::deepCopy(const TreeClock &other)
{
    // Entries whose value changes: slots both clocks address, then
    // the operand's slots past our width and ours past its width
    // (either side reads 0 beyond its width).
    const std::size_t n = other.size();
    const std::size_t k = size();
    const std::size_t common = std::min(n, k);
    const Clk *oclk = other.seg(kClk);
    const Clk *mine = seg(kClk);
    std::uint64_t changed = 0;
    for (std::size_t i = 0; i < common; i++)
        changed += mine[i] != oclk[i];
    for (std::size_t i = common; i < n; i++)
        changed += oclk[i] != 0;
    for (std::size_t i = common; i < k; i++)
        changed += mine[i] != 0;
    if (k <= n) {
        // Equal widths (the steady state) copy the whole block in
        // one memmove; a narrower target takes the operand's width
        // in one allocation.
        block_.assign(other.block_.begin(), other.block_.end());
        width_ = other.width_;
        updateAccounting();
    } else {
        // A wider target keeps its width: each segment lands at its
        // own offset and the slots past the operand's read absent.
        for (std::size_t f = 0; f < kFields; f++)
            std::copy_n(other.seg(static_cast<Field>(f)), n,
                        seg(static_cast<Field>(f)));
        clearSlots(n, k);
    }
    root_ = other.root_;
    if (counters_) {
        counters_->copies++;
        counters_->vtWork += changed;
        counters_->dsWork += size();
    }
}

std::vector<Clk>
TreeClock::toVector(std::size_t min_threads) const
{
    std::vector<Clk> out;
    toVectorInto(out, min_threads);
    return out;
}

void
TreeClock::toVectorInto(std::vector<Clk> &out,
                        std::size_t min_threads) const
{
    if (idMap_ && idMap_->active()) {
        // External index space: project each mapped id through its
        // slot/bias/cap record so the vector time reads in trace
        // ids, exactly like a flat vector clock's.
        const std::size_t exts = idMap_->extCount();
        out.assign(std::max(exts, min_threads), 0);
        for (std::size_t t = 0; t < exts; t++)
            out[t] = get(static_cast<Tid>(t));
        return;
    }
    out.assign(std::max(size(), min_threads), 0);
    std::copy_n(seg(kClk), size(), out.begin());
}

std::size_t
TreeClock::nodeCount() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < size(); i++)
        n += hasThread(static_cast<Tid>(i));
    return n;
}

Tid
TreeClock::parentOf(Tid t) const
{
    if (!hasThread(t))
        return kNoTid;
    const Tid p = links(kParent)[static_cast<std::size_t>(t)];
    return p == kAbsent ? kNoTid : p;
}

Clk
TreeClock::aclkOf(Tid t) const
{
    return hasThread(t) && t != root_
               ? seg(kAclk)[static_cast<std::size_t>(t)]
               : 0;
}

std::vector<Tid>
TreeClock::childrenOf(Tid t) const
{
    std::vector<Tid> out;
    if (!hasThread(t))
        return out;
    for (Tid c = links(kFirstChild)[static_cast<std::size_t>(t)];
         c != kNoTid; c = links(kNextSib)[static_cast<std::size_t>(c)]) {
        out.push_back(c);
    }
    return out;
}

std::string
TreeClock::checkInvariants() const
{
    const std::size_t present = nodeCount();
    if (root_ == kNoTid) {
        if (present != 0)
            return "empty clock has present nodes";
        return "";
    }
    if (!hasThread(root_))
        return "root is not present";
    if (links(kParent)[static_cast<std::size_t>(root_)] != kNoTid)
        return "root has a parent";

    // Walk the tree from the root, verifying link consistency and
    // the descending-aclk child order on the way.
    std::vector<Tid> stack{root_};
    std::size_t reached = 0;
    std::vector<bool> seen(size(), false);
    while (!stack.empty()) {
        const Tid u = stack.back();
        stack.pop_back();
        if (seen[static_cast<std::size_t>(u)])
            return strFormat("node t%d reached twice (cycle)", u);
        seen[static_cast<std::size_t>(u)] = true;
        reached++;

        Clk prev_aclk = 0;
        bool first = true;
        Tid prev = kNoTid;
        for (Tid c = links(kFirstChild)[static_cast<std::size_t>(u)];
             c != kNoTid; c = links(kNextSib)[static_cast<std::size_t>(c)]) {
            const auto ci = static_cast<std::size_t>(c);
            if (!hasThread(c))
                return strFormat("child t%d of t%d not present", c,
                                 u);
            if (links(kParent)[ci] != u)
                return strFormat("child t%d has wrong parent", c);
            if (links(kPrevSib)[ci] != prev)
                return strFormat("broken prevSib link at t%d", c);
            if (!first && seg(kAclk)[ci] > prev_aclk) {
                return strFormat(
                    "children of t%d not in descending aclk order",
                    u);
            }
            if (seg(kAclk)[ci] > seg(kClk)[static_cast<std::size_t>(u)]) {
                return strFormat(
                    "child t%d attached later (%u) than parent time "
                    "(%u)", c, seg(kAclk)[ci],
                    seg(kClk)[static_cast<std::size_t>(u)]);
            }
            prev_aclk = seg(kAclk)[ci];
            first = false;
            prev = c;
            stack.push_back(c);
        }
    }
    if (reached != present) {
        return strFormat(
            "%zu nodes present but only %zu reachable from root",
            present, reached);
    }
    return "";
}

void
TreeClock::serialize(ByteSink &out) const
{
    // One length-prefixed array per segment: the six-array layout
    // that .tcsnap files pin.
    out.putI32(root_);
    out.putU64(fallbackCopies_);
    for (std::size_t f = 0; f < kFields; f++) {
        out.putU64(size());
        out.putBytes(seg(static_cast<Field>(f)), size() * sizeof(Clk));
    }
}

bool
TreeClock::deserialize(ByteSource &in)
{
    Tid root = kNoTid;
    std::uint64_t fallback = 0;
    if (!in.getI32(root) || !in.getU64(fallback))
        return false;
    // Reject before mutating: all six arrays must agree, the root
    // must be addressable, and absent nodes must read as time 0
    // (get() serves straight from the clk segment).
    std::vector<Clk> block, segment;
    std::size_t n = 0;
    for (std::size_t f = 0; f < kFields; f++) {
        if (!in.getVec(segment))
            return false;
        if (f == 0)
            n = segment.size();
        else if (segment.size() != n)
            return in.fail();
        block.insert(block.end(), segment.begin(), segment.end());
    }
    if (root != kNoTid &&
        (root < 0 || static_cast<std::size_t>(root) >= n))
        return in.fail();
    const Clk *parent_seg = block.data() + kParent * n;
    for (std::size_t i = 0; i < n; i++) {
        if (parent_seg[i] == static_cast<Clk>(kAbsent) &&
            static_cast<Tid>(i) != root && block[i] != 0)
            return in.fail();
    }

    root_ = root;
    fallbackCopies_ = fallback;
    block_.clear();
    width_ = Width{};
    ensure(n);
    for (std::size_t f = 0; f < kFields; f++)
        std::copy_n(block.data() + f * n, n, seg(static_cast<Field>(f)));
    if (!checkInvariants().empty()) {
        // Leave a rejected clock empty rather than structurally
        // broken; the configured sinks stay attached.
        root_ = kNoTid;
        block_.clear();
        width_ = Width{};
        return in.fail();
    }
    return true;
}

std::string
TreeClock::toString() const
{
    if (root_ == kNoTid)
        return "(empty tree clock)\n";
    std::string out;
    // Depth-first render; stack of (tid, depth).
    std::vector<std::pair<Tid, int>> stack{{root_, 0}};
    while (!stack.empty()) {
        const auto [u, depth] = stack.back();
        stack.pop_back();
        out += std::string(static_cast<std::size_t>(depth) * 2, ' ');
        if (u == root_) {
            out += strFormat("(t%d, %u, _)\n", u,
                             seg(kClk)[static_cast<std::size_t>(u)]);
        } else {
            out += strFormat("(t%d, %u, %u)\n", u,
                             seg(kClk)[static_cast<std::size_t>(u)],
                             seg(kAclk)[static_cast<std::size_t>(u)]);
        }
        // Push children reversed so the first child prints first.
        const auto kids = childrenOf(u);
        for (auto it = kids.rbegin(); it != kids.rend(); ++it)
            stack.push_back({*it, depth + 1});
    }
    return out;
}

} // namespace tc
