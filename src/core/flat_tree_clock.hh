/**
 * @file
 * The per-variable clock of the SHB and MAZ tree-clock engines.
 *
 * SHB's LW_x and MAZ's LW_x and R_{t,x} are almost only copy
 * targets: a thread clock is copied into them (monotoneCopy,
 * copyCheckMonotone), and a thread clock's join from them nearly
 * always stops at the O(1) root test. A full TreeClock there stores
 * a shape that is almost never read, and a stale copy rewrites all
 * six segments of its block (3 KB at k = 128). A FlatTreeClock keeps
 * the root and the clk segment only: k words in one allocation, like
 * a vector clock.
 *
 *  - A copy into it runs TreeClock's bounded walk of the operand
 *    (the walk reads only our clk) and writes the progressed entries
 *    alone, or all k entries once the walk reaches the ⌈k/8⌉ limit.
 *    dsWork is the nodes examined plus the entries written.
 *  - It stands for a star: its root r is the last copier, and every
 *    other known thread (nonzero entry) is a leaf under r with
 *    aclk = clk[r], children in ascending tid order. Every flat clock
 *    is a copy of r's thread clock at time clk[r], so r knew all of
 *    it by then and the star is a valid tree clock.
 *    TreeClock::join(const FlatTreeClock &) is Algorithm 2's join
 *    over that star.
 *  - serialize() writes the star in TreeClock's six-array layout;
 *    deserialize() validates any TreeClock blob as a tree and then
 *    keeps its root and timestamps, so snapshots whose per-variable
 *    clocks hold a full tree still restore.
 *
 * A FlatTreeClock is never a join target or a thread clock; the type
 * rules that out. Engines pick it through VarClockFor
 * (engine_support.hh).
 */

#ifndef TC_CORE_FLAT_TREE_CLOCK_HH
#define TC_CORE_FLAT_TREE_CLOCK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/scratch_arena.hh"
#include "core/serial.hh"
#include "core/thread_id_map.hh"
#include "core/tree_clock.hh"
#include "core/work_counters.hh"
#include "support/types.hh"

namespace tc {

/** Root and timestamps of a tree clock; see the file comment. */
class FlatTreeClock
{
  public:
    using JoinPolicy = TreeClock::JoinPolicy;

    /** Empty clock; get(t) = 0 for all t. */
    FlatTreeClock() = default;

    /** Attach a work-counter sink; see TreeClock::setCounters. */
    void
    setCounters(WorkCounters *counters)
    {
        counters_ = counters;
        accounted_ = 0;
        updateAccounting();
    }

    /** Share a traversal scratch arena (TreeClock::setArena). */
    void setArena(ScratchArena *arena) { arena_ = arena; }

    /** Walk policy of copies into this clock (ablation hook). */
    void setPolicy(JoinPolicy policy) { policy_ = policy; }

    /** Attach the external-id map (TreeClock::setIdMap). */
    void setIdMap(const ThreadIdMap *map) { idMap_ = map; }

    /** Time of external thread @p t (TreeClock::get). */
    Clk
    get(Tid t) const
    {
        return idMap_ && idMap_->active()
                   ? idMap_->read(t, clk_.data(), clk_.size())
                   : rawGet(t);
    }

    /** Time stored for internal slot @p t. */
    Clk
    rawGet(Tid t) const
    {
        const auto i = static_cast<std::size_t>(t);
        return i < clk_.size() ? clk_[i] : 0;
    }

    /** The last copier (kNoTid when empty). */
    Tid rootTid() const { return root_; }

    /** The root's time: the copier's local time at the copy. */
    Clk
    localClk() const
    {
        return root_ == kNoTid ? 0
                               : clk_[static_cast<std::size_t>(root_)];
    }

    bool empty() const { return root_ == kNoTid; }

    /** Number of addressable thread ids. */
    std::size_t size() const { return clk_.size(); }

    /** O(1) root test of TreeClock::lessThanOrEqual. */
    bool
    lessThanOrEqual(const TreeClock &other) const
    {
        return root_ == kNoTid || localClk() <= other.rawGet(root_);
    }

    /** this ← other given this ⊑ other: TreeClock's bounded walk,
     * writing the progressed entries (see the file comment). */
    void monotoneCopy(const TreeClock &other);

    /** TreeClock::copyCheckMonotone: the O(1) test, then a
     * monotone or a deep copy; true on the monotone path. */
    bool copyCheckMonotone(const TreeClock &other);

    /** Unconditional copy of @p other's k timestamps. */
    void deepCopy(const TreeClock &other);

    /** The star this clock stands for, as a tree clock. */
    TreeClock toTree() const;

    /** @name Checkpoint serialization (see the file comment)
     * @{ */
    void serialize(ByteSink &out) const;
    bool deserialize(ByteSource &in);
    /** @} */

  private:
    /** TreeClock::join reads the timestamps directly. */
    friend class TreeClock;

    /** Traversal stack: shared arena when attached, else private. */
    std::vector<Tid> &
    scratch()
    {
        return arena_ ? arena_->stack : ownScratch_;
    }

    /** Sync the resident-byte gauge: one word per slot. */
    void
    updateAccounting()
    {
        if (!counters_)
            return;
        const std::uint64_t now = clk_.size() * sizeof(Clk);
        if (now > accounted_) {
            counters_->addClockBytes(now - accounted_);
            accounted_ = now;
        }
    }

    /** Pointwise this ⊑ other (the monotone copy's precondition). */
    bool coveredBy(const TreeClock &other) const;

    std::vector<Clk> clk_;
    Tid root_ = kNoTid;
    WorkCounters *counters_ = nullptr;
    ScratchArena *arena_ = nullptr;
    const ThreadIdMap *idMap_ = nullptr;
    JoinPolicy policy_ = JoinPolicy::Full;
    /** Bytes already credited to counters_. */
    std::uint64_t accounted_ = 0;
    /** Fallback traversal stack when no arena is attached. */
    std::vector<Tid> ownScratch_;
};

} // namespace tc

#endif // TC_CORE_FLAT_TREE_CLOCK_HH
