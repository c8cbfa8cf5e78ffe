/**
 * @file
 * The tree clock data structure (paper §3, Algorithm 2).
 *
 * A tree clock stores the same vector time as a vector clock, but as
 * a rooted tree whose structure remembers how times were learned
 * transitively. A node is (tid, clk, aclk): clk is the last known
 * local time of tid, aclk is the parent's local time when this node
 * was (re)attached. Children are kept in descending aclk order.
 *
 * Join and MonotoneCopy exploit two pruning principles (§3.1):
 *  - direct monotonicity: if the operand's node for thread u has not
 *    progressed past what we know, nothing in its subtree has either,
 *    so the traversal skips the whole subtree;
 *  - indirect monotonicity: children are attached in increasing aclk
 *    order over time, so once a non-progressed child's aclk is
 *    already covered by our knowledge of the parent, all remaining
 *    (older) siblings are covered too and the child scan stops.
 *
 * Both routines therefore run in time proportional to the entries
 * that actually change (Theorem 1: total accessed entries over a run
 * are at most 3·VTWork).
 *
 * MonotoneCopy bounds its walk. A stale copy target (SHB's lock and
 * last-write clocks) can need nearly the whole tree relinked, one
 * node at a time, each node a handful of random accesses over the
 * link arrays. So once ⌈k/8⌉ progressed nodes have been found, the
 * walk stops and the copy finishes as one flat block copy of all k
 * entries. At that point at least ⌈k/8⌉ entries are known to change,
 * so the k touches cost at most 8x that copy's VTWork and the work
 * stays O(VTWork). The ablation policies never take the block copy.
 *
 * Implementation follows the paper's §6 notes: "the tree clock data
 * structure is represented as two arrays of length k, the first one
 * encoding the shape of the tree and the second one encoding the
 * integer timestamps as in a standard vector clock". Here the clk
 * segment is that flat array (so Get is the same single load a vector
 * clock performs, Remark 1); the recursive traversals of Algorithm 2
 * are made iterative with an explicit node stack.
 *
 * Memory layout. The paper keeps "two arrays of length k" (§6); we
 * keep all six per-node fields in one allocation of six segments,
 * field f in the segment at word f·s: clk (so get() is one load,
 * Remark 1), aclk, parent, firstChild, nextSib, prevSib. Each
 * traversal streams only the fields it touches, 4 bytes per node
 * (the pruned-sibling scan reads aclk/nextSib alone). The single
 * block makes a clock as cheap to create and overwrite as a vector
 * clock: one allocation, and one memmove per block copy between
 * equal widths — the costs that decide MAZ's per-variable clocks.
 * The stride s is the width k, except that wide clocks pad it off a
 * multiple of 4 KiB: with s = k = 1024 the six fields of a node
 * share one L1 set, and BM_SyncRoundTrip/1024 ran twice as slow.
 * The width is stored, not derived from the block size: a division
 * on each segment access cost a fifth of that round trip.
 *
 * Scratch ownership. The traversal stack lives in a ScratchArena
 * (scratch_arena.hh): engines attach one shared arena to all their
 * clocks via setArena(); a clock without an arena uses a private
 * per-instance buffer. Either way the buffer is reused across
 * operations, so steady-state join/copy never allocates. There is
 * deliberately no process-global or thread_local scratch: clocks of
 * unrelated analyses share no mutable state.
 */

#ifndef TC_CORE_TREE_CLOCK_HH
#define TC_CORE_TREE_CLOCK_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/scratch_arena.hh"
#include "core/serial.hh"
#include "core/thread_id_map.hh"
#include "core/work_counters.hh"
#include "support/types.hh"

namespace tc {

/**
 * Tree clock. See the file comment for the data structure overview.
 *
 * Usage discipline (all asserted where affordable):
 *  - Thread clocks are built with the owning constructor; auxiliary
 *    clocks (locks, last-writes, per-thread reads) are default
 *    constructed and populated by monotoneCopy/copyCheckMonotone.
 *  - join(o) requires an initialized clock and must not be handed an
 *    operand claiming to know this clock's root thread beyond the
 *    root's own time ("a thread cannot learn its own future").
 *  - monotoneCopy(o) requires this ⊑ o. Under the HB/SHB/MAZ
 *    algorithms the old root is always repositioned by the traversal
 *    (paper Lemma 5); for ad-hoc call sequences where it is not, we
 *    fall back to a linear deepCopy and count it in
 *    WorkCounters::fallbackCopies, keeping the structure correct for
 *    any monotone copy.
 */
class TreeClock
{
  public:
    /**
     * Traversal pruning policy — ablation hook (DESIGN.md §8).
     * Full is the paper's Algorithm 2; NoIndirect drops the aclk
     * sibling cut; NoPruning also descends into non-progressed
     * subtrees (isolating pure tree overhead).
     */
    enum class JoinPolicy : std::uint8_t
    {
        Full,
        NoIndirect,
        NoPruning,
    };

    /** Auxiliary (empty) clock; Get(t) = 0 for all t. */
    TreeClock() = default;

    /** Init(t): thread clock rooted at (t, 0, ⊥). */
    explicit TreeClock(Tid owner, std::size_t capacity = 0);

    /** Attach a work-counter sink (nullptr detaches). Storage
     * already held is credited to the new sink's resident-byte
     * gauge; growth and release account incrementally from there
     * (never in destructors, so moves cannot double-count). */
    void
    setCounters(WorkCounters *counters)
    {
        counters_ = counters;
        accounted_ = 0;
        updateAccounting();
    }

    /**
     * Share a traversal scratch arena (nullptr reverts to the
     * private per-clock buffer). The arena must outlive this clock;
     * see scratch_arena.hh for the ownership rules.
     */
    void setArena(ScratchArena *arena) { arena_ = arena; }

    void setPolicy(JoinPolicy policy) { policy_ = policy; }
    JoinPolicy policy() const { return policy_; }

    /**
     * Attach the analysis-wide external-id map (nullptr detaches).
     * While the map is inactive (no lifecycle event yet) every read
     * takes the plain single-load path; once active, get() and
     * toVector() translate external ids through it (thread_id_map.hh
     * explains the slot/bias/cap scheme). The map must outlive this
     * clock; structural operations (join/copy/increment) are
     * unaffected — they work in slot space either way.
     */
    void setIdMap(const ThreadIdMap *map) { idMap_ = map; }

    /**
     * Get(t): time of external thread @p t, 0 when unknown. Without
     * an active id map this is the same single array load a vector
     * clock pays (absent threads hold 0 in the flat timestamp
     * array); with one it is a record lookup plus a clamp.
     */
    Clk
    get(Tid t) const
    {
        if (idMap_ && idMap_->active()) {
            const ThreadIdMap::Record r = idMap_->lookup(t);
            if (r.slot == kNoTid)
                return 0;
            const Clk raw = rawGet(r.slot);
            if (raw <= r.bias)
                return 0;
            const Clk ext = raw - r.bias;
            return ext > r.cap ? r.cap : ext;
        }
        return rawGet(t);
    }

    /**
     * Time stored for internal slot @p t — the cumulative occupancy
     * time when an id map is active, identical to get() otherwise.
     * This is the coordinate system all structural operations and
     * cross-clock comparisons use.
     */
    Clk
    rawGet(Tid t) const
    {
        // clk is segment 0.
        const auto i = static_cast<std::size_t>(t);
        return i < width_.k ? block_[i] : 0;
    }

    /** Root's thread id (kNoTid when empty). */
    Tid rootTid() const { return root_; }

    /** Root's own time (the owner's local clock for thread clocks). */
    Clk
    localClk() const
    {
        return root_ == kNoTid
                   ? 0
                   : block_[static_cast<std::size_t>(root_)];
    }

    bool empty() const { return root_ == kNoTid; }

    /** Increment(i): bump the root thread's time. */
    void increment(Clk delta);

    /**
     * LessThan of Algorithm 2: O(1) root-entry test, exact whenever
     * the two clocks evolved inside one analysis (by direct
     * monotonicity, Lemma 3, the root entry dominates the tree).
     */
    bool
    lessThanOrEqual(const TreeClock &other) const
    {
        return root_ == kNoTid || localClk() <= other.rawGet(root_);
    }

    /** Exact pointwise comparison for arbitrary clocks. O(k). */
    bool lessThanOrEqualExact(const TreeClock &other) const;

    /** Join of Algorithm 2: this ← this ⊔ other, sublinear. */
    void join(const TreeClock &other);

    /**
     * join() with pruning disabled for this one call — a full
     * descent of the operand that transplants every progressed
     * node. Required exactly once per slot reuse: right after
     * resetToRoot() the clock's root entry is a synthetic bias, not
     * causally acquired knowledge, so direct-monotonicity pruning
     * against it could skip operand subtrees hanging under the
     * recycled slot's stale node. One full-descent publish restores
     * the causal premise (the creator covered the previous
     * occupant's final clock, so everything any stale subtree holds
     * is transplanted here), and every later join can prune again.
     */
    void
    joinFull(const TreeClock &other)
    {
        const JoinPolicy saved = policy_;
        policy_ = JoinPolicy::NoPruning;
        join(other);
        policy_ = saved;
    }

    /**
     * MonotoneCopy of Algorithm 2: this ← other given this ⊑ other,
     * sublinear. Under JoinPolicy::Full the walk stops once ⌈k/8⌉
     * progressed nodes are found (k = other.size()) and finishes
     * with deepCopy(other); the dsWork charged is then the nodes
     * examined plus the entries the block copy writes (see the
     * file comment).
     */
    void monotoneCopy(const TreeClock &other);

    /**
     * CopyCheckMonotone (§5.1): O(1) monotonicity test, then either
     * a sublinear MonotoneCopy or a linear deep copy. Returns true
     * when the monotone (cheap) path was taken — SHB uses the false
     * case as its write-read race witness.
     */
    bool copyCheckMonotone(const TreeClock &other);

    /** Unconditional linear copy of @p other's tree. */
    void deepCopy(const TreeClock &other);

    /**
     * Recycle this clock object for a new occupant of slot
     * @p owner: drop the whole tree and become the single-node
     * clock (owner, @p start, ⊥). @p start is the occupancy bias —
     * the raw value at which the new thread's time begins (see
     * thread_id_map.hh). With start == 0 this is equivalent to
     * constructing a fresh thread clock. Counters/arena/policy/map
     * wiring is preserved; no memory is returned (the arrays are
     * about to be repopulated).
     */
    void resetToRoot(Tid owner, Clk start);

    /** Materialize the vector time, externally indexed when an id
     * map is active (at least @p min_threads wide). */
    std::vector<Clk> toVector(std::size_t min_threads = 0) const;

    /** toVector into caller storage, reusing its capacity (the
     * sharded-analysis clock bank publishes through this on every
     * sync event; no allocation in steady state). */
    void toVectorInto(std::vector<Clk> &out,
                      std::size_t min_threads = 0) const;

    /** Number of addressable thread ids (each segment's length). */
    std::size_t size() const { return width_.k; }

    /** Number of threads present in the tree. O(k). */
    std::size_t nodeCount() const;

    /** @name Introspection (tests, debugging, examples)
     * @{ */
    bool
    hasThread(Tid t) const
    {
        const auto i = static_cast<std::size_t>(t);
        return i < size() &&
               (t == root_ || links(kParent)[i] != kAbsent);
    }
    /** Parent thread of @p t's node (kNoTid for root/absent). */
    Tid parentOf(Tid t) const;
    /** Attachment time of @p t's node (0 for the root). */
    Clk aclkOf(Tid t) const;
    /** Children of @p t's node, in stored (descending aclk) order. */
    std::vector<Tid> childrenOf(Tid t) const;
    /** Safety-net deep copies taken by this instance (see class
     * comment); 0 under algorithm usage. */
    std::uint64_t fallbackCopies() const { return fallbackCopies_; }
    /**
     * Validate all structural invariants: single root, consistent
     * parent/sibling links, descending-aclk child lists,
     * aclk ≤ parent clk, and reachability of every present node.
     * Returns an empty string when healthy, else a diagnostic.
     */
    std::string checkInvariants() const;
    /** Render the tree as an indented multi-line string. */
    std::string toString() const;
    /** @} */

    /** @name Checkpoint serialization (core/serial.hh)
     *
     * serialize() writes the logical clock state: root, tree shape
     * and timestamps. The configured sinks — counters, arena,
     * join policy — are wiring, not state; deserialize() leaves
     * them untouched. deserialize() validates sizes and re-runs
     * checkInvariants(), returning false (and failing @p in,
     * leaving this clock empty) on any malformed input, so a
     * corrupted snapshot can never produce a structurally broken
     * clock.
     * @{ */
    void serialize(ByteSink &out) const;
    bool deserialize(ByteSource &in);
    /** @} */

    static constexpr const char *kName = "TC";

  private:
    /** Sentinel parent for threads that were never in the tree. */
    static constexpr Tid kAbsent = -2;

    /** Widen every segment to @p n slots (inline: usually a no-op). */
    void
    ensure(std::size_t n)
    {
        if (size() < n)
            grow(n);
    }
    /** The growth itself: one allocation for all six segments. */
    void grow(std::size_t n);
    /** Front-insert @p child under @p parent (pushChild). */
    void pushChild(Tid child, Tid parent);
    /** Unlink @p t from its parent's child list. */
    void detachFromParent(Tid t);

    /** gatherUpdated limit that never stops the walk. */
    static constexpr std::size_t kNoLimit = SIZE_MAX;

    /**
     * getUpdatedNodesJoin / getUpdatedNodesCopy: collect into @p S
     * (pre-order) the operand's nodes to transplant, and unlink them
     * from this tree once the walk completes. @p z_tid is the old
     * root for copies (kNoTid for joins). Returns true when the walk
     * stopped early because @p limit progressed non-root nodes had
     * entered S; nothing is unlinked then, as the caller overwrites
     * the whole tree with a block copy.
     */
    bool gatherUpdated(const TreeClock &other, std::vector<Tid> &S,
                       bool is_copy, Tid z_tid,
                       std::uint64_t &examined, std::size_t limit);
    /** Transplant S (popped in reverse) mirroring other's shape;
     * returns the number of clk entries whose value changed. */
    std::uint64_t attachNodes(const TreeClock &other,
                              std::vector<Tid> &S);

    /** Traversal stack: shared arena when attached, else private. */
    std::vector<Tid> &
    scratch()
    {
        return arena_ ? arena_->stack : ownScratch_;
    }

    /** Bytes per addressable slot: six 32-bit fields. */
    static constexpr std::uint64_t kBytesPerSlot = 6 * sizeof(Clk);

    /** Sync the counter sink's resident-byte gauge with the current
     * block size (growth-only; shrinking never happens). */
    void
    updateAccounting()
    {
        if (!counters_)
            return;
        const std::uint64_t now = size() * kBytesPerSlot;
        if (now > accounted_) {
            counters_->addClockBytes(now - accounted_);
            accounted_ = now;
        }
    }

    /** The block's segments, in order; segment f starts at f·s. */
    enum Field : std::size_t
    {
        kClk,        ///< flat timestamps (hot)
        kAclk,       ///< attachment times
        kParent,     ///< kAbsent = never present
        kFirstChild, ///< head of child list
        kNextSib,    ///< next sibling (smaller aclk)
        kPrevSib,    ///< previous sibling
        kFields,
    };
    /** Value of each field in a slot whose thread is absent. */
    static constexpr Tid kFieldDefault[kFields] = {
        0, 0, kAbsent, kNoTid, kNoTid, kNoTid};

    /** Fill slots [@p from, @p to) of every segment with the
     * absent-thread defaults. */
    void clearSlots(std::size_t from, std::size_t to);

    /** Segment stride for width @p k (see the file comment). */
    static constexpr std::size_t
    strideFor(std::size_t k)
    {
        return k < 512 ? k : k | 16;
    }
    Clk *seg(Field f) { return block_.data() + f * width_.stride; }
    const Clk *
    seg(Field f) const
    {
        return block_.data() + f * width_.stride;
    }
    // The link segments hold Tids; int32/uint32 may alias.
    Tid *links(Field f) { return reinterpret_cast<Tid *>(seg(f)); }
    const Tid *
    links(Field f) const
    {
        return reinterpret_cast<const Tid *>(seg(f));
    }

    /** All node storage: kFields segments of strideFor(size())
     * words each, one allocation (see the file comment). */
    std::vector<Clk> block_;
    /** size() and its segment stride. A move hands them over with
     * block_ and leaves zeros behind, so a moved-from clock reads as
     * empty, as block_ does. */
    struct Width
    {
        std::size_t k = 0, stride = 0;
        Width() = default;
        explicit Width(std::size_t n) : k(n), stride(strideFor(n)) {}
        Width(const Width &) = default;
        Width &operator=(const Width &) = default;
        Width(Width &&o) noexcept : Width(o) { o.k = o.stride = 0; }
        Width &
        operator=(Width &&o) noexcept
        {
            k = std::exchange(o.k, 0);
            stride = std::exchange(o.stride, 0);
            return *this;
        }
    } width_;

    Tid root_ = kNoTid;
    WorkCounters *counters_ = nullptr;
    ScratchArena *arena_ = nullptr;
    const ThreadIdMap *idMap_ = nullptr;
    JoinPolicy policy_ = JoinPolicy::Full;
    std::uint64_t fallbackCopies_ = 0;
    /** Bytes already credited to counters_ (resident-byte gauge). */
    std::uint64_t accounted_ = 0;
    /** Fallback traversal stack when no arena is attached. */
    std::vector<Tid> ownScratch_;
};

} // namespace tc

#endif // TC_CORE_TREE_CLOCK_HH
