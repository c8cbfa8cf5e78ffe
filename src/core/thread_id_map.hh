/**
 * @file
 * External-to-internal thread-id compaction for dynamic membership.
 *
 * Pool/task workloads create and retire unbounded numbers of
 * short-lived logical threads, but at any instant only a bounded set
 * is live. The id map keeps the clocks' internal index space ("slot"
 * space) sized to the live set by recycling the slot of a retired
 * thread for a later-created one, while external trace ids stay
 * unbounded and stable in reports.
 *
 * The translation is a per-external-id record {slot, bias, cap}:
 *
 *  - raw value: what clocks store for a slot. A slot's raw value is
 *    the *cumulative* local time across every thread that has ever
 *    occupied the slot, in occupancy order.
 *  - bias: the raw value at which this occupant's time starts — the
 *    previous occupant's final raw value. External time c of this
 *    occupant is stored as raw bias+c.
 *  - cap: kLiveCap while live; the thread's final local time after
 *    it retires. get(ext) = clamp(raw − bias, 0, cap) is then exact
 *    for every occupant of the slot, past and present: a raw value
 *    below the bias means "this clock last saw an earlier occupant"
 *    (the external value is 0), one beyond bias+cap means "a later
 *    occupant" (the retired thread's entry saturates at its final
 *    time, which is the correct vector-time entry forever after).
 *
 * Soundness of reuse rests on one condition checked at create time:
 * a freed slot s may be recycled only if the creating thread's clock
 * already covers slotBase_[s] (the previous occupant's final raw
 * value). Because every event ticks its thread's local time, covering
 * the final raw value means the creator causally saw *all* of the
 * previous occupant's events; any clock that later learns about the
 * new occupant does so through a causal chain from the create, so raw
 * values for a slot advance through the occupancy history in order
 * and never mix two occupants ambiguously.
 *
 * The map stays inactive (identity, zero overhead on clock reads)
 * until the first lifecycle event of a trace; activation backfills
 * identity records for all ids seen so far.
 *
 * One map is shared by every clock of one analysis (threads, locks,
 * vars) — slot assignment is global to the analysis, raw values are
 * per clock. Flat vector clocks deliberately do not use the map
 * (they stay external-indexed): slot recycling needs the "covered
 * subtree" reasoning above, which is the structural advantage the
 * tree shape provides.
 */

#ifndef TC_CORE_THREAD_ID_MAP_HH
#define TC_CORE_THREAD_ID_MAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/serial.hh"
#include "support/assert.hh"
#include "support/types.hh"

namespace tc {

/** External-id → (slot, bias, cap) translation. See file comment. */
class ThreadIdMap
{
  public:
    /** cap value of a live (unretired) thread: never clamps. */
    static constexpr Clk kLiveCap = ~Clk{0};

    /** Translation record for one external id. */
    struct Record
    {
        Tid slot = kNoTid; ///< internal index; kNoTid = no record
        Clk bias = 0;      ///< raw value where this occupancy starts
        Clk cap = kLiveCap; ///< final local time once retired
    };

    /** Identity mode: no lifecycle event seen yet. */
    bool active() const { return active_; }

    /** External ids with records (width of external vector times). */
    std::size_t extCount() const { return ext_.size(); }

    /** Internal slots allocated (width of the clocks' id space). */
    std::size_t slotCount() const { return slotBase_.size(); }

    /** Slots currently free for reuse. */
    std::size_t freeCount() const { return freeSlots_.size(); }

    /**
     * Leave identity mode. External ids below @p ext_seen that the
     * analysis has actually met (per @p seen; all of them when
     * @p seen is null) get identity records so existing clock
     * contents stay valid. Ids below @p ext_seen that were *never*
     * met must stay unmapped: a later lifecycle create of such an
     * id is legal, and an eager identity record would wrongly claim
     * the id already ran. Their identity slots have never held any
     * content, so they go straight onto the free list (base 0 —
     * any creator covers them).
     */
    void
    activate(std::size_t ext_seen,
             const std::uint8_t *seen = nullptr)
    {
        if (active_)
            return;
        active_ = true;
        ext_.resize(ext_seen);
        slotBase_.resize(ext_seen, 0);
        for (std::size_t t = 0; t < ext_seen; t++) {
            if (seen == nullptr || seen[t])
                ext_[t].slot = static_cast<Tid>(t);
            else
                freeSlots_.push_back(static_cast<Tid>(t));
        }
    }

    /**
     * Record for @p ext, or a default (slot == kNoTid) when none.
     * Only meaningful while active.
     */
    Record
    lookup(Tid ext) const
    {
        const auto i = static_cast<std::size_t>(ext);
        return ext >= 0 && i < ext_.size() ? ext_[i] : Record{};
    }

    /**
     * get(@p ext) of a clock whose slot times are @p raw[0, k): the
     * occupant's share of its slot time, clamp(raw − bias, 0, cap),
     * or 0 when @p ext has no record. Only meaningful while active.
     */
    Clk
    read(Tid ext, const Clk *raw, std::size_t k) const
    {
        const Record r = lookup(ext);
        if (r.slot == kNoTid)
            return 0;
        const auto s = static_cast<std::size_t>(r.slot);
        const Clk v = s < k ? raw[s] : 0;
        if (v <= r.bias)
            return 0;
        const Clk e = v - r.bias;
        return e > r.cap ? r.cap : e;
    }

    /**
     * Slot of @p ext, assigning a fresh one to a never-seen id
     * (threads that appear without a lifecycle create get a
     * zero-bias slot of their own, exactly like identity mode).
     * Identity when inactive.
     */
    Tid
    ensureExt(Tid ext)
    {
        TC_CHECK(ext >= 0, "thread id must be non-negative");
        if (!active_)
            return ext;
        const auto i = static_cast<std::size_t>(ext);
        if (i >= ext_.size())
            ext_.resize(i + 1);
        if (ext_[i].slot == kNoTid) {
            ext_[i].slot = static_cast<Tid>(slotBase_.size());
            slotBase_.push_back(0);
        }
        return ext_[i].slot;
    }

    /**
     * Assign a slot to newly created thread @p ext, recycling a
     * freed slot when @p covers(slot, requiredRaw) certifies the
     * creator's clock has seen the previous occupant's final raw
     * value. The free-list scan is capped: reuse is an optimization,
     * not a correctness requirement, and an uncovered slot stays
     * available for a later create.
     */
    template <typename Covers>
    Tid
    createExt(Tid ext, Covers &&covers)
    {
        TC_CHECK(active_, "createExt before activate()");
        TC_CHECK(ext >= 0, "thread id must be non-negative");
        const auto i = static_cast<std::size_t>(ext);
        if (i >= ext_.size())
            ext_.resize(i + 1);
        TC_CHECK(ext_[i].slot == kNoTid,
                 "lifecycle create of an already-mapped thread id");

        constexpr std::size_t kScanCap = 4;
        const std::size_t scan =
            freeSlots_.size() < kScanCap ? freeSlots_.size()
                                         : kScanCap;
        for (std::size_t k = 0; k < scan; k++) {
            const std::size_t idx = freeSlots_.size() - 1 - k;
            const Tid s = freeSlots_[idx];
            const auto si = static_cast<std::size_t>(s);
            if (covers(s, slotBase_[si])) {
                freeSlots_[idx] = freeSlots_.back();
                freeSlots_.pop_back();
                ext_[i] = Record{s, slotBase_[si], kLiveCap};
                return s;
            }
        }
        const Tid s = static_cast<Tid>(slotBase_.size());
        slotBase_.push_back(0);
        ext_[i] = Record{s, 0, kLiveCap};
        return s;
    }

    /**
     * Thread @p ext retired at final local time @p final_time: cap
     * its record and free its slot for reuse at raw value
     * bias + final_time.
     */
    void
    retireExt(Tid ext, Clk final_time)
    {
        TC_CHECK(active_, "retireExt before activate()");
        const auto i = static_cast<std::size_t>(ext);
        TC_CHECK(ext >= 0 && i < ext_.size() &&
                     ext_[i].slot != kNoTid,
                 "lifecycle retire of an unmapped thread id");
        TC_CHECK(ext_[i].cap == kLiveCap,
                 "lifecycle retire of an already-retired thread");
        Record &r = ext_[i];
        r.cap = final_time;
        const auto si = static_cast<std::size_t>(r.slot);
        slotBase_[si] = r.bias + final_time;
        freeSlots_.push_back(r.slot);
    }

    /** @name Checkpoint serialization (core/serial.hh) @{ */
    void
    serialize(ByteSink &out) const
    {
        out.putU8(active_ ? 1 : 0);
        out.putVec(ext_);
        out.putVec(slotBase_);
        out.putVec(freeSlots_);
    }

    bool
    deserialize(ByteSource &in)
    {
        std::uint8_t active = 0;
        std::vector<Record> ext;
        std::vector<Clk> slot_base;
        std::vector<Tid> free_slots;
        if (!in.getU8(active) || !in.getVec(ext) ||
            !in.getVec(slot_base) || !in.getVec(free_slots))
            return false;
        if (active > 1)
            return in.fail();
        if (!active &&
            (!ext.empty() || !slot_base.empty() ||
             !free_slots.empty()))
            return in.fail();
        const auto slots = static_cast<Tid>(slot_base.size());
        std::vector<std::uint8_t> free_mark(slot_base.size(), 0);
        for (const Tid s : free_slots) {
            if (s < 0 || s >= slots)
                return in.fail();
            if (free_mark[static_cast<std::size_t>(s)]++)
                return in.fail();
        }
        for (const Record &r : ext) {
            if (r.slot == kNoTid)
                continue;
            if (r.slot < 0 || r.slot >= slots)
                return in.fail();
        }
        active_ = active != 0;
        ext_ = std::move(ext);
        slotBase_ = std::move(slot_base);
        freeSlots_ = std::move(free_slots);
        return true;
    }
    /** @} */

  private:
    std::vector<Record> ext_;
    /** Per slot: raw value at which the current (or, for freed
     * slots, the next) occupancy starts. */
    std::vector<Clk> slotBase_;
    std::vector<Tid> freeSlots_;
    bool active_ = false;
};

} // namespace tc

#endif // TC_CORE_THREAD_ID_MAP_HH
