/**
 * @file
 * Per-variable access histories for the race-detection analysis.
 *
 * AccessHistory is the FastTrack-style adaptive state: the last write
 * as an epoch, and reads as a single epoch while one suffices
 * (reads totally ordered so far), promoted to a flat per-thread
 * vector once reads become concurrent. FlatAccessHistory is the
 * pre-epoch (DJIT+-style) variant that always keeps full per-thread
 * read and write vectors; it exists as the `useEpochs=false`
 * ablation of the HB engine.
 *
 * Layout: an AccessHistory is two 8-byte slots — the last-write
 * epoch, and a read slot holding either the read epoch or, once
 * reads are shared, a tagged index into a SharedReadStore. A
 * policy keeps one history per variable (a million on large
 * traces) but only the few variables with concurrent readers need
 * a vector, so the vectors live out of line in one store per
 * policy, and a write's clearReads() hands the vector back to the
 * store's free list for the next promotion to reuse. Every
 * AccessHistory call that may reach a shared vector takes the
 * owning store.
 */

#ifndef TC_ANALYSIS_ACCESS_HISTORY_HH
#define TC_ANALYSIS_ACCESS_HISTORY_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/epoch.hh"
#include "core/serial.hh"
#include "support/types.hh"

namespace tc {

/**
 * The shared-read vectors of one policy's AccessHistories. An entry
 * also keeps the read epoch that was promoted into it: the
 * checkpoint layout stores that (stale) epoch beside the vector.
 * Released entries keep their capacity, so steady-state promotions
 * do not allocate.
 */
class SharedReadStore
{
  public:
    struct Entry
    {
        Epoch promoted;
        std::vector<Clk> reads;
    };

    /** A fresh entry for the read epoch @p promoted: @p width zero
     * slots (more if the promoted read's thread lies past them)
     * plus the promoted read. Returns its index. */
    std::uint32_t
    promote(Epoch promoted, std::size_t width)
    {
        const auto t = static_cast<std::size_t>(promoted.tid);
        const std::uint32_t i = take();
        Entry &entry = entries_[i];
        entry.promoted = promoted;
        entry.reads.assign(std::max(width, t + 1), 0);
        entry.reads[t] = promoted.clk;
        return i;
    }

    /** An entry holding exactly @p reads (checkpoint restore). */
    std::uint32_t
    adopt(Epoch promoted, std::vector<Clk> reads)
    {
        const std::uint32_t i = take();
        entries_[i] = Entry{promoted, std::move(reads)};
        return i;
    }

    void release(std::uint32_t i) { free_.push_back(i); }

    Entry &operator[](std::uint32_t i) { return entries_[i]; }
    const Entry &operator[](std::uint32_t i) const
    {
        return entries_[i];
    }

    /** Entries ever created, free or in use. */
    std::size_t capacity() const { return entries_.size(); }

    void
    clear()
    {
        entries_.clear();
        free_.clear();
    }

  private:
    std::uint32_t
    take()
    {
        if (free_.empty()) {
            entries_.emplace_back();
            return static_cast<std::uint32_t>(entries_.size() - 1);
        }
        const std::uint32_t i = free_.back();
        free_.pop_back();
        return i;
    }

    std::vector<Entry> entries_;
    std::vector<std::uint32_t> free_;
};

/** FastTrack-style adaptive access history for one variable. */
class AccessHistory
{
  public:
    Epoch lastWrite() const { return lastWrite_; }
    void setLastWrite(Epoch e) { lastWrite_ = e; }

    /**
     * Record a read t@c. While reads stay totally ordered (each new
     * read covers the stored one) a single epoch suffices; otherwise
     * promote to a per-thread vector of size @p num_threads in
     * @p store.
     */
    template <typename ClockT>
    void
    recordRead(Tid t, Clk c, const ClockT &clock, Tid num_threads,
               SharedReadStore &store)
    {
        if (!sharedReads()) {
            if (read_.isNone() || read_.tid == t ||
                read_.coveredBy(clock)) {
                read_ = Epoch(t, c);
                return;
            }
            // Concurrent reads: switch to the shared representation.
            read_ = Epoch(kShared,
                          store.promote(read_, static_cast<std::size_t>(
                                                   num_threads)));
        }
        std::vector<Clk> &reads = store[read_.clk].reads;
        // Online analyses may grow the thread population after the
        // promotion to shared mode.
        if (reads.size() <= static_cast<std::size_t>(t))
            reads.resize(static_cast<std::size_t>(t) + 1, 0);
        reads[static_cast<std::size_t>(t)] = c;
    }

    /**
     * Invoke @p on_race(Epoch) for every recorded read not covered
     * by @p clock (the read-write race check at a write).
     */
    template <typename ClockT, typename Fn>
    void
    forEachUncoveredRead(const ClockT &clock,
                         const SharedReadStore &store,
                         Fn &&on_race) const
    {
        if (!sharedReads()) {
            if (!read_.coveredBy(clock))
                on_race(read_);
            return;
        }
        const std::vector<Clk> &reads = store[read_.clk].reads;
        for (std::size_t u = 0; u < reads.size(); u++) {
            if (reads[u] > clock.get(static_cast<Tid>(u)))
                on_race(Epoch(static_cast<Tid>(u), reads[u]));
        }
    }

    /** Forget reads (performed after a write, as in FastTrack). */
    void
    clearReads(SharedReadStore &store)
    {
        if (sharedReads())
            store.release(read_.clk);
        read_ = Epoch();
    }

    bool sharedReads() const { return read_.tid == kShared; }

    /**
     * True iff every recorded read is covered by thread @p t's
     * program order alone: no reads, or a single read epoch owned
     * by t. Write paths use it to skip the uncovered-read scan
     * entirely (the same-epoch shortcut). The shared tag is no
     * thread, so a shared history is never owned.
     */
    bool readsOwnedBy(Tid t) const { return read_.ownedBy(t); }

    /** @name Checkpoint serialization (core/serial.hh)
     *
     * The layout predates the store: last write, read epoch (the
     * promoted one while shared), shared flag, read vector.
     * @{ */
    void
    serialize(ByteSink &out, const SharedReadStore &store) const
    {
        out.putI32(lastWrite_.tid);
        out.putU32(lastWrite_.clk);
        if (!sharedReads()) {
            out.putI32(read_.tid);
            out.putU32(read_.clk);
            out.putU8(0);
            out.putU64(0); // the empty read vector
            return;
        }
        const SharedReadStore::Entry &entry = store[read_.clk];
        out.putI32(entry.promoted.tid);
        out.putU32(entry.promoted.clk);
        out.putU8(1);
        out.putVec(entry.reads);
    }

    bool
    deserialize(ByteSource &in, SharedReadStore &store)
    {
        Epoch last_write, read_epoch;
        std::uint8_t shared = 0;
        std::vector<Clk> read_vec;
        if (!in.getI32(last_write.tid) ||
            !in.getU32(last_write.clk) ||
            !in.getI32(read_epoch.tid) ||
            !in.getU32(read_epoch.clk) || !in.getU8(shared) ||
            !in.getVec(read_vec))
            return false;
        // Thread ids below kNoTid are no thread (and one of them is
        // the shared tag).
        if (shared > 1 || (shared == 0 && !read_vec.empty()) ||
            last_write.tid < kNoTid ||
            (shared == 0 && read_epoch.tid < kNoTid))
            return in.fail();
        lastWrite_ = last_write;
        read_ = shared == 0 ? read_epoch
                            : Epoch(kShared, store.adopt(
                                                 read_epoch,
                                                 std::move(read_vec)));
        return true;
    }
    /** @} */

  private:
    /** Read-slot tid marking a shared history; the slot's clk is
     * then the store index. No thread id, nor kNoTid. */
    static constexpr Tid kShared = std::numeric_limits<Tid>::min();

    Epoch lastWrite_;
    Epoch read_;
};

/** Always-flat per-thread access history (epoch ablation). */
class FlatAccessHistory
{
  public:
    explicit FlatAccessHistory(Tid num_threads = 0)
        : reads_(static_cast<std::size_t>(num_threads), 0),
          writes_(static_cast<std::size_t>(num_threads), 0)
    {}

    void
    recordRead(Tid t, Clk c)
    {
        grow(t);
        reads_[static_cast<std::size_t>(t)] = c;
    }
    void
    recordWrite(Tid t, Clk c)
    {
        grow(t);
        writes_[static_cast<std::size_t>(t)] = c;
    }

    template <typename ClockT, typename Fn>
    void
    forEachUncoveredWrite(const ClockT &clock, Fn &&on_race) const
    {
        for (std::size_t u = 0; u < writes_.size(); u++) {
            if (writes_[u] > clock.get(static_cast<Tid>(u)))
                on_race(Epoch(static_cast<Tid>(u), writes_[u]));
        }
    }

    template <typename ClockT, typename Fn>
    void
    forEachUncoveredRead(const ClockT &clock, Fn &&on_race) const
    {
        for (std::size_t u = 0; u < reads_.size(); u++) {
            if (reads_[u] > clock.get(static_cast<Tid>(u)))
                on_race(Epoch(static_cast<Tid>(u), reads_[u]));
        }
    }

    /** @name Checkpoint serialization (core/serial.hh) @{ */
    void
    serialize(ByteSink &out) const
    {
        out.putVec(reads_);
        out.putVec(writes_);
    }

    bool
    deserialize(ByteSource &in)
    {
        std::vector<Clk> reads, writes;
        if (!in.getVec(reads) || !in.getVec(writes))
            return false;
        if (reads.size() != writes.size())
            return in.fail();
        reads_ = std::move(reads);
        writes_ = std::move(writes);
        return true;
    }
    /** @} */

  private:
    /** Streaming analyses may grow the thread population after this
     * history was sized; batch runs pre-size past every tid. */
    void
    grow(Tid t)
    {
        if (reads_.size() <= static_cast<std::size_t>(t)) {
            reads_.resize(static_cast<std::size_t>(t) + 1, 0);
            writes_.resize(static_cast<std::size_t>(t) + 1, 0);
        }
    }

    std::vector<Clk> reads_;
    std::vector<Clk> writes_;
};

} // namespace tc

#endif // TC_ANALYSIS_ACCESS_HISTORY_HH
