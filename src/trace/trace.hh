/**
 * @file
 * Trace container: a sequence of events over dense thread/lock/var id
 * spaces, with builder helpers, well-formedness validation and local
 * time computation (paper §2.1).
 */

#ifndef TC_TRACE_TRACE_HH
#define TC_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/event.hh"

namespace tc {

/** Outcome of Trace::validate(). */
struct ValidationResult
{
    bool ok = true;
    /** Index of the first offending event (size() if none). */
    std::size_t eventIndex = 0;
    std::string message;

    static ValidationResult
    failure(std::size_t index, std::string msg)
    {
        return {false, index, std::move(msg)};
    }
};

/**
 * A concrete execution trace. Events are appended in trace order;
 * thread, lock and variable ids must be dense (the builder grows the
 * id spaces automatically, explicit constructors pre-declare them).
 */
class Trace
{
  public:
    Trace() = default;
    Trace(Tid num_threads, LockId num_locks, VarId num_vars);

    /** @name Builder interface
     * Append one event; id spaces grow as needed. @{ */
    void read(Tid t, VarId x) { push(Event(t, OpType::Read, x)); }
    void write(Tid t, VarId x) { push(Event(t, OpType::Write, x)); }
    void acquire(Tid t, LockId l)
    {
        push(Event(t, OpType::Acquire, l));
    }
    void release(Tid t, LockId l)
    {
        push(Event(t, OpType::Release, l));
    }
    void fork(Tid t, Tid child)
    {
        push(Event(t, OpType::Fork, child));
    }
    void join(Tid t, Tid child)
    {
        push(Event(t, OpType::Join, child));
    }
    void tcreate(Tid t, Tid child)
    {
        push(Event(t, OpType::ThreadCreate, child));
    }
    void tjoin(Tid t, Tid child)
    {
        push(Event(t, OpType::ThreadJoin, child));
    }
    void tretire(Tid t, Tid child)
    {
        push(Event(t, OpType::ThreadRetire, child));
    }
    /** sync(l) of the paper's examples: acq(l) directly followed by
     * rel(l). */
    void sync(Tid t, LockId l) { acquire(t, l); release(t, l); }
    void push(const Event &e);
    /** Append @p n already-decoded events in one insert — the bulk
     * twin of push() for streaming loaders, folding the id-space
     * maxima without a per-event push_back. */
    void append(const Event *events, std::size_t n);
    /** @} */

    const Event &operator[](std::size_t i) const { return events_[i]; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }
    const std::vector<Event> &events() const { return events_; }

    auto begin() const { return events_.begin(); }
    auto end() const { return events_.end(); }

    Tid numThreads() const { return numThreads_; }
    LockId numLocks() const { return numLocks_; }
    VarId numVars() const { return numVars_; }
    /** At least one lifecycle (tcreate/tjoin/tretire) event was
     * appended — the trace is dynamic-membership and needs the v2
     * on-disk formats. */
    bool hasLifecycle() const { return hasLifecycle_; }

    /** Reserve storage for n events. */
    void reserve(std::size_t n) { events_.reserve(n); }

    /** Check well-formedness: a TraceValidator over every event. */
    ValidationResult validate() const;

    /**
     * Local time of every event: lTime(e) = number of events of
     * tid(e) up to and including e (paper §2.1, so the first event of
     * a thread has local time 1).
     */
    std::vector<Clk> localTimes() const;

  private:
    std::vector<Event> events_;
    Tid numThreads_ = 0;
    LockId numLocks_ = 0;
    VarId numVars_ = 0;
    bool hasLifecycle_ = false;
};

/**
 * Incremental well-formedness check over an event stream: feed the
 * events in trace order and the first violation sticks. The rules:
 * ids non-negative; lock semantics (acquire only free locks,
 * release only held locks, by the holder); fork and tcreate targets
 * have no earlier events and start at most once; join targets have
 * no later events; tjoin needs a tcreate and tretire a tjoin.
 *
 * Memory is O(largest thread and lock id seen), grown on demand —
 * never sized from a header's declared counts — so the same check
 * runs over a materialized Trace (Trace::validate) and over an
 * out-of-core stream (makeValidatingSource).
 */
class TraceValidator
{
  public:
    /** Check @p n events that follow everything added so far.
     * Returns how many passed: @p n, or the offset of the first
     * violation (then ok() is false and nothing more is checked). */
    std::size_t add(const Event *events, std::size_t n);
    bool add(const Event &e) { return add(&e, 1) == 1; }

    bool ok() const { return result_.ok; }
    /** The first violation (eventIndex counts from the first event
     * added), or an ok result. */
    const ValidationResult &result() const { return result_; }

    /** Forget every event added so far (a rewound stream). */
    void reset();

  private:
    bool check(const Event &e);
    bool fail(std::string message);
    std::uint8_t &threadState(Tid t);
    Tid &holder(LockId l);

    /** Per-thread bit set (kStarted, kForked, ... in trace.cc). */
    std::vector<std::uint8_t> threads_;
    /** Holder of each lock; kNoTid when free. */
    std::vector<Tid> holders_;
    std::uint64_t index_ = 0;
    ValidationResult result_;
};

} // namespace tc

#endif // TC_TRACE_TRACE_HH
