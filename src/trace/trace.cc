#include "trace/trace.hh"

#include <algorithm>

#include "support/assert.hh"
#include "support/strings.hh"

namespace tc {

const char *
opName(OpType op)
{
    switch (op) {
      case OpType::Read: return "r";
      case OpType::Write: return "w";
      case OpType::Acquire: return "acq";
      case OpType::Release: return "rel";
      case OpType::Fork: return "fork";
      case OpType::Join: return "join";
      case OpType::ThreadCreate: return "tcreate";
      case OpType::ThreadJoin: return "tjoin";
      case OpType::ThreadRetire: return "tretire";
    }
    return "?";
}

std::string
Event::toString() const
{
    const char prefix =
        isAccess() ? 'x' : (isAcquire() || isRelease()) ? 'l' : 't';
    return strFormat("t%d:%s(%c%u)", tid, opName(op), prefix, target);
}

Trace::Trace(Tid num_threads, LockId num_locks, VarId num_vars)
    : numThreads_(num_threads), numLocks_(num_locks),
      numVars_(num_vars)
{
    TC_CHECK(num_threads >= 0 && num_locks >= 0 && num_vars >= 0,
             "id space sizes must be non-negative");
}

void
Trace::push(const Event &e)
{
    TC_CHECK(e.tid >= 0, "event thread id must be non-negative");
    numThreads_ = std::max(numThreads_, e.tid + 1);
    switch (e.op) {
      case OpType::Read:
      case OpType::Write:
        numVars_ = std::max(numVars_, e.var() + 1);
        break;
      case OpType::Acquire:
      case OpType::Release:
        numLocks_ = std::max(numLocks_, e.lock() + 1);
        break;
      case OpType::Fork:
      case OpType::Join:
      case OpType::ThreadCreate:
      case OpType::ThreadJoin:
      case OpType::ThreadRetire:
        numThreads_ = std::max(numThreads_, e.targetTid() + 1);
        break;
    }
    hasLifecycle_ = hasLifecycle_ || e.isLifecycle();
    events_.push_back(e);
}

void
Trace::append(const Event *events, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++) {
        const Event &e = events[i];
        TC_CHECK(e.tid >= 0,
                 "event thread id must be non-negative");
        numThreads_ = std::max(numThreads_, e.tid + 1);
        switch (e.op) {
          case OpType::Read:
          case OpType::Write:
            numVars_ = std::max(numVars_, e.var() + 1);
            break;
          case OpType::Acquire:
          case OpType::Release:
            numLocks_ = std::max(numLocks_, e.lock() + 1);
            break;
          case OpType::Fork:
          case OpType::Join:
          case OpType::ThreadCreate:
          case OpType::ThreadJoin:
          case OpType::ThreadRetire:
            numThreads_ = std::max(numThreads_, e.targetTid() + 1);
            break;
        }
        hasLifecycle_ = hasLifecycle_ || e.isLifecycle();
    }
    events_.insert(events_.end(), events, events + n);
}

ValidationResult
Trace::validate() const
{
    TraceValidator validator;
    validator.add(events_.data(), events_.size());
    return validator.result();
}

namespace {

// TraceValidator per-thread state bits.
constexpr std::uint8_t kStarted = 1;  ///< has performed an event
constexpr std::uint8_t kForked = 2;   ///< target of a fork
constexpr std::uint8_t kJoined = 4;   ///< target of a join or tjoin
constexpr std::uint8_t kCreated = 8;  ///< target of a tcreate
constexpr std::uint8_t kRetired = 16; ///< target of a tretire
constexpr std::uint8_t kTJoined = 32; ///< target of a tjoin

} // namespace

std::size_t
TraceValidator::add(const Event *events, std::size_t n)
{
    if (!result_.ok)
        return 0;
    for (std::size_t i = 0; i < n; i++, index_++) {
        if (!check(events[i]))
            return i;
    }
    return n;
}

void
TraceValidator::reset()
{
    threads_.clear();
    holders_.clear();
    index_ = 0;
    result_ = {};
}

bool
TraceValidator::fail(std::string message)
{
    result_ = ValidationResult::failure(
        static_cast<std::size_t>(index_), std::move(message));
    return false;
}

std::uint8_t &
TraceValidator::threadState(Tid t)
{
    const auto i = static_cast<std::size_t>(t);
    if (i >= threads_.size())
        threads_.resize(i + 1, 0);
    return threads_[i];
}

Tid &
TraceValidator::holder(LockId l)
{
    const auto i = static_cast<std::size_t>(l);
    if (i >= holders_.size())
        holders_.resize(i + 1, kNoTid);
    return holders_[i];
}

bool
TraceValidator::check(const Event &e)
{
    if (e.tid < 0)
        return fail(strFormat("thread id %d out of range", e.tid));
    std::uint8_t &self = threadState(e.tid);
    if (self & kJoined) {
        return fail(
            strFormat("thread %d acts after being joined", e.tid));
    }
    self |= kStarted;

    switch (e.op) {
      case OpType::Read:
      case OpType::Write:
        if (e.var() < 0) {
            return fail(
                strFormat("variable id %d out of range", e.var()));
        }
        return true;
      case OpType::Acquire:
      case OpType::Release: {
        if (e.lock() < 0) {
            return fail(
                strFormat("lock id %d out of range", e.lock()));
        }
        Tid &h = holder(e.lock());
        if (e.op == OpType::Acquire) {
            if (h != kNoTid) {
                return fail(strFormat("lock %d acquired while held "
                                      "by thread %d",
                                      e.lock(), h));
            }
            h = e.tid;
        } else {
            if (h != e.tid) {
                return fail(strFormat("lock %d released by thread "
                                      "%d but held by %d",
                                      e.lock(), e.tid, h));
            }
            h = kNoTid;
        }
        return true;
      }
      default:
        break;
    }

    // Thread operations: fork, join, tcreate, tjoin, tretire. A
    // lifecycle-managed thread (tcreate -> tjoin -> tretire) is
    // disjoint from fork targets, and tjoin sets kJoined so "acts
    // after being joined" covers it.
    const Tid child = e.targetTid();
    if (child < 0) {
        return fail(strFormat("%s target %d out of range",
                              opName(e.op), child));
    }
    if (child == e.tid && e.op != OpType::ThreadRetire)
        return fail(strFormat("thread %ss itself", opName(e.op)));
    std::uint8_t &target = threadState(child);
    switch (e.op) {
      case OpType::Fork:
      case OpType::ThreadCreate:
        if (target & kStarted) {
            return fail(strFormat("%s target %d already has events",
                                  opName(e.op), child));
        }
        if (e.op == OpType::ThreadCreate) {
            if (target & (kForked | kCreated)) {
                return fail(
                    strFormat("thread %d created twice", child));
            }
            // A joined id has finished; creating it later would
            // start a thread the join already claimed.
            if (target & kJoined) {
                return fail(strFormat(
                    "tcreate target %d already joined", child));
            }
            target |= kCreated;
            return true;
        }
        if (target & kForked)
            return fail(strFormat("thread %d forked twice", child));
        if (target & kCreated) {
            return fail(strFormat(
                "fork target %d is lifecycle-managed", child));
        }
        target |= kForked;
        return true;
      case OpType::ThreadJoin:
      case OpType::Join:
        if (e.op == OpType::ThreadJoin && !(target & kCreated)) {
            return fail(strFormat(
                "tjoin of thread %d without tcreate", child));
        }
        if (target & kJoined)
            return fail(strFormat("thread %d joined twice", child));
        target |= e.op == OpType::ThreadJoin ? kJoined | kTJoined
                                             : kJoined;
        return true;
      case OpType::ThreadRetire:
        // Only a tjoin ends a lifecycle; a plain join of a
        // tcreated thread does not make it retirable.
        if (!(target & kTJoined)) {
            return fail(strFormat(
                "tretire of thread %d without tjoin", child));
        }
        if (target & kRetired)
            return fail(strFormat("thread %d retired twice", child));
        target |= kRetired;
        return true;
      default:
        return true;
    }
}

std::vector<Clk>
Trace::localTimes() const
{
    std::vector<Clk> times(events_.size());
    std::vector<Clk> counters(static_cast<std::size_t>(numThreads_),
                              0);
    for (std::size_t i = 0; i < events_.size(); i++)
        times[i] = ++counters[static_cast<std::size_t>(events_[i].tid)];
    return times;
}

} // namespace tc
