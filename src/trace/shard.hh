/**
 * @file
 * Sharded trace capture: per-thread shard files that K-way-merge
 * back into the canonical total order.
 *
 * A production tracer wants one log per capturing thread (no global
 * lock on the event log), but every analysis in this repository
 * consumes the one total order the execution actually had. The shard
 * format keeps both: `split` routes each event to the shard file of
 * its thread (tid mod K) and stamps it with its *global* sequence
 * number, so a later K-way merge on those sequence numbers restores
 * the original interleaving exactly.
 *
 * Shard set on disk: `<prefix>.0.tcs`, ..., `<prefix>.K-1.tcs`.
 * Every shard header carries the shard count, so any one member
 * names the whole set. Shard records are strictly increasing in
 * sequence number within a shard; across the set the numbers are the
 * events' positions in the captured total order (they need not be
 * dense — merging a projection of a set is well defined).
 *
 * Layers on top:
 *  - ShardWriter            — routes an event stream into K shard
 *                             files from one thread (the simple
 *                             capture side).
 *  - ParallelShardWriter    — the concurrent capture side: one
 *                             appender per shard, each driven by its
 *                             own capturing thread, all stamping
 *                             from one atomic global sequence
 *                             counter. No lock on the hot path; the
 *                             sentinel-until-finalized header still
 *                             rejects torn captures.
 *  - splitTraceStream[Parallel] — drain a stream into a shard set
 *                             (single- or multi-writer; identical
 *                             bytes either way).
 *  - captureTraceParallel   — generator-driven capture simulation:
 *                             K capture threads race to stamp their
 *                             shards' events, gated so the captured
 *                             order reproduces the input trace
 *                             (byte-identical to a single-writer
 *                             split). `trace_tool capture` is the
 *                             CLI.
 *  - openShardSet           — merge the set back into the total
 *                             order on the calling thread (loser
 *                             tree over the K shard heads; the
 *                             linear scan stays selectable for
 *                             benchmarks).
 *  - openShardSetPartitioned — the same merged order with the
 *                             *merge itself* split across P
 *                             workers: the global sequence space
 *                             is cut into P contiguous key ranges
 *                             (MergePicker::splitSequenceRange),
 *                             each worker runs a private loser-tree
 *                             merge over its own cursors draining
 *                             only its range, and the consumer
 *                             stitches the ranges back together in
 *                             order.
 *  - trace_tool split/merge/capture — the CLI over all of it.
 */

#ifndef TC_TRACE_SHARD_HH
#define TC_TRACE_SHARD_HH

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/event_source.hh"
#include "trace/trace.hh"

namespace tc {

/** Asynchronous segment-flush backend of ParallelShardWriter
 * (io_uring or flusher thread; defined in shard.cc). */
class ShardFlushBackend;

/** Default shard count of `trace_tool split` (capture threads on a
 * typical production host, not a correctness knob). */
inline constexpr std::uint32_t kDefaultShardCount = 4;

/** Hard ceiling on a shard set's size, enforced by writers and —
 * more importantly — by readers before anything trusts the
 * header's count field: a corrupt or hostile `.tcs` claiming four
 * billion shards must be rejected up front, not after the tools
 * materialized four billion path strings. Far above any real
 * capture (shards ≈ capture threads). */
inline constexpr std::uint32_t kMaxShardSetCount = 4096;

/** Path of shard @p index of the set named by @p prefix. */
std::string shardPath(const std::string &prefix,
                      std::uint32_t index);

/** True when @p path carries the shard-set extension (`.tcs`) —
 * the one predicate behind every extension dispatch, so readers
 * and writers cannot disagree on what counts as a shard file. */
bool isShardPath(const std::string &path);

/** True when @p path names a shard-set member (`<prefix>.<i>.tcs`);
 * on success @p prefix and @p index receive the decomposition. */
bool parseShardPath(const std::string &path, std::string &prefix,
                    std::uint32_t &index);

/** Shard count declared by shard 0 of the set at @p prefix, or 0
 * when that header is missing or unreadable. Lets tools enumerate
 * the set's member files (e.g. for overwrite guards) without
 * opening the whole set. */
std::uint32_t shardSetCount(const std::string &prefix);

/**
 * How ParallelShardWriter appenders push staged segments to disk.
 *
 *  - Sync:  the gathered writev() runs on the capturing thread
 *           (the original path; always used while fault injection
 *           is armed so torn-write/crash semantics stay
 *           deterministic).
 *  - Async: full segment batches are submitted to a per-writer
 *           flush backend — io_uring where the kernel allows it, a
 *           flusher thread otherwise — with explicit file offsets,
 *           so capture overlaps encoding with disk writes.
 *           Completion errors surface on a later flush()/
 *           finalize(); finalize() drains every in-flight write
 *           before patching headers, so the finalized bytes are
 *           identical to a Sync capture.
 */
enum class ShardAppendMode : std::uint8_t
{
    Sync,
    Async,
};

/**
 * Capture side of the shard format: routes events to K shard files
 * by thread id and stamps each with the next global sequence
 * number. Headers carry sentinel counts until finalize() patches in
 * the real ones — a writer that is destroyed without a successful
 * finalize() leaves the sentinel behind, which readers reject, so a
 * crashed capture can not be mistaken for a (possibly empty)
 * complete one.
 */
class ShardWriter
{
  public:
    /** Open `<prefix>.<i>.tcs` for i in [0, shards); id-space
     * bounds come from @p info (event count is ignored — the
     * writer counts for itself). Check failed() before appending. */
    ShardWriter(const std::string &prefix, std::uint32_t shards,
                const SourceInfo &info);
    ~ShardWriter();

    ShardWriter(const ShardWriter &) = delete;
    ShardWriter &operator=(const ShardWriter &) = delete;

    /** Route one event to its shard; sequence numbers are assigned
     * in call order. Returns false once the writer has failed. */
    bool append(const Event &e);

    /** Patch every shard header with the final per-shard and total
     * event counts and flush. Returns false on I/O failure. */
    bool finalize();

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }
    std::uint64_t eventsWritten() const { return nextSeq_; }
    std::uint32_t shardCount() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

  private:
    struct Shard
    {
        std::ofstream os;
        std::uint64_t events = 0;
    };

    std::vector<Shard> shards_;
    std::uint64_t nextSeq_ = 0;
    bool failed_ = false;
    bool finalized_ = false;
    std::string error_;
};

/**
 * The concurrent capture side: K shard files, one Appender each,
 * every record stamped from one shared atomic sequence counter.
 *
 * Threading contract: each Appender belongs to exactly one
 * capturing thread (it buffers into private storage and writes its
 * own file — the only shared state on the hot path is the
 * fetch-add on the sequence counter, so appends never lock).
 * finalize() may only run after every appending thread has been
 * joined; it patches the sentinel headers exactly like ShardWriter,
 * so a capture that dies before finalize() — or any subset of its
 * writers crashing — leaves torn shards every reader rejects.
 */
class ParallelShardWriter
{
  public:
    /** One capturing thread's handle on its shard file. */
    class Appender
    {
      public:
        /** Stamp @p e with the next global sequence number and
         * buffer it for this shard. Lock-free: one atomic
         * fetch-add, then a private buffered write. */
        bool append(const Event &e);

        /** Buffer @p e under a caller-assigned sequence number
         * (dispatcher-style writers that already know the total
         * order). The caller must keep per-shard numbers strictly
         * increasing — readers reject anything else. */
        bool appendStamped(std::uint64_t seq, const Event &e);

        /** Push staged records to the file in one gathered
         * writev(). append() flushes automatically once a full
         * batch of segments is staged; finalize() flushes every
         * appender a last time. */
        bool flush();

        bool failed() const { return failed_; }
        const std::string &error() const { return error_; }
        std::uint64_t eventsWritten() const { return events_; }

        ~Appender();

      private:
        friend class ParallelShardWriter;
        Appender() = default;

        int fd_ = -1;
        /** Staging segments: append() memcpys into segs_[active_];
         * a full segment advances active_, and a full set of
         * segments goes to the file as one writev() — one syscall
         * per batch, cache-sized copies per record. */
        std::vector<std::vector<unsigned char>> segs_;
        std::size_t active_ = 0;
        std::atomic<std::uint64_t> *seq_ = nullptr;
        const bool *finalized_ = nullptr;
        std::uint64_t events_ = 0;
        bool failed_ = false;
        std::string error_;
        /** Async mode only: the shared flush backend and this
         * file's next write offset (header + bytes submitted). */
        ShardFlushBackend *backend_ = nullptr;
        std::uint64_t fileOffset_ = 0;
    };

    /** Open `<prefix>.<i>.tcs` for i in [0, shards) with sentinel
     * headers. @p append selects synchronous or asynchronous
     * segment flushing (see ShardAppendMode; Async silently
     * degrades to Sync while fault injection is armed). Check
     * failed() before handing out appenders. */
    ParallelShardWriter(
        const std::string &prefix, std::uint32_t shards,
        const SourceInfo &info,
        ShardAppendMode append = ShardAppendMode::Sync);
    ~ParallelShardWriter();

    ParallelShardWriter(const ParallelShardWriter &) = delete;
    ParallelShardWriter &operator=(const ParallelShardWriter &) =
        delete;

    /** Shard @p shard's appender — hand each to exactly one
     * capturing thread. */
    Appender &appender(std::uint32_t shard);

    /** The next unclaimed global sequence number (what the next
     * append() will stamp). Capture simulations use this to gate
     * replay order; readers of a finished writer use it as the
     * total stamped-event count. */
    std::uint64_t
    sequence() const
    {
        return nextSeq_.load(std::memory_order_acquire);
    }

    /**
     * Patch every shard header with the final counts and flush.
     * Only call after every appending thread has been joined.
     * Returns false when any appender failed or a header patch
     * failed; the files then keep their sentinel (torn) headers.
     */
    bool finalize();

    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }
    /** Total records buffered across all appenders (stable only
     * once the appending threads are joined). */
    std::uint64_t eventsWritten() const;
    std::uint32_t shardCount() const
    {
        return static_cast<std::uint32_t>(appenders_.size());
    }

  private:
    std::vector<std::unique_ptr<Appender>> appenders_;
    std::atomic<std::uint64_t> nextSeq_{0};
    /** Non-null only in Async append mode. */
    std::unique_ptr<ShardFlushBackend> backend_;
    bool failed_ = false;
    bool finalized_ = false;
    std::string error_;
};

/**
 * Drain @p source into a K-shard set at @p prefix (capture
 * simulation / re-sharding of an existing trace). Returns the
 * number of events written, or kUnknownEventCount on failure (check
 * source.failed() to tell a reader error from a writer error).
 */
std::uint64_t splitTraceStream(EventSource &source,
                               const std::string &prefix,
                               std::uint32_t shards,
                               std::string *error = nullptr);

/**
 * The multi-writer split: the calling thread decodes @p source in
 * order and dispatches (sequence, event) records to @p writers
 * writer threads (shard i belongs to writer i mod writers), each
 * appending to its own shards through a ParallelShardWriter. The
 * finalized set is byte-identical to splitTraceStream's — same
 * routing, same stamps — so the two paths are interchangeable.
 * @p writers is clamped to [1, shards]. @p append selects how the
 * writer flushes (ShardAppendMode; bytes identical either way).
 * Returns the event count, or kUnknownEventCount on failure.
 */
std::uint64_t
splitTraceStreamParallel(
    EventSource &source, const std::string &prefix,
    std::uint32_t shards, std::uint32_t writers,
    std::string *error = nullptr,
    ShardAppendMode append = ShardAppendMode::Sync);

/**
 * Generator-driven capture simulation: K capture threads (one per
 * shard) replay @p trace concurrently, each appending its own
 * shard's events and stamping from the writer's atomic sequence
 * counter. A replay gate holds each thread until the counter
 * reaches its next event's trace position — the stamp the fetch-add
 * then hands out *is* that position, so the captured total order
 * reproduces the input execution and the finalized set is
 * byte-identical to a single-writer split of the same trace (the
 * capture test suite pins this). @p append selects how the writer
 * flushes (ShardAppendMode; bytes identical either way). Returns
 * the event count, or kUnknownEventCount on failure.
 */
std::uint64_t
captureTraceParallel(const Trace &trace, const std::string &prefix,
                     std::uint32_t shards,
                     std::string *error = nullptr,
                     ShardAppendMode append = ShardAppendMode::Sync);

/** How the sequential merge picks the next event among the K shard
 * heads. LoserTree is the default (O(log K) per event); LinearScan
 * (O(K)) survives for benchmarks and differential tests — both
 * produce the identical stream. */
enum class MergeStrategy
{
    LoserTree,
    LinearScan,
};

/**
 * Open the shard set named by @p prefix as one EventSource that
 * yields the canonical total order (a K-way merge on global
 * sequence numbers). Each underlying reader holds at most
 * @p window records in memory. @p io selects each member reader's
 * byte source (IoMode; mmap decodes records in place and turns
 * seek probes into loads). Never null; open/header/consistency
 * failures surface through the failed() state.
 */
std::unique_ptr<EventSource>
openShardSet(const std::string &prefix,
             std::size_t window = kDefaultSourceWindow,
             MergeStrategy strategy = MergeStrategy::LoserTree,
             IoMode io = IoMode::Auto);

/**
 * The same merged order with the reconstruction itself partitioned:
 * the dense global sequence space is split into @p workers
 * contiguous key ranges (`MergePicker::splitSequenceRange`), one
 * merge worker per range, each owning a private cursor set over the
 * same files and merging only stamps in `[b_i, b_{i+1})` with
 * `MergePicker::drainedBelow` as its exhaustion test. The consumer
 * drains the ranges in order through bounded hand-off queues, so
 * stream, end position and error behaviour are identical to
 * openShardSet (the partitioned-merge suite pins this). Decode
 * happens on the merge workers too. @p workers is clamped to
 * [1, kMaxShardSetCount]. Never null.
 */
std::unique_ptr<EventSource>
openShardSetPartitioned(const std::string &prefix,
                        std::size_t workers,
                        std::size_t window = kDefaultSourceWindow,
                        IoMode io = IoMode::Auto);

/**
 * Open the shard set that member file @p path belongs to (the
 * `openTraceFile` path for `.tcs` inputs). @p mergeWorkers > 0
 * selects the range-partitioned merge, 0 the sequential one.
 * Fails when @p path does not parse as
 * `<prefix>.<index>.tcs` or when its index lies outside the set
 * declared by the headers — a stale member from an earlier, wider
 * split must not silently open a set that excludes it.
 */
std::unique_ptr<EventSource>
openShardMember(const std::string &path,
                std::size_t window = kDefaultSourceWindow,
                std::size_t mergeWorkers = 0,
                IoMode io = IoMode::Auto);

} // namespace tc

#endif // TC_TRACE_SHARD_HH
