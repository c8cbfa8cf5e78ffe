#include "trace/shard.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

// Raw-syscall io_uring for the async append backend: the uapi
// header is enough (no liburing dependency), and a runtime probe
// decides whether the ring actually works (seccomp policies often
// deny the syscalls even when the kernel has them).
#if __has_include(<linux/io_uring.h>) && defined(__linux__)
#define TC_HAVE_IO_URING 1
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#else
#define TC_HAVE_IO_URING 0
#endif

#include "support/assert.hh"
#include "support/strings.hh"
#include "trace/fault_injection.hh"
#include "trace/loser_tree.hh"
#include "trace/mapped_file.hh"
#include "trace/merge_picker.hh"

namespace tc {

namespace {

/** v1 magic: pre-lifecycle shard sets. Readers accept it and bound
 * op codes at kMaxOpV1; the wire layout is identical to v2. */
constexpr char kShardMagicV1[6] = {'T', 'C', 'S', 'H', '1', '\0'};
/** v2 magic: op codes up to kMaxOpV2 (lifecycle events). */
constexpr char kShardMagicV2[6] = {'T', 'C', 'S', 'H', '2', '\0'};

/** Fixed-width header: magic, then shardIndex, shardCount, threads,
 * locks, vars (u32 each), then shardEvents, totalEvents (u64 each).
 * The two counts are written as kUnknownEventCount placeholders and
 * patched by finalize(), so readers can tell a crashed capture from
 * a finalized one. */
constexpr std::size_t kCountsOffset =
    sizeof(kShardMagicV1) + 5 * sizeof(std::uint32_t);
constexpr std::size_t kShardHeaderBytes =
    kCountsOffset + 2 * sizeof(std::uint64_t);

/** On-wire bytes per shard record: u64 global sequence number, then
 * the binary event encoding (i32 tid, u32 target, u8 op). */
constexpr std::size_t kShardRecordBytes = 17;

struct ShardHeader
{
    /** Decoded from the magic, never a wire field: 1 for TCSH1
     * sets, 2 for TCSH2. Bounds the op codes readBatch accepts. */
    std::uint8_t version = 2;
    std::uint32_t index = 0;
    std::uint32_t count = 0;
    std::uint32_t threads = 0;
    std::uint32_t locks = 0;
    std::uint32_t vars = 0;
    std::uint64_t shardEvents = 0;
    std::uint64_t totalEvents = 0;
};

void
encodeShardHeader(unsigned char *out, const ShardHeader &h)
{
    std::memcpy(out,
                h.version >= 2 ? kShardMagicV2 : kShardMagicV1,
                sizeof(kShardMagicV1));
    const std::uint32_t words[5] = {h.index, h.count, h.threads,
                                    h.locks, h.vars};
    std::memcpy(out + sizeof(kShardMagicV1), words, sizeof(words));
    const std::uint64_t counts[2] = {h.shardEvents, h.totalEvents};
    std::memcpy(out + kCountsOffset, counts, sizeof(counts));
}

void
writeShardHeader(std::ostream &os, const ShardHeader &h)
{
    unsigned char hdr[kShardHeaderBytes];
    encodeShardHeader(hdr, h);
    os.write(reinterpret_cast<const char *>(hdr), sizeof(hdr));
}

/** write() until @p n bytes landed (or a non-EINTR error). */
bool
writeAll(int fd, const unsigned char *data, std::size_t n)
{
    while (n > 0) {
        const ssize_t wrote = ::write(fd, data, n);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += wrote;
        n -= static_cast<std::size_t>(wrote);
    }
    return true;
}

/** pwrite() @p n bytes at @p offset, retrying shorts/EINTR. */
bool
pwriteAll(int fd, const unsigned char *data, std::size_t n,
          std::size_t offset)
{
    while (n > 0) {
        const ssize_t wrote = ::pwrite(
            fd, data, n, static_cast<off_t>(offset));
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += wrote;
        offset += static_cast<std::size_t>(wrote);
        n -= static_cast<std::size_t>(wrote);
    }
    return true;
}

/** Decode a shard header from @p size bytes at @p d (the mapped
 * path's equivalent of readShardHeader). */
bool
decodeShardHeader(const unsigned char *d, std::size_t size,
                  ShardHeader &h)
{
    if (size < kShardHeaderBytes)
        return false;
    if (std::memcmp(d, kShardMagicV1,
                    sizeof(kShardMagicV1)) == 0)
        h.version = 1;
    else if (std::memcmp(d, kShardMagicV2,
                         sizeof(kShardMagicV2)) == 0)
        h.version = 2;
    else
        return false;
    std::uint32_t words[5];
    std::uint64_t counts[2];
    std::memcpy(words, d + sizeof(kShardMagicV1), sizeof(words));
    std::memcpy(counts, d + kCountsOffset, sizeof(counts));
    h.index = words[0];
    h.count = words[1];
    h.threads = words[2];
    h.locks = words[3];
    h.vars = words[4];
    h.shardEvents = counts[0];
    h.totalEvents = counts[1];
    return true;
}

bool
readShardHeader(std::istream &is, ShardHeader &h)
{
    unsigned char hdr[kShardHeaderBytes];
    if (!is.read(reinterpret_cast<char *>(hdr), sizeof(hdr)))
        return false;
    return decodeShardHeader(hdr, sizeof(hdr), h);
}

/** One decoded shard record: the global stamp and its event. */
struct ShardRecord
{
    std::uint64_t seq = 0;
    Event event;
};

/**
 * Batched, validating decoder over one shard file. Reads at most
 * `window` raw records per refill and decodes them into ShardRecord
 * batches — the unit both merge paths move around. Validation
 * (op/id ranges, strictly increasing sequence numbers) happens
 * here, once, for every consumer.
 *
 * With IoMode::Auto/Mmap (and no armed fault injection) the file
 * is memory-mapped: batches decode straight out of the mapping
 * with no read syscalls or staging copy, seqAt() probes become
 * plain loads (so countBelow / the merged seekToSequence are pure
 * memory binary searches), and seekToIndex is offset arithmetic.
 * Window spans, validation order and every error position/message
 * are identical to the stream path.
 */
class ShardFileReader
{
  public:
    ShardFileReader(std::string path, std::size_t window,
                    IoMode io = IoMode::Auto)
        : path_(std::move(path)), io_(io),
          window_(window == 0 ? 1 : window)
    {
        open();
    }

    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }
    const ShardHeader &header() const { return header_; }
    const std::string &path() const { return path_; }

    /**
     * Decode the next batch (≤ window records) into @p out.
     * Returns false — with @p out empty — at end of shard or on
     * error (ok() tells which). A batch that hits a bad record
     * mid-decode delivers the good prefix now and fails the *next*
     * call, so consumers see every valid record before the error.
     * (For a torn trailing record this deliberately delivers the
     * final window's complete records first — the old
     * one-record-at-a-time reader dropped them and failed at the
     * window boundary instead.)
     */
    bool
    readBatch(std::vector<ShardRecord> &out)
    {
        out.clear();
        if (!ok() || delivered_ >= header_.shardEvents)
            return false;
        const std::uint64_t remaining =
            header_.shardEvents - delivered_;
        const std::size_t want = static_cast<std::size_t>(
            remaining < window_ ? remaining : window_);
        const unsigned char *base;
        std::size_t got;
        if (map_) {
            // Zero-copy refill: the "read" is bounds arithmetic
            // against the mapping — same span a stream read of
            // want records would return, including the short tail.
            const std::uint64_t consumed =
                kShardHeaderBytes +
                delivered_ * kShardRecordBytes;
            const std::size_t avail =
                map_->size() > consumed
                    ? static_cast<std::size_t>(map_->size() -
                                               consumed)
                    : 0;
            got = std::min(want * kShardRecordBytes, avail);
            base = map_->data() + consumed;
        } else {
            raw_.resize(want * kShardRecordBytes);
            is_.read(reinterpret_cast<char *>(raw_.data()),
                     static_cast<std::streamsize>(raw_.size()));
            got = static_cast<std::size_t>(is_.gcount());
            base = raw_.data();
        }
        const std::size_t records = got / kShardRecordBytes;
        if (records == 0) {
            setError(strFormat(
                "%s: truncated shard at event %llu", path_.c_str(),
                static_cast<unsigned long long>(delivered_)));
            return false;
        }
        out.reserve(records);
        for (std::size_t j = 0; j < records; j++) {
            const unsigned char *p =
                base + j * kShardRecordBytes;
            std::uint64_t seq;
            std::int32_t tid;
            std::uint32_t target;
            std::memcpy(&seq, p, sizeof(seq));
            std::memcpy(&tid, p + 8, sizeof(tid));
            std::memcpy(&target, p + 12, sizeof(target));
            const std::uint8_t op = p[16];
            const std::uint64_t index = delivered_ + j;
            if (op > (header_.version >= 2 ? kMaxOpV2
                                           : kMaxOpV1) ||
                tid < 0 ||
                target >
                    static_cast<std::uint32_t>(
                        std::numeric_limits<std::int32_t>::max())) {
                setError(strFormat(
                    "%s: corrupt record at event %llu",
                    path_.c_str(),
                    static_cast<unsigned long long>(index)));
                break;
            }
            if (index > 0 && seq <= lastSeq_) {
                setError(strFormat(
                    "%s: sequence numbers not increasing at "
                    "event %llu",
                    path_.c_str(),
                    static_cast<unsigned long long>(index)));
                break;
            }
            if (seq == kLoserTreeInfKey) {
                // The all-ones stamp is the merge's in-band
                // "exhausted" sentinel; no writer can produce it
                // (counts would overflow first), so treat it as
                // corruption instead of silently ending the
                // merged stream early.
                setError(strFormat(
                    "%s: corrupt record at event %llu",
                    path_.c_str(),
                    static_cast<unsigned long long>(index)));
                break;
            }
            lastSeq_ = seq;
            out.push_back(
                {seq, Event(static_cast<Tid>(tid),
                            static_cast<OpType>(op), target)});
        }
        if (ok() && got % kShardRecordBytes != 0) {
            // A torn trailing record: hand out the whole ones
            // first, fail on the next call.
            setError(strFormat(
                "%s: truncated shard at event %llu", path_.c_str(),
                static_cast<unsigned long long>(delivered_ +
                                                records)));
        }
        delivered_ += out.size();
        return !out.empty();
    }

    bool
    rewind()
    {
        if (!map_) {
            is_.clear();
            if (!is_.seekg(static_cast<std::streamoff>(
                    kShardHeaderBytes)))
                return false;
        }
        delivered_ = 0;
        lastSeq_ = 0;
        error_.clear();
        return true;
    }

    /** Global stamp of record @p i — a header-relative random probe
     * (no validation). Moves the read position; only the seek path
     * uses it, and it reposition()s afterwards. */
    bool
    seqAt(std::uint64_t i, std::uint64_t &out)
    {
        const std::uint64_t off =
            kShardHeaderBytes + i * kShardRecordBytes;
        if (map_) {
            if (off + sizeof(out) > map_->size())
                return false;
            std::memcpy(&out, map_->data() + off, sizeof(out));
            return true;
        }
        is_.clear();
        if (!is_.seekg(static_cast<std::streamoff>(off)))
            return false;
        return static_cast<bool>(is_.read(
            reinterpret_cast<char *>(&out), sizeof(out)));
    }

    /**
     * Records of this shard with stamp < @p key. Stamps are
     * strictly increasing within a shard (validated on decode), so
     * this is a binary search over O(log m) single-record probes —
     * the per-shard half of the merged seekToSequence().
     */
    bool
    countBelow(std::uint64_t key, std::uint64_t &out)
    {
        std::uint64_t lo = 0, hi = header_.shardEvents;
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            std::uint64_t seq = 0;
            if (!seqAt(mid, seq))
                return false;
            if (seq < key)
                lo = mid + 1;
            else
                hi = mid;
        }
        out = lo;
        return true;
    }

    /** Position the reader so the next readBatch() starts at record
     * @p index (clamped to end-of-shard). Restores the
     * monotonicity baseline from the preceding record so the
     * decode-time validation keeps working across a seek. */
    bool
    seekToIndex(std::uint64_t index)
    {
        if (index > header_.shardEvents)
            index = header_.shardEvents;
        std::uint64_t prev = 0;
        if (index > 0 && !seqAt(index - 1, prev))
            return false;
        if (!map_) {
            is_.clear();
            if (!is_.seekg(static_cast<std::streamoff>(
                    kShardHeaderBytes +
                    index * kShardRecordBytes)))
                return false;
        }
        delivered_ = index;
        lastSeq_ = prev;
        error_.clear();
        return true;
    }

  private:
    void
    open()
    {
        if (useMappedIo(io_))
            map_ = MappedFile::map(path_);
        if (map_) {
            if (!decodeShardHeader(map_->data(), map_->size(),
                                   header_)) {
                setError(strFormat("%s: bad shard header",
                                   path_.c_str()));
                return;
            }
        } else {
            is_.open(path_, std::ios::binary);
            if (!is_) {
                setError(strFormat("cannot open '%s'",
                                   path_.c_str()));
                return;
            }
            if (!readShardHeader(is_, header_)) {
                setError(strFormat("%s: bad shard header",
                                   path_.c_str()));
                return;
            }
        }
        if (header_.shardEvents == kUnknownEventCount ||
            header_.totalEvents == kUnknownEventCount) {
            setError(strFormat(
                "%s: shard was never finalized (crashed capture?)",
                path_.c_str()));
            return;
        }
        if (header_.count == 0 ||
            header_.count > kMaxShardSetCount ||
            header_.index >= header_.count) {
            setError(strFormat("%s: invalid shard index %u of %u",
                               path_.c_str(), header_.index,
                               header_.count));
        }
    }

    /** First error wins: a corrupt record earlier in the stream
     * outranks the torn tail discovered after it. */
    void
    setError(std::string msg)
    {
        if (error_.empty())
            error_ = std::move(msg);
    }

    std::string path_;
    std::string error_;
    IoMode io_;
    /** Non-null when the file is mapped; is_/raw_ are unused then. */
    std::unique_ptr<MappedFile> map_;
    std::ifstream is_;
    ShardHeader header_;
    std::size_t window_;
    std::vector<unsigned char> raw_;
    std::uint64_t delivered_ = 0;
    std::uint64_t lastSeq_ = 0;
};

/**
 * Open every member of the set at @p prefix and run the
 * construction-time consistency checks both merge paths share:
 * headers must agree on the set shape, declared indices must match
 * file names, and per-shard counts must sum to the declared total.
 * Returns the rejection message ("" on success) and fills @p info.
 */
std::string
openShardReaders(
    const std::string &prefix, std::size_t window,
    std::vector<std::unique_ptr<ShardFileReader>> &readers,
    SourceInfo &info, IoMode io)
{
    readers.clear();
    readers.push_back(std::make_unique<ShardFileReader>(
        shardPath(prefix, 0), window, io));
    if (!readers[0]->ok())
        return readers[0]->error();
    const ShardHeader first = readers[0]->header();
    for (std::uint32_t i = 1; i < first.count; i++) {
        readers.push_back(std::make_unique<ShardFileReader>(
            shardPath(prefix, i), window, io));
        if (!readers.back()->ok())
            return readers.back()->error();
    }
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < readers.size(); i++) {
        const ShardHeader &h = readers[i]->header();
        if (h.version != first.version ||
            h.count != first.count ||
            h.threads != first.threads ||
            h.locks != first.locks || h.vars != first.vars ||
            h.totalEvents != first.totalEvents ||
            h.index != static_cast<std::uint32_t>(i)) {
            return strFormat(
                "%s: header disagrees with its shard set",
                readers[i]->path().c_str());
        }
        sum += h.shardEvents;
    }
    if (sum != first.totalEvents) {
        return strFormat(
            "shard set '%s': per-shard counts sum to %llu "
            "but total is %llu",
            prefix.c_str(), static_cast<unsigned long long>(sum),
            static_cast<unsigned long long>(first.totalEvents));
    }
    // Header counts are hints that consumers reserve by, so
    // promise no more events, nor ids, than the set's records can
    // back; consumers grow past the hints on demand. Delivery goes
    // by each shard's own count, so a short set still fails as
    // truncated.
    std::uint64_t records = 0;
    for (const auto &r : readers) {
        std::error_code ec;
        const std::uint64_t bytes =
            std::filesystem::file_size(r->path(), ec);
        if (!ec && bytes > kShardHeaderBytes)
            records += (bytes - kShardHeaderBytes) / kShardRecordBytes;
    }
    auto hint = [records](std::uint32_t ids) {
        return static_cast<std::int32_t>(
            std::min<std::uint64_t>({ids, records, INT32_MAX}));
    };
    info.threads = hint(first.threads);
    info.locks = hint(first.locks);
    info.vars = hint(first.vars);
    info.events = std::min(first.totalEvents, records);
    info.lifecycle = first.version >= 2;
    return {};
}

/**
 * The value half of a merged seekToSequence(): the smallest stamp
 * key V whose global rank — records across all shards with stamp
 * < V — is at least @p n. Stamps are globally unique, so
 * positioning every shard at its countBelow(V) leaves exactly the
 * first n merged records behind the cursor. Each probe of g(V) is
 * K per-shard binary searches, so the whole seek costs
 * O(K log m log S) single-record reads — never a prefix decode.
 */
bool
findSeekKey(const std::vector<ShardFileReader *> &readers,
            std::uint64_t n, std::uint64_t &out)
{
    std::uint64_t hi = 0;
    for (ShardFileReader *r : readers) {
        const std::uint64_t m = r->header().shardEvents;
        if (m == 0)
            continue;
        std::uint64_t last = 0;
        if (!r->seqAt(m - 1, last))
            return false;
        hi = std::max(hi, last + 1);
    }
    std::uint64_t lo = 0;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        std::uint64_t below = 0;
        for (ShardFileReader *r : readers) {
            std::uint64_t c = 0;
            if (!r->countBelow(mid, c))
                return false;
            below += c;
        }
        if (below >= n)
            hi = mid;
        else
            lo = mid + 1;
    }
    out = lo;
    return true;
}

/**
 * K-way merge of shard readers on global sequence numbers, on the
 * calling thread. Decode happens batch-at-a-time through
 * ShardFileReader; the per-event cost is one picker update.
 */
class MergingEventSource final : public EventSource
{
  public:
    MergingEventSource(const std::string &prefix,
                       std::size_t window, MergeStrategy strategy,
                       IoMode io)
        : picker_(1, strategy), strategy_(strategy)
    {
        std::vector<std::unique_ptr<ShardFileReader>> readers;
        std::string err =
            openShardReaders(prefix, window, readers, info_, io);
        if (!err.empty()) {
            rejectSet(std::move(err));
            return;
        }
        shards_.resize(readers.size());
        for (std::size_t i = 0; i < readers.size(); i++)
            shards_[i].reader = std::move(readers[i]);
        picker_ = MergePicker(shards_.size(), strategy_);
        loadHeads();
    }

    SourceInfo info() const override { return info_; }

    bool
    next(Event &out) override
    {
        if (failed())
            return false;
        if (!pendingError_.empty()) {
            // A reader broke while advancing past the previously
            // delivered event; that event was still valid, so the
            // failure surfaces here, one call later.
            failPending();
            return false;
        }
        const std::size_t w = picker_.pick();
        if (picker_.keyOf(w) == kLoserTreeInfKey)
            return false; // every shard cleanly exhausted
        Shard &s = shards_[w];
        out = s.batch[s.pos].event;
        s.pos++;
        advanceKey(w);
        return true;
    }

    /** The hot drain: same merge, one virtual call per batch. */
    std::size_t
    read(Event *out, std::size_t max) override
    {
        if (failed())
            return 0;
        std::size_t n = 0;
        while (n < max) {
            if (!pendingError_.empty()) {
                if (n == 0)
                    failPending();
                break;
            }
            const std::size_t w = picker_.pick();
            if (picker_.keyOf(w) == kLoserTreeInfKey)
                break;
            Shard &s = shards_[w];
            out[n++] = s.batch[s.pos].event;
            s.pos++;
            advanceKey(w);
        }
        return n;
    }

    bool
    rewind() override
    {
        // A set rejected at open time (crashed capture, header
        // disagreement, ...) stays rejected: clearing those errors
        // would stream the very data the checks refused, since
        // they only run at construction.
        if (rejected_)
            return false;
        for (Shard &s : shards_) {
            s.batch.clear();
            s.pos = 0;
            if (!s.reader->rewind()) {
                // A partial rewind leaves rewound and mid-stream
                // readers mixed; fail the source so a caller that
                // ignores our return value cannot keep draining a
                // scrambled order.
                fail(0, strFormat("%s: rewind failed",
                                  s.reader->path().c_str()));
                return false;
            }
        }
        clearError();
        pendingError_.clear();
        loadHeads();
        return !failed();
    }

    /** O(tail) resume: per-shard binary searches position every
     * member so the next merged event is global event @p n. */
    bool
    seekToSequence(std::uint64_t n) override
    {
        if (rejected_)
            return false;
        if (n == 0)
            return rewind();
        std::vector<ShardFileReader *> readers;
        readers.reserve(shards_.size());
        for (Shard &s : shards_)
            readers.push_back(s.reader.get());
        std::uint64_t key = kLoserTreeInfKey;
        if (n < info_.events &&
            !findSeekKey(readers, n, key)) {
            fail(0, "shard seek failed", SourceErrorKind::Io);
            return false;
        }
        for (Shard &s : shards_) {
            std::uint64_t index = s.reader->header().shardEvents;
            if (n < info_.events &&
                !s.reader->countBelow(key, index)) {
                fail(0, "shard seek failed", SourceErrorKind::Io);
                return false;
            }
            s.batch.clear();
            s.pos = 0;
            if (!s.reader->seekToIndex(index)) {
                fail(0, strFormat("%s: seek failed",
                                  s.reader->path().c_str()),
                     SourceErrorKind::Io);
                return false;
            }
        }
        clearError();
        pendingError_.clear();
        loadHeads();
        return !failed();
    }

  private:
    struct Shard
    {
        std::unique_ptr<ShardFileReader> reader;
        std::vector<ShardRecord> batch;
        std::size_t pos = 0;
    };

    /** A construction-time failure; unlike mid-stream I/O errors
     * it survives rewind(). */
    void
    rejectSet(std::string message)
    {
        rejected_ = true;
        fail(0, std::move(message));
    }

    void
    failPending()
    {
        std::string message = std::move(pendingError_);
        pendingError_.clear();
        fail(0, std::move(message));
    }

    /** Load shard @p s's next batch; false at end of shard, with
     * any decode error parked for the next delivery attempt. */
    bool
    refillShard(std::size_t s)
    {
        Shard &shard = shards_[s];
        shard.pos = 0;
        if (!shard.reader->readBatch(shard.batch)) {
            shard.batch.clear();
            if (!shard.reader->ok())
                pendingError_ = shard.reader->error();
            return false;
        }
        return true;
    }

    /** Shard @p w consumed its head: feed the picker the next
     * stamp (or the infinite key once the shard is done). */
    void
    advanceKey(std::size_t w)
    {
        Shard &s = shards_[w];
        if (s.pos < s.batch.size()) {
            picker_.update(w, s.batch[s.pos].seq);
            return;
        }
        picker_.update(w, refillShard(w) ? s.batch[0].seq
                                         : kLoserTreeInfKey);
    }

    void
    loadHeads()
    {
        std::vector<std::uint64_t> keys(shards_.size(),
                                        kLoserTreeInfKey);
        for (std::size_t s = 0; s < shards_.size(); s++) {
            if (refillShard(s)) {
                keys[s] = shards_[s].batch[0].seq;
            } else if (!pendingError_.empty()) {
                // A shard whose very first batch is broken fails
                // the source at construction, as the one-record
                // head loader always did.
                failPending();
                return;
            }
        }
        picker_.reset(keys);
    }

    std::vector<Shard> shards_;
    SourceInfo info_;
    MergePicker picker_;
    MergeStrategy strategy_;
    std::string pendingError_;
    bool rejected_ = false;
};

/** Merged-event batches a range worker may keep queued ahead of
 * the consumer (double buffering per range: one being delivered,
 * one merging behind it). */
constexpr std::size_t kRangeQueueDepth = 2;

/**
 * The merged order reconstructed by P range-partitioned workers.
 *
 * Where the sequential merge decodes and reorders on the consuming
 * thread, this partitions the reorder itself: the global sequence
 * space [min stamp, max stamp + 1) is
 * split into P contiguous key ranges
 * (MergePicker::splitSequenceRange), and each worker runs a full
 * private K-way merge — its own ShardFileReader cursors, its own
 * loser tree — positioned by per-shard countBelow() at its range
 * start and drained until MergePicker::drainedBelow(rangeEnd).
 * Stamps are globally unique, so no record straddles a boundary
 * and concatenating the per-range merges in range order *is* the
 * total order (pinned at the picker level by the merge-picker
 * suite and end-to-end by the partitioned-merge suite).
 *
 * Hand-off: each range owns a bounded batch queue; the consumer
 * drains range 0's queue to exhaustion, then range 1's, and so on.
 * A worker that hits a decode error finishes its range with the
 * error parked, so it surfaces only after every valid event before
 * it was delivered — the same one-call-later contract as the
 * sequential merge, and because ranges are consumed in order, at
 * the same merged position with the same message. When the range
 * bounds cannot be probed up front (e.g. a torn tail hiding the
 * last stamp), the source falls back to one worker over the whole
 * key space, which degenerates to exactly the sequential merge's
 * behaviour.
 */
class PartitionedMergingEventSource final : public EventSource
{
  public:
    PartitionedMergingEventSource(const std::string &prefix,
                                  std::size_t workers,
                                  std::size_t window, IoMode io)
        : prefix_(prefix), window_(window == 0 ? 1 : window),
          io_(io)
    {
        std::string err =
            openShardReaders(prefix, window_, probes_, info_, io);
        if (!err.empty()) {
            rejected_ = true;
            fail(0, std::move(err));
            return;
        }
        workerCount_ = workers == 0 ? 1 : workers;
        if (workerCount_ > kMaxShardSetCount)
            workerCount_ = kMaxShardSetCount;
        if (!computeKeyBounds()) {
            // Range probes failed (e.g. a truncated tail): one
            // worker over the unbounded key range reproduces the
            // sequential merge exactly, including where and how it
            // fails.
            loKey_ = 0;
            hiKey_ = kLoserTreeInfKey;
            workerCount_ = 1;
        }
        startWorkers(loKey_);
    }

    ~PartitionedMergingEventSource() override { stopWorkers(); }

    SourceInfo info() const override { return info_; }

    bool
    next(Event &out) override
    {
        if (failed())
            return false;
        if (pos_ >= batch_.size() && !refillBatch()) {
            if (!pendingError_.empty())
                failPending();
            return false;
        }
        out = batch_[pos_];
        pos_++;
        return true;
    }

    std::size_t
    read(Event *out, std::size_t max) override
    {
        if (failed())
            return 0;
        std::size_t n = 0;
        while (n < max) {
            if (pos_ >= batch_.size() && !refillBatch()) {
                // Deliver what we have; a parked error then
                // surfaces on the next call, like the sequential
                // merge's pending-error contract.
                if (n == 0 && !pendingError_.empty())
                    failPending();
                break;
            }
            const std::size_t take = std::min(
                max - n, batch_.size() - pos_);
            std::copy(batch_.begin() +
                          static_cast<std::ptrdiff_t>(pos_),
                      batch_.begin() +
                          static_cast<std::ptrdiff_t>(pos_ + take),
                      out + n);
            pos_ += take;
            n += take;
        }
        return n;
    }

    bool
    rewind() override
    {
        // A set rejected at open time stays rejected, as with the
        // other merge sources.
        if (rejected_)
            return false;
        stopWorkers();
        clearError();
        pendingError_.clear();
        batch_.clear();
        pos_ = 0;
        current_ = 0;
        startWorkers(loKey_);
        return true;
    }

    /** O(tail) resume: find the stamp key with global rank @p n,
     * then re-partition [key, hi) across the workers so only the
     * tail is merged. */
    bool
    seekToSequence(std::uint64_t n) override
    {
        if (rejected_)
            return false;
        if (n == 0)
            return rewind();
        stopWorkers();
        clearError();
        pendingError_.clear();
        batch_.clear();
        pos_ = 0;
        current_ = 0;
        std::uint64_t key = hiKey_;
        if (n < info_.events) {
            std::vector<ShardFileReader *> readers;
            readers.reserve(probes_.size());
            for (auto &p : probes_)
                readers.push_back(p.get());
            if (!findSeekKey(readers, n, key)) {
                fail(0, "shard seek failed",
                     SourceErrorKind::Io);
                return false;
            }
        }
        startWorkers(key);
        return true;
    }

  private:
    /** One key range's worker → consumer hand-off. */
    struct Range
    {
        std::uint64_t lo = 0; ///< first stamp of the range
        std::uint64_t hi = 0; ///< one past the last stamp

        std::mutex m;
        std::condition_variable data;  ///< consumer waits
        std::condition_variable space; ///< worker waits
        std::deque<std::vector<Event>> full;
        std::vector<std::vector<Event>> spare;
        bool done = false;
        /** Sticky worker error; becomes the source error once the
         * consumer has drained every event queued before it. */
        std::string error;
        SourceErrorKind errorKind = SourceErrorKind::Corrupt;
    };

    /** First and one-past-last stamp across the set, from O(K)
     * single-record probes. False when a probe fails or a stamp is
     * the reserved infinite key — the caller then falls back to
     * the unbounded single-worker range. */
    bool
    computeKeyBounds()
    {
        loKey_ = 0;
        hiKey_ = 0;
        bool any = false;
        for (auto &p : probes_) {
            const std::uint64_t m = p->header().shardEvents;
            if (m == 0)
                continue;
            std::uint64_t first = 0, last = 0;
            if (!p->seqAt(0, first) || !p->seqAt(m - 1, last) ||
                last == kLoserTreeInfKey)
                return false;
            loKey_ = any ? std::min(loKey_, first) : first;
            hiKey_ = any ? std::max(hiKey_, last + 1) : last + 1;
            any = true;
        }
        return true;
    }

    void
    startWorkers(std::uint64_t startKey)
    {
        if (startKey > hiKey_)
            startKey = hiKey_;
        const std::vector<std::uint64_t> bounds =
            MergePicker::splitSequenceRange(startKey, hiKey_,
                                            workerCount_);
        ranges_.clear();
        stopRequested_.store(false, std::memory_order_relaxed);
        threads_.reserve(workerCount_);
        for (std::size_t p = 0; p < workerCount_; p++) {
            ranges_.push_back(std::make_unique<Range>());
            Range &r = *ranges_.back();
            r.lo = bounds[p];
            r.hi = bounds[p + 1];
            if (r.lo >= r.hi)
                r.done = true; // empty range: no thread to spawn
        }
        for (auto &r : ranges_) {
            if (!r->done)
                threads_.emplace_back(
                    [this, rp = r.get()] { workerLoop(*rp); });
        }
    }

    void
    stopWorkers()
    {
        if (threads_.empty()) {
            ranges_.clear();
            return;
        }
        stopRequested_.store(true, std::memory_order_relaxed);
        for (auto &r : ranges_) {
            // Pair the flag with each range's lock so a worker
            // between its predicate check and its sleep cannot
            // miss the wake.
            { std::lock_guard<std::mutex> lock(r->m); }
            r->space.notify_all();
            r->data.notify_all();
        }
        for (std::thread &t : threads_)
            t.join();
        threads_.clear();
        ranges_.clear();
        stopRequested_.store(false, std::memory_order_relaxed);
    }

    /** Queue @p out on @p r, blocking while the queue is full.
     * False only when the source is shutting down. */
    bool
    pushBatch(Range &r, std::vector<Event> &out)
    {
        std::unique_lock<std::mutex> lock(r.m);
        r.space.wait(lock, [&] {
            return stopRequested_.load(
                       std::memory_order_relaxed) ||
                   r.full.size() < kRangeQueueDepth;
        });
        if (stopRequested_.load(std::memory_order_relaxed))
            return false;
        r.full.push_back(std::move(out));
        if (!r.spare.empty()) {
            out = std::move(r.spare.back());
            r.spare.pop_back();
            out.clear();
        } else {
            out = {};
        }
        lock.unlock();
        r.data.notify_one();
        return true;
    }

    void
    finishRange(Range &r, std::string err, SourceErrorKind kind)
    {
        {
            std::lock_guard<std::mutex> lock(r.m);
            r.done = true;
            r.error = std::move(err);
            r.errorKind = kind;
        }
        r.data.notify_one();
    }

    /**
     * One range's merge: a private cursor set over the same files,
     * positioned by countBelow(lo) per shard, merged through a
     * private picker until every head key is at or past hi.
     */
    void
    workerLoop(Range &r)
    {
        std::string err;
        SourceErrorKind kind = SourceErrorKind::Corrupt;
        const std::size_t shardCount = probes_.size();
        std::vector<std::unique_ptr<ShardFileReader>> readers;
        readers.reserve(shardCount);
        for (std::size_t s = 0; s < shardCount && err.empty();
             s++) {
            readers.push_back(std::make_unique<ShardFileReader>(
                shardPath(prefix_, s), window_, io_));
            if (!readers.back()->ok())
                err = readers.back()->error();
        }
        // Position every cursor at its first in-range record. The
        // first range starts at the global minimum stamp, where the
        // rank is 0 by definition — no probes, so a merge from the
        // start never fails on a seek the sequential merge would
        // not attempt.
        for (std::size_t s = 0;
             err.empty() && s < readers.size(); s++) {
            std::uint64_t index = 0;
            if (r.lo > loKey_ &&
                !readers[s]->countBelow(r.lo, index)) {
                err = "shard seek failed";
                kind = SourceErrorKind::Io;
                break;
            }
            if (!readers[s]->seekToIndex(index)) {
                err = strFormat("%s: seek failed",
                                readers[s]->path().c_str());
                kind = SourceErrorKind::Io;
            }
        }
        std::vector<std::vector<ShardRecord>> batches(
            readers.size());
        std::vector<std::size_t> pos(readers.size(), 0);
        MergePicker picker(readers.size(),
                           MergeStrategy::LoserTree);
        if (err.empty()) {
            // Head load, in shard order like the sequential
            // merge's, so a broken first batch surfaces the same
            // shard's message.
            std::vector<std::uint64_t> keys(readers.size(),
                                            kLoserTreeInfKey);
            for (std::size_t s = 0; s < readers.size(); s++) {
                if (readers[s]->readBatch(batches[s])) {
                    keys[s] = batches[s][0].seq;
                } else if (!readers[s]->ok()) {
                    err = readers[s]->error();
                    break;
                }
            }
            picker.reset(keys);
        }
        const std::size_t cap =
            window_ < 256 ? std::size_t(256) : window_;
        std::vector<Event> out;
        out.reserve(cap);
        while (err.empty() && !picker.drainedBelow(r.hi)) {
            const std::size_t w = picker.pick();
            out.push_back(batches[w][pos[w]].event);
            pos[w]++;
            if (pos[w] < batches[w].size()) {
                picker.update(w, batches[w][pos[w]].seq);
            } else {
                pos[w] = 0;
                if (readers[w]->readBatch(batches[w])) {
                    picker.update(w, batches[w][0].seq);
                } else {
                    batches[w].clear();
                    picker.update(w, kLoserTreeInfKey);
                    if (!readers[w]->ok())
                        err = readers[w]->error();
                }
            }
            if (out.size() >= cap && !pushBatch(r, out))
                return; // shutting down
        }
        if (!out.empty() && !pushBatch(r, out))
            return;
        finishRange(r, std::move(err), kind);
    }

    void
    failPending()
    {
        std::string message = std::move(pendingError_);
        pendingError_.clear();
        fail(0, std::move(message), pendingKind_);
    }

    /**
     * Consumer side: pop the next batch, advancing through the
     * ranges in order. False at end of stream or when the current
     * range finished with an error — the error is then parked in
     * pendingError_ (and stays on the range, so a later call
     * re-parks it, matching the sequential merge's surface-once-
     * then-stay-failed behaviour).
     */
    bool
    refillBatch()
    {
        std::vector<Event> drained = std::move(batch_);
        batch_.clear();
        pos_ = 0;
        bool recycled = drained.capacity() == 0;
        while (current_ < ranges_.size()) {
            Range &r = *ranges_[current_];
            std::unique_lock<std::mutex> lock(r.m);
            if (!recycled) {
                r.spare.push_back(std::move(drained));
                recycled = true;
            }
            r.data.wait(lock, [&] {
                return r.done || !r.full.empty();
            });
            if (!r.full.empty()) {
                batch_ = std::move(r.full.front());
                r.full.pop_front();
                lock.unlock();
                r.space.notify_one();
                return true;
            }
            if (!r.error.empty()) {
                pendingError_ = r.error;
                pendingKind_ = r.errorKind;
                return false;
            }
            lock.unlock();
            current_++;
        }
        return false;
    }

    std::string prefix_;
    std::size_t window_;
    IoMode io_;
    SourceInfo info_;
    /** The construction-time readers, kept for seek-key probes
     * (findSeekKey / computeKeyBounds); never used for decode. */
    std::vector<std::unique_ptr<ShardFileReader>> probes_;
    std::size_t workerCount_ = 1;
    std::uint64_t loKey_ = 0;
    std::uint64_t hiKey_ = 0;

    std::vector<std::unique_ptr<Range>> ranges_;
    std::vector<std::thread> threads_;
    std::atomic<bool> stopRequested_{false};

    /** Consumer-thread-only delivery cursor. */
    std::vector<Event> batch_;
    std::size_t pos_ = 0;
    std::size_t current_ = 0;

    std::string pendingError_;
    SourceErrorKind pendingKind_ = SourceErrorKind::Corrupt;
    bool rejected_ = false;
};

} // namespace

std::string
shardPath(const std::string &prefix, std::uint32_t index)
{
    return strFormat("%s.%u.tcs", prefix.c_str(), index);
}

bool
isShardPath(const std::string &path)
{
    return path.size() >= 4 &&
           path.compare(path.size() - 4, 4, ".tcs") == 0;
}

std::uint32_t
shardSetCount(const std::string &prefix)
{
    std::ifstream is(shardPath(prefix, 0), std::ios::binary);
    ShardHeader h;
    if (!is || !readShardHeader(is, h))
        return 0;
    // An out-of-range count is a corrupt header, not a huge set;
    // callers size loops and path lists off this value.
    return h.count > kMaxShardSetCount ? 0 : h.count;
}

bool
parseShardPath(const std::string &path, std::string &prefix,
               std::uint32_t &index)
{
    if (!isShardPath(path))
        return false;
    const std::size_t digits_end = path.size() - 4;
    std::size_t digits_begin = digits_end;
    while (digits_begin > 0 &&
           std::isdigit(static_cast<unsigned char>(
               path[digits_begin - 1])))
        digits_begin--;
    if (digits_begin == digits_end || digits_begin < 2 ||
        path[digits_begin - 1] != '.')
        return false;
    const std::size_t digits = digits_end - digits_begin;
    // Only the canonical shardPath() spelling decomposes: leading
    // zeros ("cap.00.tcs") or overflowing indices would parse to
    // an index naming a *different* file than the one given,
    // defeating the stale-member check in openShardMember().
    if (digits > 9 ||
        (digits > 1 && path[digits_begin] == '0'))
        return false;
    prefix = path.substr(0, digits_begin - 1);
    index = static_cast<std::uint32_t>(std::strtoul(
        path.substr(digits_begin, digits_end - digits_begin)
            .c_str(),
        nullptr, 10));
    return true;
}

ShardWriter::ShardWriter(const std::string &prefix,
                         std::uint32_t shards,
                         const SourceInfo &info)
{
    if (shards == 0)
        shards = 1;
    if (shards > kMaxShardSetCount)
        shards = kMaxShardSetCount;
    ShardHeader h;
    // Versioned by content: lifecycle-free captures stay TCSH1 so
    // readers reconstruct the same lifecycle hint (and therefore
    // the same analysis memory behavior) as the original source.
    h.version = info.lifecycle ? 2 : 1;
    h.count = shards;
    h.threads = static_cast<std::uint32_t>(info.threads);
    h.locks = static_cast<std::uint32_t>(info.locks);
    h.vars = static_cast<std::uint32_t>(info.vars);
    h.shardEvents = kUnknownEventCount;
    h.totalEvents = kUnknownEventCount;
    shards_.resize(shards);
    for (std::uint32_t i = 0; i < shards; i++) {
        const std::string path = shardPath(prefix, i);
        shards_[i].os.open(path, std::ios::binary);
        if (!shards_[i].os) {
            failed_ = true;
            error_ = strFormat("cannot write '%s'", path.c_str());
            return;
        }
        h.index = i;
        writeShardHeader(shards_[i].os, h);
    }
}

ShardWriter::~ShardWriter() = default;

bool
ShardWriter::append(const Event &e)
{
    if (finalized_) {
        // finalize() left the put positions on the header counts;
        // writing a record now would corrupt the files.
        failed_ = true;
        error_ = "append after finalize";
        return false;
    }
    if (failed_)
        return false;
    Shard &shard =
        shards_[static_cast<std::size_t>(e.tid) % shards_.size()];
    const std::uint64_t seq = nextSeq_++;
    if (const FaultDecision f = failpoint("shard.append")) {
        if (f.action == FaultAction::Crash)
            faultCrash("shard.append");
        if (f.action == FaultAction::TornWrite) {
            // Persist part of the record, then fail: the torn tail
            // the reader's truncation check must catch.
            shard.os.write(reinterpret_cast<const char *>(&seq),
                           sizeof(seq));
            shard.os.flush();
        }
        failed_ = true;
        error_ = f.action == FaultAction::TornWrite
                     ? "injected torn write while writing shard"
                     : "injected I/O error while writing shard";
        return false;
    }
    const std::int32_t tid = e.tid;
    const std::uint32_t target = e.target;
    const std::uint8_t op = static_cast<std::uint8_t>(e.op);
    shard.os.write(reinterpret_cast<const char *>(&seq),
                   sizeof(seq));
    shard.os.write(reinterpret_cast<const char *>(&tid),
                   sizeof(tid));
    shard.os.write(reinterpret_cast<const char *>(&target),
                   sizeof(target));
    shard.os.write(reinterpret_cast<const char *>(&op),
                   sizeof(op));
    shard.events++;
    if (!shard.os) {
        failed_ = true;
        error_ = "I/O error while writing shard";
        return false;
    }
    return true;
}

bool
ShardWriter::finalize()
{
    if (failed_ || finalized_)
        return !failed_ && finalized_;
    if (const FaultDecision f = failpoint("shard.finalize")) {
        // A crash here leaves the kUnknownEventCount sentinel in
        // every header — exactly what readers report as a crashed
        // capture.
        if (f.action == FaultAction::Crash)
            faultCrash("shard.finalize");
        failed_ = true;
        error_ = "injected I/O error while finalizing shard";
        return false;
    }
    for (Shard &shard : shards_) {
        const std::uint64_t counts[2] = {shard.events, nextSeq_};
        shard.os.seekp(
            static_cast<std::streamoff>(kCountsOffset));
        shard.os.write(reinterpret_cast<const char *>(counts),
                       sizeof(counts));
        shard.os.flush();
        if (!shard.os) {
            failed_ = true;
            error_ = "I/O error while finalizing shard";
            return false;
        }
    }
    finalized_ = true;
    return true;
}

/** Appender staging segment: one contiguous memcpy target sized to
 * stay cache-friendly on the hot path. */
static constexpr std::size_t kAppendFlushBytes = 1 << 16;
/** Segments staged per appender before one gathered writev()
 * submits them all — a quarter of the syscalls of flushing each
 * segment on its own, without a single huge staging copy. */
static constexpr std::size_t kAppendBatchSegments = 4;

/**
 * Background flusher shared by one ParallelShardWriter's appenders
 * in ShardAppendMode::Async. A submission carries its own
 * (fd, offset, buffers) triple, so completions may land in any
 * order without corrupting the files, and capture threads go back
 * to staging the moment their segments are handed over — encode
 * overlaps the flush instead of waiting on it.
 *
 * Errors are sticky and surface on a *later* flush or at
 * finalize(); finalize() drains every submitted write before it
 * patches the headers, so a finalized set is byte-identical to the
 * sync path's. Two implementations sit behind submit()/drain(): an
 * io_uring ring where the probe succeeds, and a flusher thread
 * issuing positioned pwritev() otherwise.
 */
class ShardFlushBackend
{
  public:
    virtual ~ShardFlushBackend() = default;

    /** Pick the best available implementation. Never null. */
    static std::unique_ptr<ShardFlushBackend> create();

    /**
     * Queue @p segs (ownership transferred; buffers stay alive
     * until their write completes) for writing at byte @p offset of
     * @p fd. Returns recycled, cleared segment buffers for the
     * caller to stage into — capacity is reused across flushes so
     * the steady-state append path allocates nothing. Thread-safe;
     * blocks only when the in-flight window is full.
     */
    virtual std::vector<std::vector<unsigned char>>
    submit(int fd, std::uint64_t offset,
           std::vector<std::vector<unsigned char>> segs) = 0;

    /** Block until every submitted write has completed. */
    virtual void drain() = 0;

    bool
    failed() const
    {
        return failed_.load(std::memory_order_acquire);
    }

    std::string
    error() const
    {
        std::lock_guard<std::mutex> lock(errMutex_);
        return error_;
    }

  protected:
    /** First error wins; later submissions become no-ops. */
    void
    setError(std::string msg)
    {
        std::lock_guard<std::mutex> lock(errMutex_);
        if (error_.empty())
            error_ = std::move(msg);
        failed_.store(true, std::memory_order_release);
    }

  private:
    mutable std::mutex errMutex_;
    std::atomic<bool> failed_{false};
    std::string error_;
};

namespace {

/** Submissions a backend may hold queued or in flight before
 * submit() blocks — bounds staged-buffer memory to
 * kMaxInflightFlushes × kAppendBatchSegments × ~64KiB. */
constexpr std::size_t kMaxInflightFlushes = 8;

/** One queued gathered write: where it goes and what it carries. */
struct FlushSubmission
{
    int fd = -1;
    std::uint64_t offset = 0;
    std::vector<std::vector<unsigned char>> segs;
};

/** Positioned gathered write with EINTR retry and partial-write
 * trim — the async twin of the sync path's writev() loop, with the
 * explicit offset making completion order irrelevant. */
bool
pwritevAll(int fd, const FlushSubmission &s, std::size_t skip)
{
    struct iovec iov[kAppendBatchSegments];
    int iovcnt = 0;
    std::size_t total = 0;
    for (const auto &seg : s.segs) {
        if (seg.empty())
            continue;
        iov[iovcnt].iov_base =
            const_cast<unsigned char *>(seg.data());
        iov[iovcnt].iov_len = seg.size();
        total += seg.size();
        iovcnt++;
    }
    std::uint64_t off = s.offset;
    struct iovec *p = iov;
    // A resumed write (skip > 0) drops the bytes io_uring already
    // landed before its short completion.
    for (;;) {
        while (iovcnt > 0 && skip >= p->iov_len) {
            skip -= p->iov_len;
            off += p->iov_len;
            p++;
            iovcnt--;
        }
        if (iovcnt == 0)
            return true;
        if (skip > 0) {
            p->iov_base =
                static_cast<unsigned char *>(p->iov_base) + skip;
            p->iov_len -= skip;
            off += skip;
            skip = 0;
        }
        const ssize_t wrote =
            ::pwritev(fd, p, iovcnt, static_cast<off_t>(off));
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        skip = static_cast<std::size_t>(wrote);
    }
}

/**
 * Fallback backend: one flusher thread draining a bounded queue of
 * positioned pwritev() submissions. Portable to anything with
 * pwritev; on a saturated disk it degenerates gracefully — submit()
 * blocks exactly like the sync path once the queue is full.
 */
class ThreadFlushBackend final : public ShardFlushBackend
{
  public:
    ThreadFlushBackend()
    {
        worker_ = std::thread([this] { loop(); });
    }

    ~ThreadFlushBackend() override
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            stop_ = true;
        }
        wake_.notify_all();
        worker_.join();
    }

    std::vector<std::vector<unsigned char>>
    submit(int fd, std::uint64_t offset,
           std::vector<std::vector<unsigned char>> segs) override
    {
        FlushSubmission s;
        s.fd = fd;
        s.offset = offset;
        s.segs = std::move(segs);
        std::vector<std::vector<unsigned char>> fresh;
        {
            std::unique_lock<std::mutex> lock(m_);
            space_.wait(lock, [&] {
                return queue_.size() < kMaxInflightFlushes;
            });
            queue_.push_back(std::move(s));
            if (!spare_.empty()) {
                fresh = std::move(spare_.back());
                spare_.pop_back();
            }
        }
        wake_.notify_one();
        return fresh;
    }

    void
    drain() override
    {
        std::unique_lock<std::mutex> lock(m_);
        idle_.wait(lock,
                   [&] { return queue_.empty() && !busy_; });
    }

  private:
    void
    loop()
    {
        for (;;) {
            FlushSubmission s;
            {
                std::unique_lock<std::mutex> lock(m_);
                wake_.wait(lock, [&] {
                    return stop_ || !queue_.empty();
                });
                if (queue_.empty())
                    return; // stop requested, queue drained
                s = std::move(queue_.front());
                queue_.pop_front();
                busy_ = true;
            }
            space_.notify_one();
            if (!failed() && !pwritevAll(s.fd, s, 0))
                setError("I/O error while writing shard");
            {
                std::lock_guard<std::mutex> lock(m_);
                for (auto &seg : s.segs)
                    seg.clear();
                spare_.push_back(std::move(s.segs));
                busy_ = false;
            }
            idle_.notify_all();
        }
    }

    std::mutex m_;
    std::condition_variable wake_;
    std::condition_variable space_;
    std::condition_variable idle_;
    std::deque<FlushSubmission> queue_;
    std::vector<std::vector<std::vector<unsigned char>>> spare_;
    bool busy_ = false;
    bool stop_ = false;
    std::thread worker_;
};

#if TC_HAVE_IO_URING

/**
 * io_uring backend: submissions become IORING_OP_WRITEV entries on
 * a kernel ring, so the flush runs entirely in-kernel with no
 * flusher thread to schedule. Buffers are pinned in slots_ until
 * their completion is reaped; a short completion (ENOSPC aside,
 * essentially theoretical for regular files) finishes synchronously
 * via the shared pwritev loop rather than growing a resubmission
 * state machine.
 */
class IoUringFlushBackend final : public ShardFlushBackend
{
  public:
    /** Set up a ring and prove it works end-to-end with a NOP
     * round-trip — mere header presence means nothing under
     * seccomp. Null on any failure; callers fall back. */
    static std::unique_ptr<IoUringFlushBackend>
    probe()
    {
        std::unique_ptr<IoUringFlushBackend> b(
            new IoUringFlushBackend());
        if (!b->init())
            return nullptr;
        return b;
    }

    ~IoUringFlushBackend() override
    {
        drain(); // in-flight writes reference slot buffers
        if (sqes_ != nullptr)
            ::munmap(sqes_, sqesBytes_);
        if (ring_ != nullptr)
            ::munmap(ring_, ringBytes_);
        if (ringFd_ >= 0)
            ::close(ringFd_);
    }

    std::vector<std::vector<unsigned char>>
    submit(int fd, std::uint64_t offset,
           std::vector<std::vector<unsigned char>> segs) override
    {
        std::lock_guard<std::mutex> lock(m_);
        reap(); // opportunistic, keeps slots cycling
        std::vector<std::vector<unsigned char>> fresh;
        if (!spare_.empty()) {
            fresh = std::move(spare_.back());
            spare_.pop_back();
        }
        if (failed()) {
            // Sticky failure: recycle without touching the ring so
            // the appender sees the error on its next flush.
            return fresh;
        }
        while (inflight_ >= slots_.size()) {
            if (!waitOne())
                return fresh;
        }
        std::size_t idx = 0;
        while (slots_[idx].active)
            idx++;
        Slot &slot = slots_[idx];
        slot.sub.fd = fd;
        slot.sub.offset = offset;
        slot.sub.segs = std::move(segs);
        slot.iovcnt = 0;
        slot.total = 0;
        for (const auto &seg : slot.sub.segs) {
            if (seg.empty())
                continue;
            slot.iov[slot.iovcnt].iov_base =
                const_cast<unsigned char *>(seg.data());
            slot.iov[slot.iovcnt].iov_len = seg.size();
            slot.total += seg.size();
            slot.iovcnt++;
        }
        slot.active = true;
        pushSqe(idx);
        inflight_++;
        if (!enter(1, 0, 0)) {
            // Submission itself failed: the kernel never saw the
            // sqe, so complete the write synchronously.
            slot.active = false;
            inflight_--;
            if (!pwritevAll(slot.sub.fd, slot.sub, 0))
                setError("I/O error while writing shard");
            recycleLocked(slot);
        }
        return fresh;
    }

    void
    drain() override
    {
        std::lock_guard<std::mutex> lock(m_);
        while (inflight_ > 0) {
            if (!waitOne())
                return;
        }
    }

  private:
    struct Slot
    {
        FlushSubmission sub;
        struct iovec iov[kAppendBatchSegments];
        int iovcnt = 0;
        std::size_t total = 0;
        bool active = false;
    };

    IoUringFlushBackend() = default;

    bool
    init()
    {
        struct io_uring_params p;
        std::memset(&p, 0, sizeof(p));
        const long fd = ::syscall(__NR_io_uring_setup,
                                  kRingEntries, &p);
        if (fd < 0)
            return false;
        ringFd_ = static_cast<int>(fd);
        // One mapping covers both rings on every kernel new enough
        // to matter; skipping the split-mmap dance keeps this
        // readable, and the thread backend covers the rest.
        if ((p.features & IORING_FEAT_SINGLE_MMAP) == 0)
            return false;
        const std::size_t sqBytes =
            p.sq_off.array + p.sq_entries * sizeof(std::uint32_t);
        const std::size_t cqBytes =
            p.cq_off.cqes +
            p.cq_entries * sizeof(struct io_uring_cqe);
        ringBytes_ = std::max(sqBytes, cqBytes);
        void *ring = ::mmap(nullptr, ringBytes_,
                            PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_POPULATE, ringFd_,
                            IORING_OFF_SQ_RING);
        if (ring == MAP_FAILED)
            return false;
        ring_ = static_cast<unsigned char *>(ring);
        sqesBytes_ = p.sq_entries * sizeof(struct io_uring_sqe);
        void *sqes = ::mmap(nullptr, sqesBytes_,
                            PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_POPULATE, ringFd_,
                            IORING_OFF_SQES);
        if (sqes == MAP_FAILED)
            return false;
        sqes_ = static_cast<struct io_uring_sqe *>(sqes);
        sqHead_ = ringU32(p.sq_off.head);
        sqTail_ = ringU32(p.sq_off.tail);
        sqMask_ = *ringU32(p.sq_off.ring_mask);
        sqArray_ = ringU32(p.sq_off.array);
        cqHead_ = ringU32(p.cq_off.head);
        cqTail_ = ringU32(p.cq_off.tail);
        cqMask_ = *ringU32(p.cq_off.ring_mask);
        cqes_ = reinterpret_cast<struct io_uring_cqe *>(
            ring_ + p.cq_off.cqes);
        slots_.resize(std::min<std::size_t>(kRingEntries,
                                            p.sq_entries));
        // End-to-end probe: a NOP must travel the whole ring.
        struct io_uring_sqe *sqe = &sqes_[0];
        std::memset(sqe, 0, sizeof(*sqe));
        sqe->opcode = IORING_OP_NOP;
        sqe->user_data = ~0ull;
        const std::uint32_t tail =
            __atomic_load_n(sqTail_, __ATOMIC_RELAXED);
        sqArray_[tail & sqMask_] = 0;
        __atomic_store_n(sqTail_, tail + 1, __ATOMIC_RELEASE);
        if (!enter(1, 1, IORING_ENTER_GETEVENTS))
            return false;
        const std::uint32_t head =
            __atomic_load_n(cqHead_, __ATOMIC_RELAXED);
        if (__atomic_load_n(cqTail_, __ATOMIC_ACQUIRE) == head)
            return false;
        __atomic_store_n(cqHead_, head + 1, __ATOMIC_RELEASE);
        return true;
    }

    std::uint32_t *
    ringU32(std::uint32_t off)
    {
        return reinterpret_cast<std::uint32_t *>(ring_ + off);
    }

    void
    pushSqe(std::size_t idx)
    {
        const std::uint32_t tail =
            __atomic_load_n(sqTail_, __ATOMIC_RELAXED);
        struct io_uring_sqe *sqe = &sqes_[tail & sqMask_];
        std::memset(sqe, 0, sizeof(*sqe));
        sqe->opcode = IORING_OP_WRITEV;
        sqe->fd = slots_[idx].sub.fd;
        sqe->addr =
            reinterpret_cast<std::uint64_t>(slots_[idx].iov);
        sqe->len = static_cast<std::uint32_t>(slots_[idx].iovcnt);
        sqe->off = slots_[idx].sub.offset;
        sqe->user_data = idx;
        sqArray_[tail & sqMask_] =
            static_cast<std::uint32_t>(tail & sqMask_);
        __atomic_store_n(sqTail_, tail + 1, __ATOMIC_RELEASE);
    }

    bool
    enter(unsigned toSubmit, unsigned minComplete, unsigned flags)
    {
        for (;;) {
            const long r =
                ::syscall(__NR_io_uring_enter, ringFd_, toSubmit,
                          minComplete, flags, nullptr, 0);
            if (r >= 0)
                return true;
            if (errno == EINTR)
                continue;
            setError("I/O error while writing shard");
            return false;
        }
    }

    /** Blocking reap of at least one completion. */
    bool
    waitOne()
    {
        if (!enter(0, 1, IORING_ENTER_GETEVENTS)) {
            // The ring broke under us; in-flight accounting can
            // never settle, so unblock callers and stay failed.
            inflight_ = 0;
            return false;
        }
        reap();
        return true;
    }

    void
    reap()
    {
        std::uint32_t head =
            __atomic_load_n(cqHead_, __ATOMIC_RELAXED);
        while (__atomic_load_n(cqTail_, __ATOMIC_ACQUIRE) !=
               head) {
            const struct io_uring_cqe &cqe =
                cqes_[head & cqMask_];
            const std::size_t idx =
                static_cast<std::size_t>(cqe.user_data);
            const std::int32_t res = cqe.res;
            head++;
            __atomic_store_n(cqHead_, head, __ATOMIC_RELEASE);
            if (idx >= slots_.size() || !slots_[idx].active)
                continue; // the probe NOP, or a stale entry
            Slot &slot = slots_[idx];
            if (res < 0) {
                setError("I/O error while writing shard");
            } else if (static_cast<std::size_t>(res) <
                       slot.total) {
                if (!pwritevAll(slot.sub.fd, slot.sub,
                                static_cast<std::size_t>(res)))
                    setError("I/O error while writing shard");
            }
            slot.active = false;
            inflight_--;
            recycleLocked(slot);
        }
    }

    void
    recycleLocked(Slot &slot)
    {
        for (auto &seg : slot.sub.segs)
            seg.clear();
        spare_.push_back(std::move(slot.sub.segs));
        slot.sub.segs = {};
    }

    static constexpr std::uint32_t kRingEntries = 16;

    std::mutex m_;
    int ringFd_ = -1;
    unsigned char *ring_ = nullptr;
    std::size_t ringBytes_ = 0;
    struct io_uring_sqe *sqes_ = nullptr;
    std::size_t sqesBytes_ = 0;
    std::uint32_t *sqHead_ = nullptr;
    std::uint32_t *sqTail_ = nullptr;
    std::uint32_t sqMask_ = 0;
    std::uint32_t *sqArray_ = nullptr;
    std::uint32_t *cqHead_ = nullptr;
    std::uint32_t *cqTail_ = nullptr;
    std::uint32_t cqMask_ = 0;
    struct io_uring_cqe *cqes_ = nullptr;
    std::vector<Slot> slots_;
    std::size_t inflight_ = 0;
    std::vector<std::vector<std::vector<unsigned char>>> spare_;
};

#endif // TC_HAVE_IO_URING

} // namespace

std::unique_ptr<ShardFlushBackend>
ShardFlushBackend::create()
{
#if TC_HAVE_IO_URING
    if (auto ring = IoUringFlushBackend::probe())
        return ring;
#endif
    return std::make_unique<ThreadFlushBackend>();
}

ParallelShardWriter::Appender::~Appender()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
ParallelShardWriter::Appender::append(const Event &e)
{
    if (failed_)
        return false;
    return appendStamped(
        seq_->fetch_add(1, std::memory_order_acq_rel), e);
}

bool
ParallelShardWriter::Appender::appendStamped(std::uint64_t seq,
                                             const Event &e)
{
    if (failed_)
        return false;
    if (*finalized_) {
        // finalize() patched the header counts; writing a record
        // now would corrupt the file.
        failed_ = true;
        error_ = "append after finalize";
        return false;
    }
    unsigned char rec[kShardRecordBytes];
    const std::int32_t tid = e.tid;
    const std::uint32_t target = e.target;
    std::memcpy(rec, &seq, sizeof(seq));
    std::memcpy(rec + 8, &tid, sizeof(tid));
    std::memcpy(rec + 12, &target, sizeof(target));
    rec[16] = static_cast<unsigned char>(e.op);
    std::vector<unsigned char> &seg = segs_[active_];
    seg.insert(seg.end(), rec, rec + kShardRecordBytes);
    events_++;
    if (seg.size() >= kAppendFlushBytes) {
        active_++;
        if (active_ >= segs_.size())
            return flush();
    }
    return true;
}

bool
ParallelShardWriter::Appender::flush()
{
    if (failed_)
        return false;
    struct iovec iov[kAppendBatchSegments];
    int iovcnt = 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i < segs_.size(); i++) {
        if (segs_[i].empty())
            continue;
        iov[iovcnt].iov_base = segs_[i].data();
        iov[iovcnt].iov_len = segs_[i].size();
        total += segs_[i].size();
        iovcnt++;
    }
    if (total == 0)
        return true;
    if (const FaultDecision f = failpoint("shard.flush")) {
        if (f.action == FaultAction::Crash)
            faultCrash("shard.flush");
        if (f.action == FaultAction::TornWrite) {
            // Persist half the staged bytes, then fail: the torn
            // tail the reader's truncation check must catch.
            std::size_t left = total / 2;
            for (const auto &seg : segs_) {
                const std::size_t take =
                    std::min(left, seg.size());
                if (take > 0)
                    writeAll(fd_, seg.data(), take);
                left -= take;
                if (left == 0)
                    break;
            }
        }
        failed_ = true;
        error_ = f.action == FaultAction::TornWrite
                     ? "injected torn write while flushing shard"
                     : "injected I/O error while flushing shard";
        return false;
    }
    if (backend_ != nullptr) {
        // Async mode: earlier submissions' failures surface here,
        // before this flush pretends to succeed.
        if (backend_->failed()) {
            failed_ = true;
            error_ = backend_->error();
            return false;
        }
        segs_ = backend_->submit(fd_, fileOffset_,
                                 std::move(segs_));
        segs_.resize(kAppendBatchSegments);
        fileOffset_ += total;
        active_ = 0;
        return true;
    }
    struct iovec *p = iov;
    while (iovcnt > 0) {
        const ssize_t wrote = ::writev(fd_, p, iovcnt);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            failed_ = true;
            error_ = "I/O error while writing shard";
            return false;
        }
        // Skip past fully written segments; trim a partial one.
        std::size_t skip = static_cast<std::size_t>(wrote);
        while (iovcnt > 0 && skip >= p->iov_len) {
            skip -= p->iov_len;
            p++;
            iovcnt--;
        }
        if (iovcnt > 0) {
            p->iov_base =
                static_cast<unsigned char *>(p->iov_base) + skip;
            p->iov_len -= skip;
        }
    }
    for (auto &seg : segs_)
        seg.clear();
    active_ = 0;
    return true;
}

ParallelShardWriter::ParallelShardWriter(const std::string &prefix,
                                         std::uint32_t shards,
                                         const SourceInfo &info,
                                         ShardAppendMode append)
{
    if (shards == 0)
        shards = 1;
    if (shards > kMaxShardSetCount)
        shards = kMaxShardSetCount;
    // Async degrades to Sync while fault injection is armed: the
    // torn-write and crash failpoints are specified to fire on the
    // capturing thread at a deterministic byte position, which a
    // background flusher cannot reproduce.
    if (append == ShardAppendMode::Async &&
        !FailpointRegistry::instance().anyArmed())
        backend_ = ShardFlushBackend::create();
    ShardHeader h;
    // Same content-driven versioning as ShardWriter above.
    h.version = info.lifecycle ? 2 : 1;
    h.count = shards;
    h.threads = static_cast<std::uint32_t>(info.threads);
    h.locks = static_cast<std::uint32_t>(info.locks);
    h.vars = static_cast<std::uint32_t>(info.vars);
    h.shardEvents = kUnknownEventCount;
    h.totalEvents = kUnknownEventCount;
    appenders_.reserve(shards);
    for (std::uint32_t i = 0; i < shards; i++) {
        appenders_.push_back(
            std::unique_ptr<Appender>(new Appender()));
        Appender &a = *appenders_.back();
        a.seq_ = &nextSeq_;
        a.finalized_ = &finalized_;
        a.backend_ = backend_.get();
        a.fileOffset_ = kShardHeaderBytes;
        a.segs_.resize(kAppendBatchSegments);
        const std::string path = shardPath(prefix, i);
        a.fd_ = ::open(path.c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (a.fd_ < 0) {
            failed_ = true;
            error_ = strFormat("cannot write '%s'", path.c_str());
            return;
        }
        h.index = i;
        unsigned char hdr[kShardHeaderBytes];
        encodeShardHeader(hdr, h);
        if (!writeAll(a.fd_, hdr, sizeof(hdr))) {
            failed_ = true;
            error_ = strFormat("cannot write '%s'", path.c_str());
            return;
        }
    }
}

ParallelShardWriter::~ParallelShardWriter() = default;

ParallelShardWriter::Appender &
ParallelShardWriter::appender(std::uint32_t shard)
{
    TC_CHECK(shard < appenders_.size(),
             "appender index outside the shard set");
    return *appenders_[shard];
}

std::uint64_t
ParallelShardWriter::eventsWritten() const
{
    std::uint64_t total = 0;
    for (const auto &a : appenders_)
        total += a->events_;
    return total;
}

bool
ParallelShardWriter::finalize()
{
    if (failed_ || finalized_)
        return !failed_ && finalized_;
    if (const FaultDecision f = failpoint("shard.finalize")) {
        if (f.action == FaultAction::Crash)
            faultCrash("shard.finalize");
        failed_ = true;
        error_ = "injected I/O error while finalizing shard";
        return false;
    }
    std::uint64_t total = 0;
    for (auto &a : appenders_) {
        if (!a->flush()) {
            failed_ = true;
            error_ = a->error();
            return false;
        }
        total += a->events_;
    }
    if (backend_ != nullptr) {
        // Every async submission must land before the headers stop
        // saying "crashed capture" — this is the latest point where
        // a deferred write error can surface.
        backend_->drain();
        if (backend_->failed()) {
            failed_ = true;
            error_ = backend_->error();
            return false;
        }
    }
    for (auto &a : appenders_) {
        const std::uint64_t counts[2] = {a->events_, total};
        unsigned char patch[sizeof(counts)];
        std::memcpy(patch, counts, sizeof(counts));
        if (!pwriteAll(a->fd_, patch, sizeof(patch),
                       kCountsOffset)) {
            failed_ = true;
            error_ = "I/O error while finalizing shard";
            return false;
        }
    }
    finalized_ = true;
    return true;
}

std::uint64_t
splitTraceStream(EventSource &source, const std::string &prefix,
                 std::uint32_t shards, std::string *error)
{
    ShardWriter writer(prefix, shards, source.info());
    Event buf[256];
    std::size_t n;
    while (!writer.failed() &&
           (n = source.read(buf, sizeof(buf) / sizeof(buf[0]))) !=
               0) {
        for (std::size_t i = 0; i < n; i++)
            writer.append(buf[i]);
    }
    if (!source.failed() && !writer.failed() &&
        writer.finalize())
        return writer.eventsWritten();
    if (error != nullptr) {
        *error = source.failed() ? source.error()
                                 : writer.error();
    }
    // Never leave unfinalized sentinel shards behind: they shadow
    // (and may have truncated) whatever set previously lived at
    // this prefix, and readers misreport them as a crashed
    // capture.
    for (std::uint32_t i = 0; i < writer.shardCount(); i++)
        std::remove(shardPath(prefix, i).c_str());
    return kUnknownEventCount;
}

namespace {

/** One dispatched record of the multi-writer split: the dense
 * stamp assigned by the decoding thread plus its routing. */
struct DispatchRecord
{
    std::uint64_t seq;
    std::uint32_t shard;
    Event event;
};

/** Records per dispatched batch (the hand-off granularity of
 * splitTraceStreamParallel — locks amortize over this). */
constexpr std::size_t kDispatchBatch = 4096;
/** Batches a writer thread may have queued before the dispatcher
 * blocks. */
constexpr std::size_t kDispatchQueueDepth = 4;

/** SPSC hand-off from the dispatcher to one writer thread. */
struct WriterChannel
{
    std::mutex m;
    std::condition_variable space;
    std::condition_variable data;
    std::deque<std::vector<DispatchRecord>> full;
    std::vector<std::vector<DispatchRecord>> spare;
    bool done = false;
};

} // namespace

std::uint64_t
splitTraceStreamParallel(EventSource &source,
                         const std::string &prefix,
                         std::uint32_t shards,
                         std::uint32_t writers, std::string *error,
                         ShardAppendMode append)
{
    if (shards == 0)
        shards = 1;
    if (shards > kMaxShardSetCount)
        shards = kMaxShardSetCount;
    if (writers == 0)
        writers = 1;
    if (writers > shards)
        writers = shards;

    ParallelShardWriter writer(prefix, shards, source.info(),
                               append);
    std::uint64_t written = kUnknownEventCount;
    if (!writer.failed()) {
        std::deque<WriterChannel> channels(writers);
        std::atomic<bool> writerFailed{false};
        std::vector<std::thread> pool;
        pool.reserve(writers);
        for (std::uint32_t w = 0; w < writers; w++) {
            pool.emplace_back([&, w] {
                WriterChannel &ch = channels[w];
                for (;;) {
                    std::vector<DispatchRecord> batch;
                    {
                        std::unique_lock<std::mutex> lock(ch.m);
                        ch.data.wait(lock, [&] {
                            return !ch.full.empty() || ch.done;
                        });
                        if (ch.full.empty())
                            return;
                        batch = std::move(ch.full.front());
                        ch.full.pop_front();
                    }
                    ch.space.notify_one();
                    // After a failure keep draining (so the
                    // dispatcher never blocks on a full queue)
                    // but stop writing.
                    if (!writerFailed.load(
                            std::memory_order_relaxed)) {
                        for (const DispatchRecord &rec : batch) {
                            if (!writer.appender(rec.shard)
                                     .appendStamped(rec.seq,
                                                    rec.event)) {
                                writerFailed.store(
                                    true,
                                    std::memory_order_relaxed);
                                break;
                            }
                        }
                    }
                    batch.clear();
                    std::lock_guard<std::mutex> lock(ch.m);
                    ch.spare.push_back(std::move(batch));
                }
            });
        }

        // Dispatcher: decode in order, assign the dense global
        // stamps, route shard i to writer i mod W in big batches.
        std::vector<std::vector<DispatchRecord>> pending(writers);
        auto flushPending = [&](std::uint32_t w) {
            WriterChannel &ch = channels[w];
            std::unique_lock<std::mutex> lock(ch.m);
            ch.space.wait(lock, [&] {
                return ch.full.size() < kDispatchQueueDepth;
            });
            ch.full.push_back(std::move(pending[w]));
            if (!ch.spare.empty()) {
                pending[w] = std::move(ch.spare.back());
                ch.spare.pop_back();
            } else {
                pending[w] = {};
            }
            lock.unlock();
            ch.data.notify_one();
            pending[w].clear();
        };
        Event buf[256];
        std::size_t n;
        std::uint64_t seq = 0;
        while (!writerFailed.load(std::memory_order_relaxed) &&
               (n = source.read(
                    buf, sizeof(buf) / sizeof(buf[0]))) != 0) {
            for (std::size_t i = 0; i < n; i++) {
                const auto shard = static_cast<std::uint32_t>(
                    static_cast<std::size_t>(buf[i].tid) %
                    shards);
                const std::uint32_t w = shard % writers;
                pending[w].push_back({seq++, shard, buf[i]});
                if (pending[w].size() >= kDispatchBatch)
                    flushPending(w);
            }
        }
        for (std::uint32_t w = 0; w < writers; w++) {
            if (!pending[w].empty())
                flushPending(w);
            {
                std::lock_guard<std::mutex> lock(channels[w].m);
                channels[w].done = true;
            }
            channels[w].data.notify_one();
        }
        for (std::thread &t : pool)
            t.join();
        // finalize() flushes every appender and surfaces the
        // first appender failure, so writerFailed needs no
        // separate error plumbing.
        if (!source.failed() && writer.finalize())
            written = writer.eventsWritten();
    }
    if (written != kUnknownEventCount)
        return written;
    if (error != nullptr) {
        *error = source.failed() ? source.error()
                                 : writer.error();
    }
    for (std::uint32_t i = 0; i < writer.shardCount(); i++)
        std::remove(shardPath(prefix, i).c_str());
    return kUnknownEventCount;
}

std::uint64_t
captureTraceParallel(const Trace &trace, const std::string &prefix,
                     std::uint32_t shards, std::string *error,
                     ShardAppendMode append)
{
    if (shards == 0)
        shards = 1;
    if (shards > kMaxShardSetCount)
        shards = kMaxShardSetCount;
    SourceInfo info;
    info.threads = trace.numThreads();
    info.locks = trace.numLocks();
    info.vars = trace.numVars();
    info.events = trace.size();
    info.lifecycle = trace.hasLifecycle();
    ParallelShardWriter writer(prefix, shards, info, append);
    if (!writer.failed()) {
        // Per-shard position lists: each capture thread must know
        // which global stamps belong to it for the replay gate.
        std::vector<std::vector<std::size_t>> positions(shards);
        for (std::size_t p = 0; p < trace.size(); p++) {
            positions[static_cast<std::size_t>(trace[p].tid) %
                      shards]
                .push_back(p);
        }
        std::atomic<bool> abort{false};
        // Replay gate: simulate the original execution's timing by
        // holding each thread until the global counter reaches its
        // event's position — the fetch-add inside append() then
        // stamps exactly that position, so the captured order is
        // the input order. The hand-off is a condvar, not a yield
        // spin: at most one thread is runnable at a time here, and
        // spinning burned a core per shard on long traces.
        std::mutex gate_m;
        std::condition_variable gate_cv;
        std::vector<std::thread> pool;
        pool.reserve(shards);
        for (std::uint32_t s = 0; s < shards; s++) {
            pool.emplace_back([&, s] {
                ParallelShardWriter::Appender &app =
                    writer.appender(s);
                for (const std::size_t pos : positions[s]) {
                    {
                        std::unique_lock<std::mutex> lock(gate_m);
                        gate_cv.wait(lock, [&] {
                            return abort.load(
                                       std::memory_order_relaxed) ||
                                   writer.sequence() == pos;
                        });
                    }
                    if (abort.load(std::memory_order_relaxed))
                        return;
                    // The stamp is consumed even on failure, so
                    // other threads never wait on it; they see the
                    // abort flag instead.
                    const bool ok = app.append(trace[pos]);
                    if (!ok)
                        abort.store(true,
                                    std::memory_order_relaxed);
                    // Pair the state change with the lock so a
                    // waiter between its predicate check and its
                    // sleep cannot miss this wake.
                    { std::lock_guard<std::mutex> lock(gate_m); }
                    gate_cv.notify_all();
                    if (!ok)
                        return;
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
        if (writer.finalize())
            return writer.eventsWritten();
    }
    if (error != nullptr)
        *error = writer.error();
    for (std::uint32_t i = 0; i < writer.shardCount(); i++)
        std::remove(shardPath(prefix, i).c_str());
    return kUnknownEventCount;
}

std::unique_ptr<EventSource>
openShardSet(const std::string &prefix, std::size_t window,
             MergeStrategy strategy, IoMode io)
{
    return std::make_unique<MergingEventSource>(prefix, window,
                                                strategy, io);
}

std::unique_ptr<EventSource>
openShardSetPartitioned(const std::string &prefix,
                        std::size_t workers, std::size_t window,
                        IoMode io)
{
    return std::make_unique<PartitionedMergingEventSource>(
        prefix, workers, window, io);
}

std::unique_ptr<EventSource>
openShardMember(const std::string &path, std::size_t window,
                std::size_t mergeWorkers, IoMode io)
{
    std::string prefix;
    std::uint32_t index = 0;
    if (!parseShardPath(path, prefix, index)) {
        return makeFailedSource(
            strFormat("'%s' is not a shard-set member "
                      "(want <prefix>.<index>.tcs)",
                      path.c_str()));
    }
    auto merged =
        mergeWorkers > 0
            ? openShardSetPartitioned(prefix, mergeWorkers, window,
                                      io)
            : openShardSet(prefix, window, MergeStrategy::LoserTree,
                           io);
    // The named member must belong to the set that shard 0's
    // header describes — a stale higher-numbered file from an
    // earlier, wider split would otherwise be silently *excluded*
    // from the very stream the user named it to select.
    if (!merged->failed()) {
        const std::uint32_t count = shardSetCount(prefix);
        if (index >= count) {
            return makeFailedSource(strFormat(
                "'%s' is not a member of its shard set (set has "
                "%u shards; stale file from an earlier split?)",
                path.c_str(), count));
        }
    }
    return merged;
}

} // namespace tc
